package wal

import (
	"errors"
	"os"
	"syscall"
)

// reserve allocates size bytes of disk for f and extends it to that
// size, so stores into its mapping never fault on a full disk. A file
// system without fallocate gets a sparse ftruncate instead.
func reserve(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return f.Truncate(size)
	}
	return os.NewSyscallError("fallocate", err)
}
