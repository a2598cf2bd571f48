//go:build unix

package wal

import (
	"os"
	"syscall"
)

// mapShared maps the first size bytes of f read-write and shared: a
// store into the mapping is a store into the file's page cache.
func mapShared(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// unmap releases a mapping made by mapShared.
func unmap(m []byte) error { return syscall.Munmap(m) }

// flushView is a no-op: fsync of the file writes back the dirty pages
// of its shared mappings.
func flushView([]byte) error { return nil }
