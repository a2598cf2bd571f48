//go:build !linux

package wal

import "os"

// reserve extends f to size bytes, the extent its mapping covers. The
// file is sparse: no portable call reserves its blocks.
func reserve(f *os.File, size int64) error { return f.Truncate(size) }
