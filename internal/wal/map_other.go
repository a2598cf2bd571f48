//go:build !unix && !windows

package wal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
)

// mapShared fails: this platform has no shared file mapping, so a
// FileSink cannot open a segment.
func mapShared(*os.File, int64) ([]byte, error) {
	return nil, fmt.Errorf("mapped segments on %s: %w", runtime.GOOS, errors.ErrUnsupported)
}

func unmap([]byte) error { return nil }

func flushView([]byte) error { return nil }
