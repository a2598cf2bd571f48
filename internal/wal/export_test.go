package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// SetPreallocate replaces the reservation of new segments for the rest
// of t, for tests outside the package.
func SetPreallocate(t testing.TB, f func(*os.File, int64) error) {
	orig := preallocate
	preallocate = f
	t.Cleanup(func() { preallocate = orig })
}

// frameBytes returns the on-disk size of the frames whose entries img —
// a log image, or deframe's output — holds: each entry's payload plus
// its frame header.
func frameBytes(img []byte) int {
	img = bytes.TrimPrefix(img, []byte(imageMagic))
	total := 0
	for len(img) > 0 {
		h, k := binary.Uvarint(img)
		n := int(h >> 1)
		total += frameHeaderSize + n
		img = img[k+n:]
	}
	return total
}

// FrameBytes is frameBytes, for tests outside the package.
var FrameBytes = frameBytes

// SetSyncDir replaces the directory fsync for the rest of t, for tests
// outside the package.
func SetSyncDir(t testing.TB, f func(dir string) error) {
	orig := syncDir
	syncDir = f
	t.Cleanup(func() { syncDir = orig })
}
