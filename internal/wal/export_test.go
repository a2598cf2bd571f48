package wal

import (
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
