package adaptix_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestDurablePathImportsNoTransactions draws the first leaf of the
// product/reproduction line in the import graph: the write path, the
// log and the durable store must not reach the transaction or lock
// managers. They log data, not structure, and no system transaction
// brackets a group-apply, split or merge, so nothing there needs them.
func TestDurablePathImportsNoTransactions(t *testing.T) {
	pkgs := []string{"./internal/ingest", "./internal/durable", "./internal/wal"}
	forbidden := []string{"adaptix/internal/txn", "adaptix/internal/lockmgr"}
	for _, pkg := range pkgs {
		out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
		}
		deps := strings.Fields(string(out))
		for _, f := range forbidden {
			if slices.Contains(deps, f) {
				t.Errorf("%s reaches %s", pkg, f)
			}
		}
	}
}
