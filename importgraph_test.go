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

// TestFacadeImportsNoReproductionOnly keeps the facade to the index: the
// root package reaches the reproduction only through the engines behind
// WithMethod (amerge, hybrid, baseline) and through Run (harness,
// engine). The column store, sideways cracking, transactions, locks, the
// write-ahead log and the paper's experiments are driven directly, by
// the commands and examples that show them.
func TestFacadeImportsNoReproductionOnly(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{join .Imports \"\\n\"}}", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list .: %v\n%s", err, out)
	}
	imports := strings.Fields(string(out))
	for _, p := range []string{"column", "sideways", "txn", "lockmgr", "wal", "pbtree", "ranges", "experiments"} {
		if slices.Contains(imports, "adaptix/internal/"+p) {
			t.Errorf("the root package imports adaptix/internal/%s", p)
		}
	}
}
