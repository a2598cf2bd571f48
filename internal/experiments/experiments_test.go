package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Small configuration so the whole suite stays fast; shape assertions
// are scale-invariant.
func testCfg() Config {
	return Config{Rows: 1 << 17, Queries: 128, Clients: []int{1, 2, 4}, Seed: 7}
}

// eventually retries a timing-shape assertion: `go test ./...` runs
// packages in parallel, so a single run can lose its CPUs mid-flight.
// The shape must hold in at least one of n attempts.
func eventually(t *testing.T, n int, check func() error) {
	t.Helper()
	var err error
	for i := 0; i < n; i++ {
		if err = check(); err == nil {
			return
		}
	}
	t.Fatal(err)
}

func TestFig11Shapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Rows = 1 << 19 // widen the crack-vs-sort first-query margin
	eventually(t, 3, func() error {
		buf.Reset()
		rep := Fig11(cfg, &buf)
		for _, name := range []string{"scan", "sort", "crack"} {
			if len(rep.PerQuery[name]) != 10 || len(rep.RunningAvg[name]) != 10 {
				t.Fatalf("%s: wrong series lengths", name)
			}
		}
		// Sort pays hugely on query 1, then is near-free.
		if rep.PerQuery["sort"][0] < 10*rep.PerQuery["sort"][1] {
			return fmt.Errorf("sort first query %v not >> second %v",
				rep.PerQuery["sort"][0], rep.PerQuery["sort"][1])
		}
		// Crack's first query is cheaper than sort's.
		if rep.PerQuery["crack"][0] >= rep.PerQuery["sort"][0] {
			return fmt.Errorf("crack first query %v not cheaper than sort %v",
				rep.PerQuery["crack"][0], rep.PerQuery["sort"][0])
		}
		// Crack converges: last query far cheaper than its first.
		if rep.PerQuery["crack"][9] >= rep.PerQuery["crack"][0] {
			return fmt.Errorf("crack did not converge: q1=%v q10=%v",
				rep.PerQuery["crack"][0], rep.PerQuery["crack"][9])
		}
		return nil
	})
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Fatal("missing output header")
	}
}

func TestFig12Shapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Rows = 1 << 19 // widen the crack-vs-scan margin beyond CI noise
	eventually(t, 3, func() error {
		buf.Reset()
		rep := Fig12(cfg, &buf)
		for _, name := range []string{"scan", "sort", "crack"} {
			if len(rep.Total[name]) != len(cfg.Clients) {
				t.Fatalf("%s: wrong sweep length", name)
			}
			for i, d := range rep.Total[name] {
				if d <= 0 {
					t.Fatalf("%s: non-positive total at %d", name, i)
				}
			}
		}
		// Cracking beats scanning in total time at every client count
		// (the paper's headline ordering).
		for i := range cfg.Clients {
			if rep.Total["crack"][i] >= rep.Total["scan"][i] {
				return fmt.Errorf("crack (%v) not faster than scan (%v) at %d clients",
					rep.Total["crack"][i], rep.Total["scan"][i], cfg.Clients[i])
			}
		}
		return nil
	})
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Fatal("missing output header")
	}
}

func TestFig13Shapes(t *testing.T) {
	var buf bytes.Buffer
	rep := Fig13(testCfg(), &buf)
	if rep.Enabled <= 0 || rep.Disabled <= 0 {
		t.Fatal("non-positive totals")
	}
	// CC admin overhead must be small; allow generous slack for CI
	// noise (the paper reports <1%, cmd/figures at full scale ~2%).
	if rep.OverheadPct > 60 {
		t.Fatalf("CC overhead %.1f%% implausibly high", rep.OverheadPct)
	}
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatal("missing output header")
	}
}

func TestFig14Shapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Rows = 1 << 19 // pieces must outweigh per-piece latch overhead
	cfg.Queries = 64
	cfg.Clients = []int{1, 4}
	eventually(t, 3, func() error {
		buf.Reset()
		rep := Fig14(cfg, &buf)
		panels := []string{"count/column", "count/piece", "sum/column", "sum/piece"}
		for _, p := range panels {
			if len(rep.Total[p]) != len(Fig14Selectivities) {
				t.Fatalf("%s: wrong selectivity rows", p)
			}
			for _, row := range rep.Total[p] {
				if len(row) != len(cfg.Clients) {
					t.Fatalf("%s: wrong client columns", p)
				}
			}
		}
		// The headline Figure 14 effect: for concurrent sum queries at
		// low selectivity (long read-latch windows), piece latches beat
		// column latches. The effect IS parallelism between cracking
		// and aggregation on different pieces, so it needs more than
		// one core — on a single-CPU machine only the panel mechanics
		// are asserted.
		if runtime.GOMAXPROCS(0) > 1 {
			si := len(Fig14Selectivities) - 1 // 90% selectivity
			ci := len(cfg.Clients) - 1        // most clients
			col := rep.Total["sum/column"][si][ci]
			pie := rep.Total["sum/piece"][si][ci]
			if pie >= col {
				return fmt.Errorf("piece latches (%v) not faster than column latches (%v) for concurrent low-selectivity sums",
					pie, col)
			}
		}
		return nil
	})
	if !strings.Contains(buf.String(), "Figure 14 panel sum/piece") {
		t.Fatal("missing output header")
	}
}

func TestFig15Shapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Queries = 256
	rep := Fig15(cfg, &buf)
	if len(rep.CrackTime) != cfg.Queries || len(rep.WaitTime) != cfg.Queries || len(rep.Touched) != cfg.Queries {
		t.Fatal("wrong series length")
	}
	// Refinement work decays strongly over the sequence (the adaptive
	// property under concurrency). Asserted on the rows each query
	// touched: the first quarter partitions the column several times
	// over and the last quarter only small pieces, whatever the
	// interleaving of the eight clients. The time ratio says the same
	// but the whole run lasts milliseconds, so one descheduled crack
	// can tip it; it is logged.
	if rep.TouchedDecay >= 0.5 {
		t.Fatalf("rows touched did not decay: ratio %.3f", rep.TouchedDecay)
	}
	t.Logf("crack time decay %.3f, wait decay %.3f, rows touched decay %.3f", rep.CrackDecay, rep.WaitDecay, rep.TouchedDecay)
	if !strings.Contains(buf.String(), "Figure 15") {
		t.Fatal("missing output header")
	}
}

func TestAblationsRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Queries = 64
	rep := Ablations(cfg, 4, &buf)
	if len(rep.Order) < 8 {
		t.Fatalf("only %d ablation variants", len(rep.Order))
	}
	for _, name := range rep.Order {
		if rep.Total[name] <= 0 {
			t.Fatalf("%s: non-positive total", name)
		}
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Fatal("missing output header")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Rows != 1<<20 || c.Queries != 1024 || len(c.Clients) != 6 || c.Seed != 42 {
		t.Fatalf("bad defaults: %+v", c)
	}
	c2 := Config{Rows: 7, Queries: 9, Clients: []int{3}, Seed: 1}.Defaults()
	if c2.Rows != 7 || c2.Queries != 9 || c2.Clients[0] != 3 || c2.Seed != 1 {
		t.Fatal("defaults overwrote explicit values")
	}
}

func TestReadWriteMixRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Rows = 1 << 14
	cfg.Queries = 96
	rep := ReadWriteMix(cfg, &buf)
	if len(rep.Cells) != 9 {
		t.Fatalf("%d cells, want 9 (3 write fractions x 3 client counts)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Elapsed <= 0 || c.Throughput <= 0 {
			t.Fatalf("cell %+v: non-positive timing", c)
		}
		if c.WriteFraction == 0 && (c.Applied != 0 || c.Splits != 0) {
			t.Fatalf("read-only cell performed structural ops: %+v", c)
		}
	}
	if !strings.Contains(buf.String(), "Read/write mix") {
		t.Fatal("missing output header")
	}
}

func TestWriterCollisionShapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Rows = 1 << 16
	cfg.Queries = 512
	c := WriterCollision(cfg, &buf)
	if c.Inserts == 0 || c.P50 <= 0 {
		t.Fatalf("degenerate cell: %+v", c)
	}
	if c.Applies == 0 {
		t.Fatal("forcer committed no rebuilds: the collision never happened")
	}
	// The harness's reason to exist: with forced collisions even a
	// single writer would show a rebuild-sized stall tail if writers
	// waited on rebuilds. They roll over to the next epoch instead, so
	// the median insert stays far below the stall threshold.
	if c.P50 >= stallThreshold {
		t.Errorf("median insert %v at or above the stall threshold %v", c.P50, stallThreshold)
	}
	if !strings.Contains(buf.String(), "collision harness") {
		t.Fatal("missing output header")
	}
}
