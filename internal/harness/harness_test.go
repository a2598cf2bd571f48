package harness

import (
	"context"
	"testing"
	"time"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

func crack(ix *crackindex.Index) engine.Engine {
	return engine.Named(engine.SourceFromIndex(ix), "crack")
}

func engines(d *workload.Dataset) []engine.Engine {
	return []engine.Engine{
		baseline.NewScan(d.Values),
		baseline.NewFullSort(d.Values),
		crack(crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece})),
	}
}

func TestAllEnginesAgreeSequential(t *testing.T) {
	d := workload.NewUniqueUniform(20000, 77)
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.01, 5), 64)
	var checksums []int64
	for _, e := range engines(d) {
		run := Sequential(e, qs)
		if len(run.Series.Costs) != len(qs) {
			t.Fatalf("%s: %d cost records, want %d", e.Name(), len(run.Series.Costs), len(qs))
		}
		checksums = append(checksums, run.Checksum)
	}
	if checksums[0] != checksums[1] || checksums[1] != checksums[2] {
		t.Fatalf("engines disagree: %v", checksums)
	}
}

func TestAllEnginesAgreeConcurrent(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 13)
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.005, 21), 128)
	for _, clients := range []int{2, 4, 8} {
		want := Sequential(baseline.NewScan(d.Values), qs).Checksum
		for _, e := range engines(d) {
			run := Execute(e, qs, clients)
			if run.Checksum != want {
				t.Fatalf("%s with %d clients: checksum %d, want %d",
					e.Name(), clients, run.Checksum, want)
			}
			if run.Clients != clients || run.Elapsed <= 0 {
				t.Fatalf("%s: bad run metadata %+v", e.Name(), run)
			}
		}
	}
}

func TestExecuteSplitsQueriesAcrossClients(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 1)
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.1, 2), 10)
	run := Execute(baseline.NewScan(d.Values), qs, 3)
	// 10 queries, 3 clients: 3+3+4.
	perClient := map[int]int{}
	for _, c := range run.Series.Costs {
		perClient[c.Client]++
	}
	if perClient[0] != 3 || perClient[1] != 3 || perClient[2] != 4 {
		t.Fatalf("bad split: %v", perClient)
	}
	// Seq must be a permutation of 0..9.
	seen := map[int]bool{}
	for _, c := range run.Series.Costs {
		if c.Seq < 0 || c.Seq >= 10 || seen[c.Seq] {
			t.Fatalf("bad Seq %d", c.Seq)
		}
		seen[c.Seq] = true
	}
}

func TestExecuteClampsClientCount(t *testing.T) {
	d := workload.NewUniqueUniform(100, 1)
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.5, 3), 4)
	run := Execute(baseline.NewScan(d.Values), qs, 100)
	if run.Clients != 4 {
		t.Fatalf("clients = %d, want clamped to 4", run.Clients)
	}
	run = Execute(baseline.NewScan(d.Values), qs, 0)
	if run.Clients != 1 {
		t.Fatalf("clients = %d, want 1", run.Clients)
	}
}

func TestThroughput(t *testing.T) {
	d := workload.NewUniqueUniform(5000, 4)
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.1, 9), 32)
	run := Sequential(baseline.NewScan(d.Values), qs)
	if run.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	empty := &Run{}
	if empty.Throughput() != 0 {
		t.Fatal("empty run throughput should be 0")
	}
}

func TestSweepFreshEnginePerRun(t *testing.T) {
	d := workload.NewUniqueUniform(20000, 6)
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.01, 31), 64)
	var made int
	runs := Sweep(func() engine.Engine {
		made++
		return crack(crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece}))
	}, qs, []int{1, 2, 4})
	if made != 3 || len(runs) != 3 {
		t.Fatalf("made %d engines, %d runs", made, len(runs))
	}
	if runs[0].Checksum != runs[1].Checksum || runs[1].Checksum != runs[2].Checksum {
		t.Fatal("sweep runs disagree on results")
	}
}

func TestCrackAdapterExposesBreakdown(t *testing.T) {
	d := workload.NewUniqueUniform(50000, 15)
	ix := crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece})
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.05, 8), 32)
	run := Execute(engine.Named(engine.SourceFromIndex(ix), "crack-fifo"), qs, 4)
	if run.Series.TotalRefine() == 0 {
		t.Fatal("no refinement time recorded via the adapter")
	}
	if ix.Stats().Cracks.Load() == 0 {
		t.Fatal("adapter lost the index")
	}
	if run.Engine != "crack-fifo" {
		t.Fatalf("run names engine %q", run.Engine)
	}
}

// TestShardedRunRecordsEpochs drives a 4-shard column whose every shard
// holds pending writes in a sealed epoch: each row of the run must
// carry the epoch-chain depth the query's snapshot read consulted (the
// sealed file plus the open one), as the shard executor reported it.
func TestShardedRunRecordsEpochs(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 19)
	col := shard.New(d.Values, shard.Options{Shards: 4, Seed: 3})
	if col.NumShards() != 4 {
		t.Fatalf("%d shards, want 4", col.NumShards())
	}
	contents := append([]int64(nil), d.Values...)
	for v := int64(0); v < d.Domain; v += d.Domain / 64 {
		if err := col.Insert(context.Background(), v); err != nil {
			t.Fatal(err)
		}
		contents = append(contents, v)
	}
	col.SealAllEpochs()
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.02, 5), 64)
	run := Execute(engine.Named(col, "sharded"), qs, 2)
	want := Sequential(baseline.NewScan(contents), qs).Checksum
	if run.Checksum != want {
		t.Fatalf("checksum %d, want %d", run.Checksum, want)
	}
	for _, c := range run.Series.Costs {
		if c.Epochs != 2 {
			t.Fatalf("query %d recorded Epochs = %d, want 2 (one sealed epoch + the open one)", c.Seq, c.Epochs)
		}
	}
}

func TestSeriesAggregates(t *testing.T) {
	cost := func(seq int, resp, wait, refine time.Duration, conflicts int64) QueryCost {
		c := QueryCost{Seq: seq, Response: resp}
		c.Wait, c.Refine, c.Critical, c.Conflicts = wait, refine, resp/2, conflicts
		return c
	}
	s := Series{Costs: []QueryCost{
		cost(2, 30*time.Millisecond, 3*time.Millisecond, 1*time.Millisecond, 1),
		cost(0, 10*time.Millisecond, 1*time.Millisecond, 5*time.Millisecond, 2),
		cost(1, 20*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 0),
	}}
	if s.Total() != 60*time.Millisecond {
		t.Fatalf("Total = %v", s.Total())
	}
	if s.TotalWait() != 6*time.Millisecond {
		t.Fatalf("TotalWait = %v", s.TotalWait())
	}
	if s.TotalRefine() != 9*time.Millisecond {
		t.Fatalf("TotalRefine = %v", s.TotalRefine())
	}
	if s.TotalCritical() != 30*time.Millisecond {
		t.Fatalf("TotalCritical = %v", s.TotalCritical())
	}
	if s.TotalConflicts() != 3 {
		t.Fatalf("TotalConflicts = %d", s.TotalConflicts())
	}
	s.SortBySeq()
	if s.Costs[0].Seq != 0 || s.Costs[2].Seq != 2 {
		t.Fatal("SortBySeq failed")
	}
	avg := s.RunningAverage()
	if avg[0] != 10*time.Millisecond || avg[1] != 15*time.Millisecond || avg[2] != 20*time.Millisecond {
		t.Fatalf("RunningAverage = %v", avg)
	}
}
