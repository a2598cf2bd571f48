// Benchmarks regenerating every figure of the paper's §6 plus the
// design-choice ablations. Each BenchmarkFigNN_* family corresponds to
// one figure; cmd/figures runs the same experiments at full scale with
// tabular output. Benchmark scale is kept small (256k rows, 256
// queries) so `go test -bench=.` finishes in minutes; shapes — who
// wins, by what factor — are the reproduction target, not absolute
// numbers (see EXPERIMENTS.md).
package adaptix_test

import (
	"context"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptix"
	"adaptix/internal/amerge"
	"adaptix/internal/baseline"
	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/directory"
	"adaptix/internal/engine"
	"adaptix/internal/harness"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/latch"
	"adaptix/internal/metrics"
	"adaptix/internal/pbtree"
	"adaptix/internal/shard"
	"adaptix/internal/sideways"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

const (
	benchRows    = 1 << 18
	benchQueries = 256
)

var benchData = sync.OnceValue(func() *workload.Dataset {
	return workload.NewUniqueUniform(benchRows, 42)
})

func benchQuerySet(kind workload.QueryKind, sel float64) []workload.Query {
	return workload.Fixed(workload.NewUniform(kind, int64(benchRows), sel, 7), benchQueries)
}

func crackEngine(opts crackindex.Options) func() engine.Engine {
	return func() engine.Engine {
		return engine.Named(engine.SourceFromIndex(crackindex.New(benchData().Values, opts)), "crack")
	}
}

// runEngine executes the whole query sequence once per benchmark
// iteration on a fresh engine (adaptive state must not leak between
// iterations).
func runEngine(b *testing.B, mk func() engine.Engine, qs []workload.Query, clients int) {
	b.Helper()
	b.ReportAllocs()
	var checksum int64
	for i := 0; i < b.N; i++ {
		run := harness.Execute(mk(), qs, clients)
		checksum += run.Checksum
	}
	if checksum == 0 {
		b.Fatal("zero checksum: engines computed nothing")
	}
}

// --- Figure 11: scan vs sort vs crack, 10 serial queries, sel 10% ---

func fig11Queries() []workload.Query {
	return workload.Fixed(workload.NewUniform(workload.Count, int64(benchRows), 0.10, 3), 10)
}

func BenchmarkFig11_Scan(b *testing.B) {
	runEngine(b, func() engine.Engine { return baseline.NewScan(benchData().Values) }, fig11Queries(), 1)
}

func BenchmarkFig11_Sort(b *testing.B) {
	runEngine(b, func() engine.Engine { return baseline.NewFullSort(benchData().Values) }, fig11Queries(), 1)
}

func BenchmarkFig11_Crack(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}), fig11Queries(), 1)
}

// --- Figure 12: total time for the sequence at 1..8 clients, Q2 sel 0.01% ---

func benchFig12(b *testing.B, mk func() engine.Engine) {
	qs := benchQuerySet(workload.Sum, 0.0001)
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "Clients1", 2: "Clients2", 4: "Clients4", 8: "Clients8"}[clients], func(b *testing.B) {
			runEngine(b, mk, qs, clients)
		})
	}
}

func BenchmarkFig12_Scan(b *testing.B) {
	benchFig12(b, func() engine.Engine { return baseline.NewScan(benchData().Values) })
}

func BenchmarkFig12_Sort(b *testing.B) {
	benchFig12(b, func() engine.Engine { return baseline.NewFullSort(benchData().Values) })
}

func BenchmarkFig12_Crack(b *testing.B) {
	benchFig12(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}))
}

// --- Figure 13: CC administration overhead, sequential ---

func BenchmarkFig13_CCEnabled(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}),
		benchQuerySet(workload.Sum, 0.0001), 1)
}

func BenchmarkFig13_CCDisabled(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchNone}),
		benchQuerySet(workload.Sum, 0.0001), 1)
}

// --- Figure 14: latch granularity x query type x selectivity ---

func benchFig14(b *testing.B, kind workload.QueryKind, mode crackindex.LatchMode) {
	for _, sel := range []struct {
		name string
		frac float64
	}{{"Sel0.01pct", 0.0001}, {"Sel10pct", 0.10}, {"Sel50pct", 0.50}} {
		b.Run(sel.name, func(b *testing.B) {
			runEngine(b, crackEngine(crackindex.Options{Latching: mode}),
				benchQuerySet(kind, sel.frac), 4)
		})
	}
}

func BenchmarkFig14_Count_ColumnLatch(b *testing.B) {
	benchFig14(b, workload.Count, crackindex.LatchColumn)
}

func BenchmarkFig14_Count_PieceLatch(b *testing.B) {
	benchFig14(b, workload.Count, crackindex.LatchPiece)
}

func BenchmarkFig14_Sum_ColumnLatch(b *testing.B) {
	benchFig14(b, workload.Sum, crackindex.LatchColumn)
}

func BenchmarkFig14_Sum_PieceLatch(b *testing.B) {
	benchFig14(b, workload.Sum, crackindex.LatchPiece)
}

// --- Figure 15: wait/crack decay under 8 clients, sel 50% ---

func BenchmarkFig15_Breakdown(b *testing.B) {
	qs := benchQuerySet(workload.Sum, 0.50)
	b.ReportAllocs()
	var crackDecay, waitDecay float64
	for i := 0; i < b.N; i++ {
		run := harness.Execute(crackEngine(crackindex.Options{Latching: crackindex.LatchPiece})(), qs, 8)
		q := len(run.Series.Costs) / 4
		var cf, cl, wf, wl int64
		for _, c := range run.Series.Costs[:q] {
			cf += int64(c.Refine)
			wf += int64(c.Wait)
		}
		for _, c := range run.Series.Costs[len(run.Series.Costs)-q:] {
			cl += int64(c.Refine)
			wl += int64(c.Wait)
		}
		if cf > 0 {
			crackDecay = float64(cl) / float64(cf)
		}
		if wf > 0 {
			waitDecay = float64(wl) / float64(wf)
		}
	}
	b.ReportMetric(crackDecay, "crack-decay")
	b.ReportMetric(waitDecay, "wait-decay")
}

// --- Ablations: the design choices DESIGN.md calls out ---

func BenchmarkAblation_Scheduling_MiddleFirst(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, Scheduling: latch.MiddleFirst}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

func BenchmarkAblation_Scheduling_FIFO(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, Scheduling: latch.FIFO}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

func BenchmarkAblation_Bounds_Serial(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}),
		benchQuerySet(workload.Sum, 0.001), 4)
}

func BenchmarkAblation_Bounds_Parallel(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, ParallelBounds: true}),
		benchQuerySet(workload.Sum, 0.001), 4)
}

func BenchmarkAblation_Layout_Split(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, Layout: cracker.LayoutSplit}),
		benchQuerySet(workload.Sum, 0.001), 1)
}

func BenchmarkAblation_Layout_Pairs(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, Layout: cracker.LayoutPairs}),
		benchQuerySet(workload.Sum, 0.001), 1)
}

func BenchmarkAblation_Conflict_Wait(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, OnConflict: crackindex.Wait}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

func BenchmarkAblation_Conflict_Skip(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, OnConflict: crackindex.Skip}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

func BenchmarkAblation_GroupCracking_Off(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

func BenchmarkAblation_GroupCracking_On(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece, GroupCracking: true}),
		benchQuerySet(workload.Sum, 0.001), 8)
}

// --- Adaptive method comparison on one concurrent workload ---

func BenchmarkMethod_Crack(b *testing.B) {
	runEngine(b, crackEngine(crackindex.Options{Latching: crackindex.LatchPiece}),
		benchQuerySet(workload.Sum, 0.001), 4)
}

func BenchmarkMethod_AdaptiveMerge(b *testing.B) {
	runEngine(b, func() engine.Engine { return amerge.New(benchData().Values, amerge.Options{}) },
		benchQuerySet(workload.Sum, 0.001), 4)
}

func BenchmarkMethod_Hybrid(b *testing.B) {
	runEngine(b, func() engine.Engine { return hybrid.New(benchData().Values, hybrid.Options{}) },
		benchQuerySet(workload.Sum, 0.001), 4)
}

// Sideways cracking vs the Figure 6 fetch plan for
// select sum(B) where lo <= A < hi.
func benchTwoColumnPlan(b *testing.B, useSideways bool) {
	d := benchData()
	d2 := workload.NewUniqueUniform(benchRows, 43)
	qs := benchQuerySet(workload.Sum, 0.001)
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		if useSideways {
			m := sideways.NewMap(d.Values, d2.Values, sideways.Options{})
			for _, q := range qs {
				s, _ := m.SumTargetWhere(q.Lo, q.Hi)
				sink += s
			}
		} else {
			ix := crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece})
			for _, q := range qs {
				ids, _ := ix.SelectRowIDs(q.Lo, q.Hi)
				for _, id := range ids {
					sink += d2.Values[id]
				}
			}
		}
	}
	if sink == 0 {
		b.Fatal("zero checksum")
	}
}

func BenchmarkPlan_SelectFetchSum(b *testing.B) { benchTwoColumnPlan(b, false) }
func BenchmarkPlan_Sideways(b *testing.B)       { benchTwoColumnPlan(b, true) }

// --- Sharded parallel cracking: multi-core scaling sweep ---
//
// Shard counts {1, 2, 4, 8} x clients {1, 4, 16} chart the scaling
// curve of the internal/shard fan-out executor against the
// single-column crack engine (the Shards1 rows, which pay only the
// routing overhead).

func benchShardedEngine(shards int) func() engine.Engine {
	return func() engine.Engine {
		return engine.Named(shard.New(benchData().Values, shard.Options{
			Shards: shards, Seed: 77,
			Index: crackindex.Options{Latching: crackindex.LatchPiece},
		}), "sharded")
	}
}

func benchShardSweep(b *testing.B, shards int) {
	qs := benchQuerySet(workload.Sum, 0.001)
	for _, clients := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "Clients1", 4: "Clients4", 16: "Clients16"}[clients], func(b *testing.B) {
			runEngine(b, benchShardedEngine(shards), qs, clients)
		})
	}
}

func BenchmarkSharded_Shards1(b *testing.B) { benchShardSweep(b, 1) }
func BenchmarkSharded_Shards2(b *testing.B) { benchShardSweep(b, 2) }
func BenchmarkSharded_Shards4(b *testing.B) { benchShardSweep(b, 4) }
func BenchmarkSharded_Shards8(b *testing.B) { benchShardSweep(b, 8) }

// BenchmarkSharded_WideRanges stresses the fan-out path itself: 10%
// selectivity ranges overlap several shards per query, so partial
// results and OpStats merge on every call.
func BenchmarkSharded_WideRanges(b *testing.B) {
	runEngine(b, benchShardedEngine(8), benchQuerySet(workload.Sum, 0.10), 4)
}

// --- Mixed read/write workload through internal/ingest ---
//
// Write fractions {0, 10%, 50%} x clients {1, 4, 16} over the sharded
// column with an active write-path coordinator: the write side routes
// into per-shard differential files and the background worker
// group-applies and rebalances while the read side keeps cracking.

func benchIngestMix(b *testing.B, writeFrac float64) {
	d := benchData()
	for _, clients := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "Clients1", 4: "Clients4", 16: "Clients16"}[clients], func(b *testing.B) {
			b.ReportAllocs()
			const opsPerClient = 256
			for i := 0; i < b.N; i++ {
				col := shard.New(d.Values, shard.Options{
					Shards: 8, Seed: 77,
					Index: crackindex.Options{Latching: crackindex.LatchPiece},
				})
				g := ingest.New(col, ingest.Options{ApplyThreshold: 512})
				g.Start()
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						r := workload.NewRNG(uint64(1000 + c))
						gen := workload.NewUniform(workload.Sum, int64(benchRows), 0.001, uint64(50+c))
						inserts := 0
						for j := 0; j < opsPerClient; j++ {
							if float64(r.Intn(1000))/1000 < writeFrac {
								if j%2 == 0 {
									_ = g.Insert(context.Background(), int64(benchRows+c*opsPerClient+inserts))
									inserts++
								} else {
									_, _ = g.DeleteValue(context.Background(), r.Int64n(int64(benchRows)))
								}
								continue
							}
							q := gen.Next()
							col.Sum(context.Background(), q.Lo, q.Hi)
						}
					}(c)
				}
				wg.Wait()
				g.Close()
			}
		})
	}
}

func BenchmarkIngest_Write0pct(b *testing.B)  { benchIngestMix(b, 0) }
func BenchmarkIngest_Write10pct(b *testing.B) { benchIngestMix(b, 0.10) }
func BenchmarkIngest_Write50pct(b *testing.B) { benchIngestMix(b, 0.50) }

// --- Microbenchmarks of the substrates ---

func BenchmarkMicro_CrackInTwo_Split(b *testing.B) {
	benchCrackInTwo(b, func(v []int64) *cracker.Array { return cracker.New(v, cracker.LayoutSplit) })
}

func BenchmarkMicro_CrackInTwo_Pairs(b *testing.B) {
	benchCrackInTwo(b, func(v []int64) *cracker.Array { return cracker.New(v, cracker.LayoutPairs) })
}

// BenchmarkMicro_CrackInTwo_Owned is the crack of a shard's array: a
// value-only array (cracker.NewOwned), which moves no row ids.
func BenchmarkMicro_CrackInTwo_Owned(b *testing.B) {
	benchCrackInTwo(b, func(v []int64) *cracker.Array { return cracker.NewOwned(slices.Clone(v)) })
}

func benchCrackInTwo(b *testing.B, build func([]int64) *cracker.Array) {
	d := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := build(d.Values)
		b.StartTimer()
		a.CrackInTwo(0, a.Len(), int64(benchRows/2))
	}
	b.SetBytes(int64(benchRows * 8))
}

func BenchmarkMicro_CrackInThree(b *testing.B) {
	d := benchData()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := cracker.New(d.Values, cracker.LayoutSplit)
		b.StartTimer()
		a.CrackInThree(0, a.Len(), int64(benchRows/4), int64(3*benchRows/4))
	}
	b.SetBytes(int64(benchRows * 8))
}

// dirRungBoundaries is the table-of-contents size of the directory and
// converged-count rungs: what one shard of the warm_point workload holds.
const dirRungBoundaries = 32 << 10

// BenchmarkDirectory measures the table of contents on its own at 32 Ki
// boundaries (keys 0, 1024, 2048, ...): a converged query's pair of
// floor lookups (run with -cpu 1,2: readers share nothing but read-only
// memory) in one directory bulk-built from sorted entries and in four
// grown by publishes, a crack's publish of one or two cuts inside one
// piece — each copies one chunk; the table is rebuilt, untimed, whenever
// it has doubled — and a rebuilt shard's bulk build from sorted seeds.
func BenchmarkDirectory(b *testing.B) {
	const gap = 1024
	entries := make([]directory.Entry, dirRungBoundaries)
	for i := range entries {
		entries[i] = directory.Entry{Key: int64(i) * gap, Pos: i * gap, Sum: int64(i)}
	}
	b.Run("lookup", func(b *testing.B) {
		var d directory.Dir
		d.Build(entries)
		var seed atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			r := workload.NewRNG(seed.Add(1))
			var sink int
			for pb.Next() {
				lo := r.Int64n(dirRungBoundaries-1) * gap
				p, q := d.Floor2(lo, lo+gap)
				sink += q.Pos() - p.Pos()
			}
			if sink < 0 {
				b.Error("positions decreased")
			}
		})
	})
	// lookup_published reads directories laid out the way a converged
	// shard's is: four of them (one per shard), each grown from empty by
	// one-cut publishes in random key order, so their chunks were split
	// apart over time instead of laid out side by side.
	b.Run("lookup_published", func(b *testing.B) {
		dirs := make([]directory.Dir, 4)
		for i := range dirs {
			order := make([]int64, dirRungBoundaries)
			workload.NewRNG(uint64(i)).Perm(order)
			for _, k := range order {
				dirs[i].Insert(k*gap, int(k)*gap, k)
			}
		}
		var seed atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			r := workload.NewRNG(seed.Add(1))
			var sink int
			for pb.Next() {
				d := &dirs[r.Intn(len(dirs))]
				lo := r.Int64n(dirRungBoundaries-1) * gap
				p, q := d.Floor2(lo, lo+gap)
				sink += q.Pos() - p.Pos()
			}
			if sink < 0 {
				b.Error("positions decreased")
			}
		})
	})
	publish := func(cuts int) func(b *testing.B) {
		return func(b *testing.B) {
			var d directory.Dir
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % dirRungBoundaries
				if j == 0 {
					b.StopTimer()
					d.Build(entries)
					b.StartTimer()
				}
				// A permutation of the pieces (the multiplier is odd), so
				// successive publishes land in unrelated chunks.
				k := int64(j*40503%dirRungBoundaries)*gap + 1
				cut := [2]directory.Entry{{Key: k, Pos: int(k)}, {Key: k + 1, Pos: int(k) + 1}}
				d.Publish(cut[:cuts])
			}
		}
	}
	b.Run("publish_1cut", publish(1))
	b.Run("publish_2cut", publish(2))
	b.Run("bulk_build", func(b *testing.B) {
		var d directory.Dir
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Build(entries)
		}
	})
}

// BenchmarkConvergedCount is the contended converged-read rung: every
// client of ONE shared index of 32 Ki boundaries counts ranges whose two
// bounds are boundaries already. Run with -cpu 1,2: whatever the read
// path still shares between clients shows as the gap between the two.
func BenchmarkConvergedCount(b *testing.B) {
	const gap = 64
	vals := make([]int64, dirRungBoundaries*gap)
	seeds := make([]crackindex.BoundaryPosition, 0, dirRungBoundaries-1)
	for i := range vals {
		vals[i] = int64(i)
		if i > 0 && i%gap == 0 {
			seeds = append(seeds, crackindex.BoundaryPosition{Value: int64(i), Pos: i, Sum: int64(i) * int64(i-1) / 2})
		}
	}
	ix := crackindex.NewOwned(vals, seeds, crackindex.Options{})
	var seed atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		r := workload.NewRNG(seed.Add(1))
		for pb.Next() {
			lo := (1 + r.Int64n(dirRungBoundaries-2)) * gap
			if n, _ := ix.Count(lo, lo+gap); n != gap {
				b.Errorf("Count[%d,%d) = %d", lo, lo+gap, n)
				return
			}
		}
	})
}

// BenchmarkConvergedRead is the converged-read rung of the whole facade:
// a 4-shard Index over 4 Mi rows that has already answered each of 64 Ki
// narrow (0.001 %) bounds is asked them again, in parallel, so every
// shard answers from its table of contents. Such a read refines nothing;
// run with -cpu 1,2: whatever it still writes to shared memory shows as
// the gap between the two.
func BenchmarkConvergedRead(b *testing.B) {
	d := buildRungData()
	ix, err := adaptix.New(d.Values, adaptix.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	pool := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.00001, 7), 64<<10)
	for _, q := range pool {
		if _, err := ix.Count(ctx, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
	for _, wantSum := range []bool{false, true} {
		name := "count"
		if wantSum {
			name = "sum"
		}
		b.Run(name, func(b *testing.B) {
			var client atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int(client.Add(1)) * 7919 // clients start far apart in the pool
				for pb.Next() {
					q := pool[i%len(pool)]
					i++
					var err error
					if wantSum {
						_, err = ix.Sum(ctx, q.Lo, q.Hi)
					} else {
						_, err = ix.Count(ctx, q.Lo, q.Hi)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// buildRungData is the repo benchmark's shape: 4 Mi unique rows in
// random order.
var buildRungData = sync.OnceValue(func() *workload.Dataset {
	return workload.NewUniqueUniform(4<<20, 42)
})

// BenchmarkShardBuild is the set-up rung: shard.New over 4 Mi rows and 4
// shards — sample, route, scatter, per-shard index. (The two passes alone:
// BenchmarkBuildPass in internal/shard.)
func BenchmarkShardBuild(b *testing.B) {
	vals := buildRungData().Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := shard.New(vals, shard.Options{Shards: 4}).NumShards(); n != 4 {
			b.Fatalf("%d shards", n)
		}
	}
}

// BenchmarkColdFirstQuery is the first Count of a 1 % range on a fresh
// 4-shard column (the build is untimed): what a fresh index's first
// crack has to partition.
func BenchmarkColdFirstQuery(b *testing.B) {
	ds := buildRungData()
	qs := workload.Fixed(workload.NewUniform(workload.Count, ds.Domain, 0.01, 7), 64)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := shard.New(ds.Values, shard.Options{Shards: 4})
		q := qs[i%len(qs)]
		b.StartTimer()
		if _, _, err := col.Count(ctx, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServe is the serving-front rung: a converged 4-shard column
// behind a default server on loopback. idle_rtt is one connection with
// one request in flight, so every query finds its shard idle: the round
// trip the batch scheduler adds nothing to. closed_loop_2x16 is two
// connections keeping 16 requests in flight each (the repo benchmark's
// served_open capacity shape), where batches form behind running ones.
// Both report req/s beside ns/op; allocs/op counts client and server.
func BenchmarkServe(b *testing.B) {
	d := benchData()
	qs := benchQuerySet(workload.Count, 0.001)
	want := make([]int64, len(qs))
	ctx := context.Background()
	ix, err := adaptix.New(d.Values, adaptix.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	for i, q := range qs {
		want[i] = d.TrueCount(q.Lo, q.Hi)
		if _, err := ix.Count(ctx, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := ix.ServeAddr("127.0.0.1:0", adaptix.ServeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	run := func(conns, depth int) func(b *testing.B) {
		return func(b *testing.B) {
			clients := make([]*adaptix.ServeClient, conns)
			for c := range clients {
				if clients[c], err = adaptix.DialServe(srv.Addr().String()); err != nil {
					b.Fatal(err)
				}
				defer clients[c].Close()
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for _, cl := range clients {
				for range depth {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1) - 1); i < b.N; i = int(next.Add(1) - 1) {
							q := qs[i%len(qs)]
							if n, err := cl.Count(ctx, q.Lo, q.Hi); err != nil || n != want[i%len(qs)] {
								b.Errorf("Count[%d,%d) = %d, %v; want %d", q.Lo, q.Hi, n, err, want[i%len(qs)])
								return
							}
						}
					}()
				}
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		}
	}
	b.Run("idle_rtt", run(1, 1))
	b.Run("closed_loop_2x16", run(2, 16))
}

func BenchmarkMicro_PBTreeInsert(b *testing.B) {
	r := workload.NewRNG(9)
	tr := pbtree.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(pbtree.Entry{Part: int32(i % 8), Key: r.Int63() % 1_000_000, Row: uint32(i)})
	}
}

func BenchmarkMicro_LatchUncontended(b *testing.B) {
	l := latch.New(latch.MiddleFirst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Lock(0)
		l.Unlock()
	}
}

func BenchmarkMicro_LatchReadShared(b *testing.B) {
	l := latch.New(latch.MiddleFirst)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.RLock()
			l.RUnlock()
		}
	})
}

// --- Public API smoke benchmark (quickstart path) ---

func BenchmarkPublicAPI_SumQueries(b *testing.B) {
	d := benchData()
	qs := adaptix.UniformQueries(adaptix.SumQuery, int64(benchRows), 0.01, 11, benchQueries)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix, err := adaptix.New(d.Values, adaptix.WithShards(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			if _, err := ix.Sum(ctx, q.Lo, q.Hi); err != nil {
				b.Fatal(err)
			}
		}
		ix.Close()
	}
}

// --- Context overhead: the Background fast path must be free ---

// BenchmarkContextOverhead_Plain vs _Background quantify the cost of
// the context plumbing on a fully refined index: the Background path
// takes the uncancellable fast path everywhere, so the two must be
// indistinguishable (the satellite acceptance for the context-aware
// API). _Deadline measures the (still small) cost of a live deadline.
func benchCtxOverhead(b *testing.B, q func(ix *crackindex.Index, lo, hi int64)) {
	d := benchData()
	ix := crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece})
	for _, qq := range benchQuerySet(workload.Sum, 0.001) {
		ix.Sum(qq.Lo, qq.Hi) // refine fully so per-query work is minimal
	}
	qs := benchQuerySet(workload.Sum, 0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qq := qs[i%len(qs)]
		q(ix, qq.Lo, qq.Hi)
	}
}

func BenchmarkContextOverhead_Plain(b *testing.B) {
	benchCtxOverhead(b, func(ix *crackindex.Index, lo, hi int64) {
		ix.Sum(lo, hi)
	})
}

func BenchmarkContextOverhead_Background(b *testing.B) {
	ctx := context.Background()
	benchCtxOverhead(b, func(ix *crackindex.Index, lo, hi int64) {
		ix.SumCtx(ctx, lo, hi)
	})
}

func BenchmarkContextOverhead_Deadline(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	benchCtxOverhead(b, func(ix *crackindex.Index, lo, hi int64) {
		ix.SumCtx(ctx, lo, hi)
	})
}

// --- Epoch write path: writer latency during group-apply merges ---

// BenchmarkEpochWrite_DuringMerge measures routed-write latency while a
// background goroutine forces group-apply merges continuously — the
// scenario the epoch chain exists for: a merge seals only the current
// epoch and a writer pays an epoch append, never the shard rebuild.
func BenchmarkEpochWrite_DuringMerge(b *testing.B) {
	d := benchData()
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	g := ingest.New(col, ingest.Options{
		ApplyThreshold: 1 << 30, MinShardRows: 1 << 30,
	})
	stop := make(chan struct{})
	var merger sync.WaitGroup
	merger.Add(1)
	go func() {
		defer merger.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for s := 0; s < col.NumShards(); s++ {
				col.ApplyShard(s)
			}
		}
	}()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := g.Insert(context.Background(), int64(benchRows)+next.Add(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	merger.Wait()
}

// --- WAL: a logged write, alone and beside an fsync ---

// BenchmarkWALAppend is the logged-write rung through a segment-file
// sink. nosync is one Append(LogicalWrite) of a Record through a Log
// (a NoSync sink: encode, then frame into the segment's mapping) —
// the format logs kept before the compact one. logged_write is the
// product's logged write: one FileSink.LogWrite, the compact record
// framed straight into the mapping under the sink's lock. during_fsync
// appends Records while another goroutine fsyncs the same sink back to
// back, so its ns/op shows whether an append waits behind an in-flight
// fsync. B/write is the bytes the segments hold per write, frames
// included.
func BenchmarkWALAppend(b *testing.B) {
	run := func(noSync, fsyncing, logged bool) func(b *testing.B) {
		return func(b *testing.B) {
			dir := b.TempDir()
			sink, err := wal.NewFileSink(dir, wal.SinkOptions{NoSync: noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			log := wal.New(sink)
			stop := make(chan struct{})
			var syncer sync.WaitGroup
			halt := sync.OnceFunc(func() {
				close(stop)
				syncer.Wait()
			})
			defer halt()
			if fsyncing {
				syncer.Add(1)
				go func() {
					defer syncer.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := log.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			rec := wal.Record{Kind: wal.LogicalWrite, Object: "sharded", B: 7}
			b.ReportAllocs()
			b.ResetTimer()
			if logged {
				for i := 0; i < b.N; i++ {
					if err := sink.LogWrite(int64(i%benchRows), 7, i&1 == 1); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for i := 0; i < b.N; i++ {
					rec.A = int64(i)
					if _, err := log.Append(rec); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			halt()
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(dirSize(b, dir))/float64(b.N), "B/write")
		}
	}
	b.Run("nosync", run(true, false, false))
	b.Run("logged_write", run(true, false, true))
	b.Run("during_fsync", run(false, true, false))
}

// dirSize returns the total size of the files in dir.
func dirSize(b *testing.B, dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// --- Observability overhead: none vs disabled tracing vs enabled ---

// benchObsQueries measures steady-state query cost on a fully refined
// sharded column (refinement excluded from the timed loop, so the
// fixed per-query cost — and any observability overhead on it —
// dominates). Three variants isolate the two costs:
//
//	Off       no observer at all: the pre-instrumentation baseline
//	Disabled  observer attached, tracing off — the default facade
//	          state: the always-on histograms record (a handful of
//	          uncontended atomic adds on already-computed values)
//	Enabled   tracing on, every query sampled: adds two clock reads,
//	          the end-to-end histogram, and a flight-recorder write
//
// The CI overhead gate (TestObsOverheadGuard) asserts Disabled stays
// within 5% of Off. Enabled at SampleEvery=1 is the worst case by
// construction (these fully-refined queries run in well under a
// microsecond, so two clock reads are a visible fraction); the
// sampling knob exists precisely to amortize that.
func benchObsQueries(b *testing.B, ob *metrics.Observer) {
	d := benchData()
	qs := benchQuerySet(workload.Sum, 0.001)
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: 77,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
		Obs:   ob,
	})
	ctx := context.Background()
	for _, q := range qs {
		if _, _, err := col.Sum(ctx, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, _, err := col.Sum(ctx, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsOverhead_Off(b *testing.B) {
	benchObsQueries(b, nil)
}

func BenchmarkObsOverhead_Disabled(b *testing.B) {
	benchObsQueries(b, metrics.NewObserver(metrics.ObserverOptions{}))
}

func BenchmarkObsOverhead_Enabled(b *testing.B) {
	benchObsQueries(b, metrics.NewObserver(metrics.ObserverOptions{Tracing: true}))
}
