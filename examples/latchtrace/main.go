// Latchtrace: reproduce the Figure 8 latch timelines.
//
// Three queries Q1/Q2/Q3 — the paper's
//
//	Q1: SELECT SUM(A) FROM R WHERE A >= 70 AND A < 90
//	Q2: SELECT SUM(A) FROM R WHERE A >= 15 AND A < 30
//	Q3: SELECT SUM(A) FROM R WHERE A >= 40 AND A < 55
//
// arrive concurrently on a 100-value column. With COLUMN latches the
// whole column is write-latched per crack and read-latched per sum, so
// the queries serialize around cracking. With PIECE latches, after the
// first cracks create pieces, the queries crack and aggregate
// different pieces in parallel. The latch mode is a knob of the
// reproduction's cracked-column index (internal/crackindex), which this
// half drives directly: its trace hook records every latch event, and
// the query labels ride the context (crackindex.WithTag).
//
// The second half drives a bigger concurrent workload through the
// product handle with tracing enabled (adaptix.WithObservability) and reads the same story back
// from the observability layer instead of a trace hook: the Figure 15
// wait-vs-refine breakdown from the live histograms (early quarter of
// the run vs late quarter), and the flight recorder's tail of sampled
// query spans and stall events.
//
// Run: go run ./examples/latchtrace
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"adaptix"
	"adaptix/internal/crackindex"
)

func run(mode crackindex.LatchMode, label string) {
	data := adaptix.NewUniqueDataset(100, 3)

	var mu sync.Mutex
	var events []crackindex.TraceEvent
	ix := crackindex.New(data.Values, crackindex.Options{
		Latching: mode,
		Tracer: func(e crackindex.TraceEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})

	queries := []struct {
		tag    string
		lo, hi int64
	}{
		{"Q1", 70, 90},
		{"Q2", 15, 30},
		{"Q3", 40, 55},
	}
	var wg sync.WaitGroup
	results := make([]int64, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, tag string, lo, hi int64) {
			defer wg.Done()
			ctx := crackindex.WithTag(context.Background(), tag)
			sum, _, err := ix.SumCtx(ctx, lo, hi)
			if err != nil {
				panic(err)
			}
			results[i] = sum
		}(i, q.tag, q.lo, q.hi)
	}
	wg.Wait()

	fmt.Printf("=== %s ===\n", label)
	wrong := false
	for i, q := range queries {
		want := (q.lo + q.hi - 1) * (q.hi - q.lo) / 2
		status := "ok"
		if results[i] != want {
			status = "WRONG"
			wrong = true
		}
		fmt.Printf("%s: sum[%d,%d) = %d (%s)\n", q.tag, q.lo, q.hi, results[i], status)
	}
	fmt.Printf("latch timeline (%d events):\n", len(events))
	for _, e := range events {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println()
	if wrong {
		os.Exit(1)
	}
}

// runObserved replays the same story at workload scale through the
// observability layer: 8 clients hammer a 256k-row column, and the
// wait-vs-refine split of Figure 15 is read back from the live
// histograms at milestones instead of from a per-event trace hook.
func runObserved() {
	const (
		rows    = 1 << 18
		queries = 2048
		clients = 8
	)
	data := adaptix.NewUniqueDataset(rows, 3)
	ix, err := adaptix.New(data.Values,
		adaptix.WithShards(1), // one latch domain: maximum contention, as in Figure 15
		adaptix.WithObservability(adaptix.ObsOptions{
			SampleEvery:    4,
			StallThreshold: 100 * time.Microsecond,
		}),
	)
	if err != nil {
		panic(err)
	}
	defer ix.Close()

	fmt.Println("=== observed workload (Figure 15 from live histograms) ===")
	qs := adaptix.UniformQueries(adaptix.SumQuery, rows, 0.50, 11, queries)
	milestone := func(label string) {
		o := ix.Stats().Obs
		fmt.Printf("  %-14s queries=%-5d  wait p99 %-12v crack p99 %-12v critical p99 %v\n",
			label, o.Queries, o.QueryWaitP99, o.QueryCrackP99, o.CriticalPathP99)
	}
	for _, part := range []struct {
		label    string
		from, to int
	}{
		{"first quarter", 0, queries / 4},
		{"full run", queries / 4, queries},
	} {
		chunk := qs[part.from:part.to]
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx := context.Background()
				for i := c; i < len(chunk); i += clients {
					if _, err := ix.Sum(ctx, chunk[i].Lo, chunk[i].Hi); err != nil {
						panic(err)
					}
				}
			}(c)
		}
		wg.Wait()
		milestone(part.label)
	}
	fmt.Println("  (wait and crack decay as the index refines: a full-run wait p99 of 0s")
	fmt.Println("   means fewer than 1% of ALL queries ever blocked once the index warmed;")
	fmt.Println("   the quantiles are cumulative, so early cracking dominates the tails)")

	evs := ix.FlightDump()
	const tail = 8
	start := 0
	if len(evs) > tail {
		start = len(evs) - tail
	}
	fmt.Printf("  flight recorder tail (%d of %d events):\n", len(evs)-start, len(evs))
	for _, e := range evs[start:] {
		fmt.Printf("    %s  %-12s dur=%-12v\n",
			e.When.Format("15:04:05.000000"), e.KindName, e.Dur)
	}
	fmt.Println()
}

func main() {
	run(crackindex.LatchColumn, "column latches (Figure 8, top)")
	run(crackindex.LatchPiece, "piece latches (Figure 8, middle)")
	runObserved()
}
