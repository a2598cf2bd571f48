// Concurrent: adaptive indexing under multi-client load.
//
// Eight clients fire the same deterministic stream of sum queries at
// one column. The example contrasts the paper's two latch
// granularities (column vs piece) and shows the two headline effects
// of §6.3:
//
//  1. total time with piece latches beats column latches (parallelism
//     between cracking and aggregation on different pieces);
//  2. both crack time and latch wait time decay as the workload
//     evolves — concurrency conflicts adapt to the workload. (With
//     piece latches there is little left to decay from: the build lays
//     a fresh column out in pieces of a few thousand rows, so even the
//     first queries rarely meet on a latch and hold it for microseconds.
//     The decay from one column-sized piece is cmd/figures -fig 15.)
//
// Run: go run ./examples/concurrent
package main

import (
	"fmt"
	"time"

	"adaptix"
)

func main() {
	const (
		rows    = 1 << 20
		queries = 512
		clients = 8
	)
	data := adaptix.NewUniqueDataset(rows, 1)
	qs := adaptix.UniformQueries(adaptix.SumQuery, data.Domain, 0.10, 99, queries)

	fmt.Printf("%d rows, %d sum queries (sel 10%%), %d concurrent clients\n\n", rows, queries, clients)

	// WithShards(1) pins the paper's single-latch-domain setting, so
	// the column-vs-piece contrast is undiluted by range partitioning.
	newIndex := func(opts adaptix.CrackOptions) *adaptix.Index {
		ix, err := adaptix.New(data.Values,
			adaptix.WithShards(1), adaptix.WithCrackOptions(opts))
		if err != nil {
			panic(err)
		}
		return ix
	}

	for _, mode := range []struct {
		name string
		opts adaptix.CrackOptions
	}{
		{"column latches", adaptix.CrackOptions{Latching: adaptix.LatchColumn}},
		{"piece latches", adaptix.CrackOptions{Latching: adaptix.LatchPiece}},
	} {
		ix := newIndex(mode.opts)
		run := adaptix.Run(ix, qs, clients)
		ix.Close()
		fmt.Printf("%-15s total %10v  throughput %6.0f q/s  conflicts %5d  wait %10v\n",
			mode.name, run.Elapsed.Round(time.Millisecond), run.Throughput(),
			run.Series.TotalConflicts(), run.Series.TotalWait().Round(time.Millisecond))
	}

	// Per-query decay with piece latches (Figure 15's effect).
	fmt.Println("\nper-query crack and wait time, piece latches (log-spaced samples):")
	ix := newIndex(adaptix.CrackOptions{Latching: adaptix.LatchPiece})
	defer ix.Close()
	run := adaptix.Run(ix, qs, clients)
	fmt.Printf("%8s  %14s  %14s\n", "query", "crack", "wait")
	for i := 1; i <= len(run.Series.Costs); i *= 2 {
		c := run.Series.Costs[i-1]
		fmt.Printf("%8d  %14v  %14v\n", i, c.Refine.Round(time.Microsecond), c.Wait.Round(time.Microsecond))
	}
	q := len(run.Series.Costs) / 4
	var firstW, lastW time.Duration
	for _, c := range run.Series.Costs[:q] {
		firstW += c.Wait
	}
	for _, c := range run.Series.Costs[len(run.Series.Costs)-q:] {
		lastW += c.Wait
	}
	fmt.Printf("\nwait time, first quarter: %v   last quarter: %v  (pieces start small and only shrink)\n",
		firstW.Round(time.Microsecond), lastW.Round(time.Microsecond))
}
