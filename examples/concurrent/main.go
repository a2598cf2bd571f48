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
//     evolves — concurrency conflicts adapt to the workload.
//
// The latch mode is a knob of the reproduction's cracked-column index
// (internal/crackindex), which the example drives directly, as the
// paper's experiments do: one column, one latch domain, starting as a
// single unrefined piece. The product handle (adaptix.New) always uses
// piece latches. Every run's answers are checked; a wrong one exits
// non-zero.
//
// Run: go run ./examples/concurrent
package main

import (
	"fmt"
	"os"
	"time"

	"adaptix"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/harness"
)

func main() {
	const (
		rows    = 1 << 20
		queries = 512
		clients = 8
	)
	data := adaptix.NewUniqueDataset(rows, 1)
	qs := adaptix.UniformQueries(adaptix.SumQuery, data.Domain, 0.10, 99, queries)
	var want int64
	for _, q := range qs {
		want += (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2
	}

	fmt.Printf("%d rows, %d sum queries (sel 10%%), %d concurrent clients\n\n", rows, queries, clients)

	run := func(mode crackindex.LatchMode) *harness.Run {
		ix := crackindex.New(data.Values, crackindex.Options{Latching: mode})
		run := harness.Execute(engine.Named(engine.SourceFromIndex(ix), mode.String()), qs, clients)
		if run.Checksum != want {
			fmt.Printf("WRONG: %s latches: checksum %d, want %d\n", mode, run.Checksum, want)
			os.Exit(1)
		}
		return run
	}

	for _, mode := range []crackindex.LatchMode{crackindex.LatchColumn, crackindex.LatchPiece} {
		run := run(mode)
		fmt.Printf("%-15s total %10v  throughput %6.0f q/s  conflicts %5d  wait %10v\n",
			mode.String()+" latches", run.Elapsed.Round(time.Millisecond), run.Throughput(),
			run.Series.TotalConflicts(), run.Series.TotalWait().Round(time.Millisecond))
	}

	// Per-query decay with piece latches (Figure 15's effect).
	fmt.Println("\nper-query crack and wait time, piece latches (log-spaced samples):")
	r := run(crackindex.LatchPiece)
	fmt.Printf("%8s  %14s  %14s\n", "query", "crack", "wait")
	for i := 1; i <= len(r.Series.Costs); i *= 2 {
		c := r.Series.Costs[i-1]
		fmt.Printf("%8d  %14v  %14v\n", i, c.Refine.Round(time.Microsecond), c.Wait.Round(time.Microsecond))
	}
	q := len(r.Series.Costs) / 4
	var firstW, lastW time.Duration
	for _, c := range r.Series.Costs[:q] {
		firstW += c.Wait
	}
	for _, c := range r.Series.Costs[len(r.Series.Costs)-q:] {
		lastW += c.Wait
	}
	fmt.Printf("\nwait time, first quarter: %v   last quarter: %v\n",
		firstW.Round(time.Microsecond), lastW.Round(time.Microsecond))
	fmt.Println("all answers match the closed-form sums")
}
