// Quickstart: adaptive indexing in 60 seconds, one handle.
//
// Loads a column of 1M unique integers behind the unified
// adaptix.Index API, runs a handful of range queries, and shows how
// the index refines itself as a side effect: per-query response time
// drops while the number of index pieces grows. Then writes through
// the same handle (no separate write path to wire up) and finishes
// with the Figure 6 column-store plan (select on A, fetch B,
// aggregate) on the reproduction's column store (internal/column),
// which sits beside the index rather than behind it. Every answer is
// checked; a wrong one exits non-zero.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"adaptix"
	"adaptix/internal/column"
	"adaptix/internal/crackindex"
)

// check exits non-zero when an answer differs from the expected one.
func check(what string, got, want int64) {
	if got != want {
		fmt.Printf("WRONG: %s = %d, want %d\n", what, got, want)
		os.Exit(1)
	}
}

func main() {
	const n = 1 << 20
	ctx := context.Background()
	data := adaptix.NewUniqueDataset(n, 42)

	// One handle: database cracking with the paper's piece-latch
	// concurrency control, safe for concurrent use. A single shard
	// keeps this walk-through in the paper's original single-domain
	// setting; drop WithShards for one shard per CPU.
	ix, err := adaptix.New(data.Values, adaptix.WithShards(1))
	if err != nil {
		panic(err)
	}
	defer ix.Close()

	fmt.Println("== database cracking: queries refine the index as a side effect ==")
	queries := adaptix.UniformQueries(adaptix.SumQuery, data.Domain, 0.05, 7, 12)
	for i, q := range queries {
		start := time.Now()
		res, err := ix.Sum(ctx, q.Lo, q.Hi)
		if err != nil {
			panic(err)
		}
		check(fmt.Sprintf("sum[%d,%d)", q.Lo, q.Hi), res.Value, (q.Lo+q.Hi-1)*(q.Hi-q.Lo)/2)
		pieces := 0
		for _, st := range ix.Stats().Shards {
			pieces += st.Pieces
		}
		fmt.Printf("q%-2d sum[%7d,%7d) = %14d   %9v  (refine %8v, pieces %d)\n",
			i+1, q.Lo, q.Hi, res.Value, time.Since(start).Round(time.Microsecond),
			res.Refine.Round(time.Microsecond), pieces)
	}
	st := ix.Stats().Shards[0]
	fmt.Printf("\nindex state: %d pieces, %d cracks, %d boundaries, %d conflicts\n",
		st.Pieces, st.Cracks, st.Boundaries, st.Conflicts)

	// The same handle takes writes: routed into differential epochs,
	// visible immediately, merged into the cracker array in the
	// background.
	fmt.Println("\n== writes through the same handle ==")
	for v := int64(n); v < n+1000; v++ {
		if err := ix.Insert(ctx, v); err != nil {
			panic(err)
		}
	}
	if _, err := ix.Delete(ctx, data.Values[0]); err != nil {
		panic(err)
	}
	res, err := ix.Count(ctx, 0, 2*n)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after 1000 inserts and 1 delete: count = %d (want %d)\n", res.Value, n+1000-1)
	check("count after writes", res.Value, n+1000-1)

	// The Figure 6 plan: select sum(B) from R where lo <= A < hi.
	fmt.Println("\n== column-store plan: select sum(B) from R where 100k <= A < 200k ==")
	tab := column.NewTable("R")
	if err := tab.AddColumn("A", data.Values); err != nil {
		panic(err)
	}
	b := adaptix.NewUniqueDataset(n, 43)
	if err := tab.AddColumn("B", b.Values); err != nil {
		panic(err)
	}
	var want int64
	for i, a := range data.Values {
		if a >= 100_000 && a < 200_000 {
			want += b.Values[i]
		}
	}
	ex := column.NewExecutor(tab, crackindex.Options{})
	for run := 1; run <= 3; run++ {
		start := time.Now()
		sum, _, err := ex.SumFetchWhere("B", "A", 100_000, 200_000)
		if err != nil {
			panic(err)
		}
		fmt.Printf("run %d: sum(B) = %d   (%v)\n", run, sum, time.Since(start).Round(time.Microsecond))
		check("sum(B)", sum, want)
	}
	fmt.Println("\nonly column A was indexed (it carried the predicate); B was not:")
	if ixA, ok := ex.Index("A"); ok {
		fmt.Printf("  A: cracker index with %d pieces\n", ixA.NumPieces())
	}
	if _, ok := ex.Index("B"); !ok {
		fmt.Println("  B: no index (never queried with a predicate)")
	}
}
