// Sharded parallel adaptive indexing: multi-core scaling.
//
// The paper's concurrency control lets many clients refine ONE cracked
// column safely, but that column is still a single latch domain. With
// the unified API, WithShards(P) range-partitions the column into P
// independently-latched shards (internal/shard); this example drives
// the same concurrent workload at increasing shard counts: total time
// drops as shards recruit more cores, while every configuration
// returns the identical checksum.
//
// Run: go run ./examples/sharded
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"adaptix"
)

func main() {
	const (
		n       = 1 << 21
		queries = 2048
		clients = 16
	)
	data := adaptix.NewUniqueDataset(n, 42)
	qs := adaptix.UniformQueries(adaptix.SumQuery, data.Domain, 0.001, 7, queries)

	fmt.Printf("== sharded cracking: %d sum queries, %d clients, %d rows, GOMAXPROCS=%d ==\n",
		queries, clients, n, runtime.GOMAXPROCS(0))

	var baseline int64
	var last *adaptix.Index
	for _, p := range []int{1, 2, 4, 8} {
		ix, err := adaptix.New(data.Values, adaptix.WithShards(p), adaptix.WithSeed(5))
		if err != nil {
			panic(err)
		}
		run := adaptix.Run(ix, qs, clients)
		mark := " "
		if p == 1 {
			baseline = run.Checksum
		} else if run.Checksum == baseline {
			mark = "="
		}
		fmt.Printf("sharded P=%-4d %10v   %8.0f q/s   checksum %d %s\n",
			p, run.Elapsed.Round(time.Millisecond), run.Throughput(), run.Checksum, mark)
		if run.Checksum != baseline {
			fmt.Println("WRONG: the checksum differs from the P=1 baseline")
			os.Exit(1)
		}
		if last != nil {
			last.Close()
		}
		last = ix
	}
	defer last.Close()

	fmt.Println("\n== per-shard refinement state after the P=8 run ==")
	fmt.Printf("%-6s %12s %8s %8s %8s %10s %6s\n",
		"shard", "range lo", "rows", "pieces", "cracks", "conflicts", "depth")
	for _, st := range last.Stats().Shards {
		lo := "-inf"
		if st.Shard > 0 {
			lo = fmt.Sprint(st.LoVal)
		}
		fmt.Printf("%-6d %12s %8d %8d %8d %10d %6d\n",
			st.Shard, lo, st.Rows, st.Pieces, st.Cracks, st.Conflicts, st.Depth)
	}
	if err := last.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("\nall shard invariants hold; '=' marks checksums equal to the P=1 baseline")
}
