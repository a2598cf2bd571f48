// Skew: adaptive indexing optimizes only what the workload touches.
//
// A zipf-skewed stream concentrates queries on a hot region of the
// domain. The defining property of adaptive indexing (paper §1): "the
// more often a key range is queried, the more its representation is
// optimized; conversely ... indexes are not optimized in key ranges
// that are not queried." The example measures where the crack
// boundaries land and how hot-range queries get faster than cold ones.
//
// Run: go run ./examples/skew
package main

import (
	"context"
	"fmt"
	"time"

	"adaptix"
	"adaptix/internal/workload"
)

func main() {
	const rows = 1 << 20
	ctx := context.Background()
	data := adaptix.NewUniqueDataset(rows, 21)
	ix, err := adaptix.New(data.Values, adaptix.WithShards(1))
	if err != nil {
		panic(err)
	}
	defer ix.Close()

	// Zipf-skewed queries: bucket 0 of 64 is the hottest.
	gen := workload.NewZipf(workload.Sum, data.Domain, 0.005, 1.0, 7)
	const n = 512
	var hotTime, coldTime time.Duration
	var hotN, coldN int
	for i := 0; i < n; i++ {
		q := gen.Next()
		start := time.Now()
		if _, err := ix.Sum(ctx, q.Lo, q.Hi); err != nil {
			panic(err)
		}
		el := time.Since(start)
		if i < n/2 {
			continue // warm-up half; measure the steady state
		}
		if q.Lo < data.Domain/8 {
			hotTime += el
			hotN++
		} else {
			coldTime += el
			coldN++
		}
	}

	// Where did the boundaries land?
	hotBoundaries, coldBoundaries := 0, 0
	for _, set := range ix.CrackBoundaries() {
		for _, b := range set {
			if b < data.Domain/8 {
				hotBoundaries++
			} else {
				coldBoundaries++
			}
		}
	}
	fmt.Printf("zipf workload over %d rows, %d queries\n\n", rows, n)
	fmt.Printf("crack boundaries in hot 1/8 of domain: %d\n", hotBoundaries)
	fmt.Printf("crack boundaries in cold 7/8 of domain: %d\n", coldBoundaries)
	fmt.Printf("\nhot-region density is %.1fx the cold density\n",
		float64(hotBoundaries)/1.0/(float64(coldBoundaries)/7.0))
	if hotN > 0 && coldN > 0 {
		fmt.Printf("\nsteady-state mean query time: hot %v (%d q), cold %v (%d q)\n",
			(hotTime / time.Duration(hotN)).Round(time.Microsecond), hotN,
			(coldTime / time.Duration(coldN)).Round(time.Microsecond), coldN)
	}
	fmt.Println("\nthe index adapted to the workload: hot ranges are finer and faster.")
}
