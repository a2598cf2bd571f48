// Command crackviz walks through the three adaptive-indexing methods
// on the paper's running example — the 31-letter array
// "hbnecoyulzqutgjwvdokimreapxafsi" queried for [d,i] and then [f,m] —
// reproducing the states drawn in Figures 2 (database cracking),
// 3 (adaptive merging), and 4 (hybrid crack-sort).
//
// Usage:
//
//	crackviz [-method crack|merge|hybrid|converge|all]
//
// The extra "converge" mode leaves the letters example for a larger
// column and animates the paper's core claim instead of its figures:
// as random range queries crack the index, the per-query cost (rows
// physically touched) decays while the piece-size distribution
// flattens. It prints one line per query batch with the piece profile
// and a bar of the batch's mean rows touched.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"adaptix/internal/amerge"
	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/hybrid"
	"adaptix/internal/pbtree"
)

// letters is the paper's example data (Figures 2-4).
const letters = "hbnecoyulzqutgjwvdokimreapxafsi"

func toValues(s string) []int64 {
	out := make([]int64, len(s))
	for i, c := range []byte(s) {
		out[i] = int64(c)
	}
	return out
}

func toLetters(vals []int64) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteByte(byte(v))
	}
	return b.String()
}

// render prints vals with '|' separators at the given boundary
// positions.
func render(vals []int64, cuts []int) string {
	cutSet := map[int]bool{}
	for _, c := range cuts {
		cutSet[c] = true
	}
	var b strings.Builder
	for i, v := range vals {
		if cutSet[i] {
			b.WriteByte('|')
		}
		b.WriteByte(byte(v))
	}
	return b.String()
}

func showCracking() {
	fmt.Println("=== Figure 2: database cracking ===")
	vals := toValues(letters)
	fmt.Printf("loaded (unsorted):      %s\n", letters)
	ix := crackindex.New(vals, crackindex.Options{Latching: crackindex.LatchNone})

	// Query 1: where ... between 'd' and 'i'  ->  [d, j)
	n, _ := ix.Count(int64('d'), int64('i')+1)
	fmt.Printf("\nQ1: between 'd' and 'i' -> %d qualifying letters\n", n)
	fmt.Printf("after cracking:         %s\n", renderIndex(ix, vals))

	// Query 2: where ... between 'f' and 'm'  ->  [f, n)
	n, _ = ix.Count(int64('f'), int64('m')+1)
	fmt.Printf("\nQ2: between 'f' and 'm' -> %d qualifying letters\n", n)
	fmt.Printf("after cracking:         %s\n", renderIndex(ix, vals))
	fmt.Printf("boundaries: %s\n\n", boundaryLetters(ix))
}

// renderIndex shows the current physical order and cut positions of a
// cracked column.
func renderIndex(ix *crackindex.Index, _ []int64) string {
	vals := ix.PhysicalValues()
	var cuts []int
	for _, b := range ix.BoundaryPositions() {
		cuts = append(cuts, b.Pos)
	}
	return render(vals, cuts)
}

func boundaryLetters(ix *crackindex.Index) string {
	var parts []string
	for _, b := range ix.Boundaries() {
		parts = append(parts, fmt.Sprintf("%c", byte(b)))
	}
	return strings.Join(parts, ",")
}

func showMerging() {
	fmt.Println("=== Figure 3: adaptive merging ===")
	vals := toValues(letters)
	ix := amerge.New(vals, amerge.Options{RunSize: 8})
	fmt.Printf("loaded:                 %s\n", letters)

	show := func() {
		fmt.Printf("  final: %-16s", toLetters(partValues(ix.Tree(), 0)))
		for r := 1; r <= ix.NumRuns(); r++ {
			fmt.Printf("  run%d: %-9s", r, toLetters(partValues(ix.Tree(), int32(r))))
		}
		fmt.Println()
	}

	// Query 0 creates the sorted runs (first query side effect).
	n, _, _ := ix.Count(context.Background(), int64('d'), int64('i')+1)
	fmt.Printf("\nQ1: between 'd' and 'i' -> %d (runs sorted in memory, range merged out)\n", n)
	show()

	n, _, _ = ix.Count(context.Background(), int64('f'), int64('m')+1)
	fmt.Printf("\nQ2: between 'f' and 'm' -> %d (merged out of runs into final)\n", n)
	show()
	fmt.Println()
}

func partValues(t *pbtree.Tree, part int32) []int64 {
	var out []int64
	t.ScanRange(part, -1<<62, 1<<62, func(e pbtree.Entry) bool {
		out = append(out, e.Key)
		return true
	})
	return out
}

func showHybrid() {
	fmt.Println("=== Figure 4: hybrid crack-sort ===")
	vals := toValues(letters)
	ix := hybrid.New(vals, hybrid.Options{PartitionSize: 8, Layout: cracker.LayoutSplit})
	fmt.Printf("loaded (unsorted partitions): %s\n", letters)

	show := func() {
		fmt.Printf("  final: %-16s", toLetters(ix.FinalValues()))
		for i := 0; i < ix.NumPartitions(); i++ {
			fmt.Printf("  p%d: %-9s", i+1, toLetters(ix.PartitionValues(i)))
		}
		fmt.Println()
	}

	n, _, _ := ix.Count(context.Background(), int64('d'), int64('i')+1)
	fmt.Printf("\nQ1: between 'd' and 'i' -> %d (partitions cracked, range moved to sorted final)\n", n)
	show()

	n, _, _ = ix.Count(context.Background(), int64('f'), int64('m')+1)
	fmt.Printf("\nQ2: between 'f' and 'm' -> %d\n", n)
	show()
	fmt.Println()
}

// showConvergence cracks a 64k-row column with random range queries
// and prints the convergence trajectory: per-batch mean rows touched
// (the paper's per-query cost) alongside the piece-size profile.
func showConvergence() {
	fmt.Println("=== Convergence: per-query cost decay under random ranges ===")
	const (
		n       = 1 << 16
		batches = 10
		perB    = 64
		span    = 1024
	)
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	ix := crackindex.New(vals, crackindex.Options{Latching: crackindex.LatchNone})

	fmt.Printf("%d rows, %d batches of %d queries, range span %d\n\n", n, batches, perB, span)
	fmt.Printf("%7s %8s %8s %10s %8s  %s\n",
		"queries", "pieces", "max%", "entropy", "touched", "mean rows touched per query")
	var first int64
	for b := 0; b < batches; b++ {
		var touched int64
		for q := 0; q < perB; q++ {
			lo := rng.Int63n(n - span)
			_, st := ix.Count(lo, lo+span)
			touched += st.Touched
		}
		mean := touched / perB
		if b == 0 {
			first = mean
		}
		bar := 0
		if first > 0 {
			bar = int(mean * 40 / first)
		}
		pr := ix.Profile()
		fmt.Printf("%7d %8d %7.1f%% %10.2f %8d  %s\n",
			(b+1)*perB, pr.Pieces, 100*pr.MaxPieceFrac, pr.Entropy, mean,
			strings.Repeat("#", bar))
	}
	fmt.Println("\ncost decays toward O(result size); entropy rises as pieces even out")
}

func main() {
	method := flag.String("method", "all", "crack, merge, hybrid, converge, or all")
	flag.Parse()
	switch *method {
	case "crack":
		showCracking()
	case "merge":
		showMerging()
	case "hybrid":
		showHybrid()
	case "converge":
		showConvergence()
	case "all":
		showCracking()
		showMerging()
		showHybrid()
		showConvergence()
	default:
		fmt.Fprintf(os.Stderr, "unknown -method %q\n", *method)
		os.Exit(2)
	}
}
