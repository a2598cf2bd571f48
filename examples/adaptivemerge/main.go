// Adaptivemerge: adaptive merging and hybrid crack-sort convergence.
//
// Compares the three adaptive methods' life cycles on the same query
// stream through the ONE unified handle — only WithMethod changes:
// database cracking converges lazily; adaptive merging pays
// run-sorting up front and converges fast; the hybrid splits the
// difference. Then shows the structural WAL on the reproduction's
// adaptive-merging index (internal/amerge), driven directly with a log
// and a transaction manager: merge steps log tiny structural records,
// never index contents, and run as instantly committed system
// transactions. Every answer is checked; a wrong one exits non-zero.
//
// Run: go run ./examples/adaptivemerge
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"adaptix"
	"adaptix/internal/amerge"
	"adaptix/internal/txn"
	"adaptix/internal/wal"
)

func main() {
	const rows = 1 << 20
	ctx := context.Background()
	data := adaptix.NewUniqueDataset(rows, 5)
	qs := adaptix.UniformQueries(adaptix.SumQuery, data.Domain, 0.01, 3, 64)
	check := func(name string, q adaptix.Query, got int64) {
		if want := (q.Lo + q.Hi - 1) * (q.Hi - q.Lo) / 2; got != want {
			fmt.Printf("WRONG: %s sum[%d,%d) = %d, want %d\n", name, q.Lo, q.Hi, got, want)
			os.Exit(1)
		}
	}

	methods := []adaptix.Method{adaptix.Crack, adaptix.AMerge, adaptix.Hybrid}
	indexes := make([]*adaptix.Index, len(methods))
	for i, m := range methods {
		ix, err := adaptix.New(data.Values, adaptix.WithShards(1), adaptix.WithMethod(m))
		if err != nil {
			panic(err)
		}
		defer ix.Close()
		indexes[i] = ix
	}

	fmt.Printf("%-8s %12s %12s %12s\n", "query", methods[0], methods[1], methods[2])
	for i, q := range qs {
		var times [3]time.Duration
		for e, ix := range indexes {
			start := time.Now()
			res, err := ix.Sum(ctx, q.Lo, q.Hi)
			if err != nil {
				panic(err)
			}
			times[e] = time.Since(start)
			check(methods[e].String(), q, res.Value)
		}
		if i < 4 || (i+1)%16 == 0 {
			fmt.Printf("%-8d %12v %12v %12v\n", i+1,
				times[0].Round(time.Microsecond),
				times[1].Round(time.Microsecond),
				times[2].Round(time.Microsecond))
		}
	}

	log := wal.New(nil)
	tm := txn.NewManager()
	logged := amerge.New(data.Values, amerge.Options{Log: log, TxnMgr: tm})
	for _, q := range qs {
		sum, _, err := logged.Sum(ctx, q.Lo, q.Hi)
		if err != nil {
			panic(err)
		}
		check("logged amerge", q, sum)
	}
	started, finished := tm.Counts()
	fmt.Printf("\nsystem transactions: %d started, %d instantly committed\n", started, finished)
	fmt.Printf("structural WAL: %d records (runs + merge steps), no index contents logged:\n", log.Len())
	for _, r := range log.Records()[:5] {
		fmt.Printf("  lsn=%-3d %-12s %s A=%d B=%d C=%d\n", r.LSN, r.Kind, r.Object, r.A, r.B, r.C)
	}
	fmt.Println("  ...")
}
