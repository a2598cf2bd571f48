// Command adaptixd serves one adaptive index over the network: the
// length-prefixed CRC-framed binary protocol (see docs/SERVING.md) on
// -addr with shared-scan query batching and admission control, plus
// the observability endpoint (/metrics, /snapshot, /health, ...) on
// -obs. SIGINT/SIGTERM triggers a graceful drain: stop accepting,
// dispatch pending batches, wait for in-flight requests, final
// durability checkpoint, exit 0.
//
// Usage:
//
//	adaptixd [-addr :7090] [-obs :6060] [-rows 1000000] [-method crack]
//	         [-shards 0] [-dir path] [-window 100us] [-maxinflight 1024]
//	         [-quota 256] [-drain 10s]
//
// With -dir the index is durable (adaptix.Open on the directory,
// creating it with -rows uniform values when fresh, every write logged);
// without it the server fronts an in-memory index seeded with -rows
// values. A durable server acknowledges a wire write once its log record
// has been copied into the log segment's shared mapping, that is, into
// the kernel's page cache, so a SIGKILL loses none of them; a power
// failure loses at most the 511 newest (the log is fsynced every 512
// records, the default ingest ApplyThreshold).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adaptix"
	"adaptix/internal/workload"
)

func main() {
	addr := flag.String("addr", ":7090", "protocol listen address")
	obsAddr := flag.String("obs", ":6060", "observability HTTP listen address (empty: disabled)")
	rows := flag.Int("rows", 1_000_000, "initial rows (uniform unique values) when creating")
	method := flag.String("method", "crack", "indexing method: crack, amerge, hybrid, sort, scan")
	shards := flag.Int("shards", 0, "shard count (0: one per CPU)")
	dir := flag.String("dir", "", "durable store directory (empty: in-memory)")
	seed := flag.Uint64("seed", 42, "seed for the generated initial values")
	window := flag.Duration("window", 0, "batching cap: longest a query waits behind its shard's running batch (0: default 100us; negative: batching disabled)")
	maxInFlight := flag.Int("maxinflight", 0, "global in-flight request budget (0: default)")
	quota := flag.Int("quota", 0, "per-connection in-flight quota (0: default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
	flag.Parse()

	if err := run(*addr, *obsAddr, *dir, *method, *rows, *shards, *seed,
		*window, *maxInFlight, *quota, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "adaptixd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, obsAddr, dir, method string, rows, shards int, seed uint64,
	window time.Duration, maxInFlight, quota int, drain time.Duration) error {
	var m adaptix.Method
	switch method {
	case "crack":
		m = adaptix.Crack
	case "amerge":
		m = adaptix.AMerge
	case "hybrid":
		m = adaptix.Hybrid
	case "sort":
		m = adaptix.Sort
	case "scan":
		m = adaptix.Scan
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	opts := []adaptix.Option{adaptix.WithMethod(m)}
	if shards > 0 {
		opts = append(opts, adaptix.WithShards(shards))
	}

	values := workload.NewUniqueUniform(rows, seed).Values
	var ix *adaptix.Index
	var err error
	if dir != "" {
		ix, err = adaptix.Open(dir, append(opts, adaptix.WithValues(values), adaptix.WithLogWrites())...)
	} else {
		ix, err = adaptix.New(values, opts...)
	}
	if err != nil {
		return err
	}
	defer ix.Close()

	srv, err := ix.ServeAddr(addr, adaptix.ServeOptions{
		Window:      window,
		MaxInFlight: maxInFlight,
		ConnQuota:   quota,
	})
	if err != nil {
		return err
	}
	fmt.Printf("adaptixd: serving %s (%d rows, %d shards) on %s\n",
		m, ix.Rows(), ix.NumShards(), srv.Addr())

	if obsAddr != "" {
		go func() {
			if err := http.ListenAndServe(obsAddr, ix.Observe()); err != nil {
				fmt.Fprintf(os.Stderr, "adaptixd: obs endpoint: %v\n", err)
			}
		}()
		fmt.Printf("adaptixd: observability on %s\n", obsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("adaptixd: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Printf("adaptixd: drained clean (%d served, %d batches, coalesce rate %.2f)\n",
		st.Served, st.Batches, st.CoalesceRate)
	return nil
}
