// Command adaptixload drives load at an adaptixd server and reports
// throughput and latency quantiles. Two loop disciplines:
//
//   - closed loop (default): -conns workers each keep exactly one
//     request outstanding, back to back, for -n total operations —
//     measures peak sustainable qps;
//   - open loop (-rate > 0): operations are dispatched on a fixed
//     schedule for -dur regardless of completions — measures latency
//     under a fixed offered load, the discipline that exposes
//     queueing collapse (and admission-control rejects) honestly.
//
// The query mix draws bounds from a -pool of distinct hot ranges
// (small pools produce exact-duplicate bounds that the server's batch
// scheduler coalesces), mixed with -write fraction of inserts/deletes.
//
// Usage:
//
//	adaptixload [-addr localhost:7090] [-conns 16] [-n 100000]
//	            [-rate 0] [-dur 10s] [-write 0.1] [-pool 16]
//	            [-sel 0.01] [-ttl 0] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/metrics"
	"adaptix/internal/serve"
	"adaptix/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:7090", "server address")
	conns := flag.Int("conns", 16, "client connections (closed loop: one outstanding request each)")
	n := flag.Int("n", 100_000, "total operations (closed loop)")
	rate := flag.Float64("rate", 0, "offered ops/sec (>0 switches to open loop)")
	dur := flag.Duration("dur", 10*time.Second, "run duration (open loop)")
	write := flag.Float64("write", 0.1, "write fraction of the mix")
	pool := flag.Int("pool", 16, "distinct query-bound pool size (small: high duplicate rate)")
	sel := flag.Float64("sel", 0.01, "query selectivity as a fraction of the key domain")
	ttl := flag.Duration("ttl", 0, "per-request TTL (0: none)")
	seed := flag.Uint64("seed", 1, "workload seed")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	rep, err := run(*addr, *conns, *n, *rate, *dur, *write, *pool, *sel, *ttl, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptixload: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		json.NewEncoder(os.Stdout).Encode(rep)
		return
	}
	fmt.Print(rep)
}

// Report is the load run's result document.
type Report struct {
	// Loop names the discipline: "closed" or "open".
	Loop string `json:"loop"`
	// Ops, Errors, and Rejected count completed operations, transport
	// errors, and admission rejects (StatusOverloaded); Reads of the Ops
	// were queries (Count/Sum), the rest writes.
	Ops      int64 `json:"ops"`
	Reads    int64 `json:"reads"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	// Elapsed is the wall-clock run time in seconds; QPS is
	// Ops/Elapsed (successful completions only).
	Elapsed float64 `json:"elapsed_s"`
	QPS     float64 `json:"qps"`
	// P50/P90/P99/Max are completion-latency quantiles in microseconds
	// (successful operations only).
	P50 int64 `json:"p50_us"`
	P90 int64 `json:"p90_us"`
	P99 int64 `json:"p99_us"`
	Max int64 `json:"max_us"`
	// RejectP99 is the 99th-percentile latency of rejected requests in
	// microseconds — fast-reject admission control keeps this far below
	// the served-path latency.
	RejectP99 int64 `json:"reject_p99_us"`
}

// String renders the human-readable report.
func (r Report) String() string {
	s := fmt.Sprintf("%s loop: %d ops (%d reads) in %.2fs = %.0f qps (%d rejected, %d errors)\n",
		r.Loop, r.Ops, r.Reads, r.Elapsed, r.QPS, r.Rejected, r.Errors)
	s += fmt.Sprintf("latency: p50 %dus  p90 %dus  p99 %dus  max %dus\n", r.P50, r.P90, r.P99, r.Max)
	if r.Rejected > 0 {
		s += fmt.Sprintf("rejects: p99 %dus\n", r.RejectP99)
	}
	return s
}

// mix issues one operation drawn from the deterministic mix and
// reports its outcome.
type mix struct {
	c     *serve.Client
	r     *workload.RNG
	pool  []workload.Query
	dom   int64
	write float64
	ttl   time.Duration
}

// sharedPool builds the bound pool every connection draws from: the
// pool seed is the BASE seed, not the per-connection one, so
// concurrent connections issue exact-duplicate bounds — the case the
// server's batch scheduler coalesces.
func sharedPool(dom int64, pool int, sel float64, seed uint64) []workload.Query {
	gen := workload.NewUniform(workload.Count, dom, sel, seed)
	qs := make([]workload.Query, pool)
	for i := range qs {
		qs[i] = gen.Next()
		if i%2 == 1 {
			qs[i].Kind = workload.Sum
		}
	}
	return qs
}

func newMix(c *serve.Client, qs []workload.Query, dom int64, write float64, ttl time.Duration, seed uint64) *mix {
	return &mix{
		c: c, r: workload.NewRNG(seed + 99), pool: qs,
		dom: dom, write: write, ttl: ttl,
	}
}

// step runs one operation; it reports whether it was a read, whether it
// was rejected, and any transport error.
func (m *mix) step() (read, rejected bool, err error) {
	ctx := context.Background()
	if m.ttl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.ttl)
		defer cancel()
	}
	if float64(m.r.Intn(1000))/1000 < m.write {
		if m.r.Intn(2) == 0 {
			err = m.c.Insert(ctx, m.r.Int64n(m.dom))
		} else {
			_, err = m.c.Delete(ctx, m.r.Int64n(m.dom))
		}
		rejected, err = classify(err)
		return false, rejected, err
	}
	q := m.pool[m.r.Intn(len(m.pool))]
	if q.Kind == workload.Count {
		_, err = m.c.Count(ctx, q.Lo, q.Hi)
	} else {
		_, err = m.c.Sum(ctx, q.Lo, q.Hi)
	}
	rejected, err = classify(err)
	return true, rejected, err
}

func classify(err error) (rejected bool, fatal error) {
	if err == nil {
		return false, nil
	}
	if err == serve.ErrOverloaded {
		return true, nil
	}
	return false, err
}

func run(addr string, conns, n int, rate float64, dur time.Duration,
	write float64, pool int, sel float64, ttl time.Duration, seed uint64) (Report, error) {
	probe, err := serve.Dial(addr)
	if err != nil {
		return Report{}, err
	}
	rows, _, err := probe.Stats(context.Background())
	probe.Close()
	if err != nil {
		return Report{}, err
	}
	dom := rows
	if dom < 2 {
		dom = 2
	}

	lat := &metrics.Histogram{}
	rej := &metrics.Histogram{}
	var ops, reads, rejected, errs atomic.Int64

	qs := sharedPool(dom, pool, sel, seed)
	mixes := make([]*mix, conns)
	for i := range mixes {
		c, err := serve.Dial(addr)
		if err != nil {
			return Report{}, err
		}
		defer c.Close()
		mixes[i] = newMix(c, qs, dom, write, ttl, seed+uint64(i))
	}

	record := func(m *mix) {
		t0 := time.Now()
		read, r, err := m.step()
		d := time.Since(t0).Microseconds()
		switch {
		case err != nil:
			errs.Add(1)
		case r:
			rejected.Add(1)
			rej.Record(d)
		default:
			ops.Add(1)
			if read {
				reads.Add(1)
			}
			lat.Record(d)
		}
	}

	start := time.Now()
	loop := "closed"
	if rate > 0 {
		loop = "open"
		// Open loop: dispatch on schedule round-robin over the
		// connections; each dispatch runs on its own goroutine so a
		// slow completion never holds back the arrival process.
		var wg sync.WaitGroup
		interval := time.Duration(float64(time.Second) / rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		deadline := time.After(dur)
		i := 0
	openLoop:
		for {
			select {
			case <-deadline:
				break openLoop
			case <-tick.C:
				m := mixes[i%conns]
				i++
				wg.Add(1)
				go func() {
					defer wg.Done()
					record(m)
				}()
			}
		}
		wg.Wait()
	} else {
		// Closed loop: conns workers, one outstanding request each.
		var wg sync.WaitGroup
		per := n / conns
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(m *mix) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					record(m)
				}
			}(mixes[i])
		}
		wg.Wait()
	}
	elapsed := time.Since(start).Seconds()

	ls := lat.Snapshot()
	rs := rej.Snapshot()
	rep := Report{
		Loop:      loop,
		Ops:       ops.Load(),
		Reads:     reads.Load(),
		Errors:    errs.Load(),
		Rejected:  rejected.Load(),
		Elapsed:   elapsed,
		P50:       ls.Quantile(0.50),
		P90:       ls.Quantile(0.90),
		P99:       ls.Quantile(0.99),
		Max:       ls.Quantile(1.0),
		RejectP99: rs.Quantile(0.99),
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Ops) / elapsed
	}
	return rep, nil
}
