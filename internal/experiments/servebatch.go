package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/serve"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// qctx is the uncancellable context the wire drivers use.
var qctx = context.Background()

// ServeBatchingReport is the serving-front batching figure: the same
// crack-method hot-shard workload driven over the wire against a
// server with the batch scheduler enabled vs disabled, plus the
// admission-control fast-reject latency.
type ServeBatchingReport struct {
	// Clients is the connection count of the sweep point (16: the
	// acceptance configuration).
	Clients int
	// QPSBatched and QPSUnbatched are served queries/second with the
	// batch scheduler at its default window vs disabled.
	QPSBatched   float64
	QPSUnbatched float64
	// Speedup is QPSBatched / QPSUnbatched.
	Speedup float64
	// CoalesceRate is the fraction of batched requests answered by a
	// batch-mate's execution (exact-duplicate bounds, executed once).
	CoalesceRate float64
	// BatchP50 and BatchP99 are the batched leg's batch-size quantiles.
	BatchP50, BatchP99 int64
	// RejectP99 is the 99th-percentile round-trip of an over-budget
	// fast reject (the no-queueing-collapse guarantee: must stay
	// far under the served-path latency — acceptance: < 1ms).
	RejectP99 time.Duration
}

// serveLeg runs the hot-shard mix over the wire and returns served
// qps plus the server's final stats. The workload concentrates on one
// hot region: a small pool of distinct bounds (exact duplicates
// across clients) and differential writes into the same region, so
// every query pays the hot shard's epoch chain and piece latches —
// where the paper says contention lives, and what shared-scan
// batching amortizes.
func serveLeg(d *workload.Dataset, cfg Config, window time.Duration, clients, depth, ops int) (float64, serve.Stats) {
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: cfg.Seed,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	g := ingest.New(col, ingest.Options{
		// A high apply threshold keeps differential epochs live in the
		// hot shard, so queries do real per-request work.
		ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
	})
	g.Start()
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := serve.New(serve.Backend{Col: col, Ing: g}, ln, serve.Options{
		Window:      window,
		MaxInFlight: 1 << 16,
		ConnQuota:   1 << 12,
	})
	defer srv.Close()

	// Hot region: the lowest 1/16th of the domain; 8 distinct bounds
	// shared by every client.
	hot := d.Domain / 16
	gen := workload.NewUniform(workload.Count, hot, 0.25, cfg.Seed+7)
	pool := make([]workload.Query, 8)
	for i := range pool {
		pool[i] = gen.Next()
		if i%2 == 1 {
			pool[i].Kind = workload.Sum
		}
	}

	var served atomic.Int64
	var wg sync.WaitGroup
	perWorker := ops / (clients * depth)
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl, err := serve.Dial(srv.Addr().String())
		if err != nil {
			panic(err)
		}
		defer cl.Close()
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				r := workload.NewRNG(cfg.Seed + uint64(c*64+w))
				for i := 0; i < perWorker; i++ {
					// 1-in-8 ops is a write into the hot region, keeping
					// its epoch chain warm; the rest draw from the shared
					// bound pool.
					if r.Intn(8) == 0 {
						if err := cl.Insert(qctx, r.Int64n(hot)); err != nil {
							panic(err)
						}
						served.Add(1)
						continue
					}
					q := pool[r.Intn(len(pool))]
					var err error
					if q.Kind == workload.Count {
						_, err = cl.Count(qctx, q.Lo, q.Hi)
					} else {
						_, err = cl.Sum(qctx, q.Lo, q.Hi)
					}
					if err != nil {
						panic(err)
					}
					served.Add(1)
				}
			}(c, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(served.Load()) / elapsed, srv.Stats()
}

// rejectLatency measures the admission-control fast-reject round trip:
// a budget-1 server with one request parked inside the engine, then n
// sequential over-budget probes — every probe must come back
// StatusOverloaded without queueing behind it.
func rejectLatency(d *workload.Dataset, n int) time.Duration {
	gate := &gatedScan{entered: make(chan struct{}), open: make(chan struct{})}
	col := shard.New(d.Values, shard.Options{Shards: 1, Seed: 1,
		Source: func(vals []int64) engine.AggregateSource {
			gate.Scan = baseline.NewScan(vals)
			return gate
		}})
	g := ingest.New(col, ingest.Options{})
	g.Start()
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := serve.New(serve.Backend{Col: col, Ing: g}, ln, serve.Options{
		MaxInFlight: 1, ConnQuota: 64,
	})
	defer srv.Close()
	cl, err := serve.Dial(srv.Addr().String())
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	// Park one admitted query in the engine so the budget is full.
	parked := make(chan error, 1)
	go func() {
		_, err := cl.Count(qctx, 0, 100)
		parked <- err
	}()
	<-gate.entered

	h := &metrics.Histogram{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r, err := cl.Do(qctx, serve.Request{Op: serve.OpCount, Lo: 0, Hi: 100})
		if err != nil {
			panic(err)
		}
		if r.Status != serve.StatusOverloaded {
			panic(fmt.Sprintf("probe %d: status %s, want overloaded", i, r.Status))
		}
		h.RecordDuration(time.Since(t0))
	}
	close(gate.open)
	if err := <-parked; err != nil {
		panic(err)
	}
	s := h.Snapshot()
	return time.Duration(s.Quantile(0.99))
}

// gatedScan answers like a scan, except that its first Count signals
// entered and then waits for open: a request held inside the engine
// for as long as the caller likes, with no clock involved.
type gatedScan struct {
	*baseline.Scan
	once          sync.Once
	entered, open chan struct{}
}

func (g *gatedScan) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.open
	})
	return g.Scan.Count(ctx, lo, hi)
}

// ServeBatching runs the serving-front figure: batched vs unbatched
// qps at 16 pipelined connections on the crack-method hot-shard
// workload, plus the fast-reject latency. The expectation (the PR's
// acceptance bar) is batched >= 1.5x unbatched and reject p99 < 1ms.
func ServeBatching(cfg Config, w io.Writer) *ServeBatchingReport {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	const clients, depth = 16, 16
	ops := cfg.Queries * clients
	if ops < clients*depth {
		ops = clients * depth
	}

	unbatched, _ := serveLeg(d, cfg, -1, clients, depth, ops)
	batched, bst := serveLeg(d, cfg, 0, clients, depth, ops)
	rep := &ServeBatchingReport{
		Clients:      clients,
		QPSBatched:   batched,
		QPSUnbatched: unbatched,
		CoalesceRate: bst.CoalesceRate,
		BatchP50:     bst.BatchP50,
		BatchP99:     bst.BatchP99,
		RejectP99:    rejectLatency(d, 256),
	}
	if unbatched > 0 {
		rep.Speedup = batched / unbatched
	}
	if w != nil {
		t := &metrics.Table{Header: []string{"leg", "qps", "coalesce", "batch p50", "batch p99"}}
		t.Add("unbatched", fmt.Sprintf("%.0f", rep.QPSUnbatched), "-", "-", "-")
		t.Add("batched", fmt.Sprintf("%.0f", rep.QPSBatched),
			fmt.Sprintf("%.2f", rep.CoalesceRate),
			fmt.Sprint(rep.BatchP50), fmt.Sprint(rep.BatchP99))
		fmt.Fprintf(w, "Serving front: shared-scan batching at %d pipelined connections (%d rows, %d ops/leg)\n%s",
			clients, cfg.Rows, ops, t)
		fmt.Fprintf(w, "speedup %.2fx; over-budget fast-reject p99 %s\n\n",
			rep.Speedup, metrics.FormatDuration(rep.RejectP99))
	}
	return rep
}
