package main

import (
	"sync"

	"adaptix"
	"adaptix/internal/workload"
)

// A warm workload draws its timed queries from a fixed pool whose
// bounds the set-up has already cracked, so the timed phase is a true
// steady state: every bound is found, nothing is partitioned, and the
// segments are interchangeable. (Fresh random bounds would keep
// cracking ever-smaller pieces and the phase would drift.)
const (
	pointPool = 1 << 16 // 64 Ki narrow queries -> 128 Ki boundaries, pieces of ~32 rows
	scanPool  = 256     // wide queries -> pieces of ~8 Ki rows, so the kernel, not the piece walk, does the work
)

func pointQueries(cfg *runConfig, domain int64) []workload.Query {
	n := pointPool
	if cfg.quick {
		n = 1 << 12
	}
	return alternating(workload.NewUniform(workload.Count, domain, 0.00001, cfg.seed+2), n)
}

func runWarmPoint(cfg *runConfig) (*outcome, error) {
	return runWarm(cfg, pointQueries(cfg, int64(cfg.rows)), 8<<20)
}

func runWarmScan(cfg *runConfig) (*outcome, error) {
	// 20% < 1/shards, so no shard is ever fully covered and answered
	// from its precomputed aggregate.
	pool := workload.Fixed(workload.NewUniform(workload.Sum, int64(cfg.rows), 0.20, cfg.seed+3), scanPool)
	return runWarm(cfg, pool, 1<<16)
}

// converge runs every pool query once, split over the clients, so all
// their bounds exist as crack boundaries afterwards.
func converge(cfg *runConfig, ix *adaptix.Index, pool []workload.Query) error {
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for c := range cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(pool); i += cfg.clients {
				if _, err := runQuery(ix, pool[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runWarm(cfg *runConfig, pool []workload.Query, capHint int) (*outcome, error) {
	out := newOutcome()
	fx, err := setUp(cfg, out,
		func(values []int64) (*adaptix.Index, error) { return adaptix.New(values, adaptix.WithShards(shards)) },
		func(ix *adaptix.Index) error { return converge(cfg, ix, pool) }, nil)
	if err != nil {
		return nil, err
	}
	defer fx.ix.Close()

	// Each client walks the (randomly ordered) pool from its own offset.
	at := func(c, i int) int { return (c*len(pool)/cfg.clients + i) % len(pool) }
	logs, err := timedPhase(cfg, out, fx.ix, capHint, func(c, i int) (opKind, int64, adaptix.Result, error) {
		q := pool[at(c, i)]
		res, err := runQuery(fx.ix, q)
		return queryKind(q), res.Value, res, err
	})
	if err != nil {
		return nil, err
	}

	orc := newOracle(fx.ds.Values)
	want := orc.answers(pool)
	verifyLogs(out, logs, func(c, i int) int64 { return want[at(c, i)] })

	// Bytes the reads aggregated per second: rows in range x 8, for
	// comparison with the kernel rungs.
	poolRows := make([]int64, len(pool))
	for i, q := range pool {
		poolRows[i] = orc.count(q.Lo, q.Hi)
	}
	var rows int64
	for c, lg := range logs {
		for i := range lg.ans {
			rows += poolRows[at(c, i)]
		}
	}
	out.metrics["kernel.workload_gbps"] = float64(rows) * 8 / 1e9 / cfg.seconds
	logs, orc, want = nil, nil, nil
	fx.heapPerRow(out)
	return out, nil
}
