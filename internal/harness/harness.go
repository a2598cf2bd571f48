// Package harness drives engines with concurrent client streams and
// collects the per-query measurements the paper's experiments plot.
//
// The set-up mirrors §6.2: a fixed sequence of queries is divided
// among N clients that start at the same time; "for every run we use
// exactly the same queries and in the same order". Each client is a
// goroutine issuing its share of the sequence back-to-back with no
// think time.
package harness

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/workload"
)

// QueryCost is one query's row of a run: when it ran, who ran it, how
// long it took end to end, and the engine's own cost record for it —
// latch wait, refinement, fan-out critical path, conflicts, epoch depth,
// rows touched — exactly as the engine returned it.
type QueryCost struct {
	// Seq is the global sequence number of the query (arrival order
	// across all clients, 0-based).
	Seq int
	// Client identifies the submitting client (0-based).
	Client int
	// Response is the end-to-end latency of the query.
	Response time.Duration
	crackindex.OpStats
}

// Series is an ordered collection of per-query costs.
type Series struct {
	Costs []QueryCost
}

// Total returns the sum of response times (NOT wall-clock; use the
// harness elapsed time for concurrent runs).
func (s *Series) Total() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Response
	}
	return t
}

// RunningAverage returns the running average response time after each
// query, i.e. the series of Figure 11(b).
func (s *Series) RunningAverage() []time.Duration {
	out := make([]time.Duration, len(s.Costs))
	var sum time.Duration
	for i, c := range s.Costs {
		sum += c.Response
		out[i] = sum / time.Duration(i+1)
	}
	return out
}

// SortBySeq orders the costs by global sequence number.
func (s *Series) SortBySeq() {
	sort.Slice(s.Costs, func(i, j int) bool { return s.Costs[i].Seq < s.Costs[j].Seq })
}

// TotalWait returns the summed latch wait time across all queries.
func (s *Series) TotalWait() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Wait
	}
	return t
}

// TotalRefine returns the summed index-refinement time across all
// queries.
func (s *Series) TotalRefine() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Refine
	}
	return t
}

// TotalCritical returns the summed fan-out critical-path time across
// all queries (the latency-oriented counterpart of TotalWait +
// TotalRefine, which measure total work).
func (s *Series) TotalCritical() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Critical
	}
	return t
}

// TotalConflicts returns the summed conflict count.
func (s *Series) TotalConflicts() int64 {
	var n int64
	for _, c := range s.Costs {
		n += c.Conflicts
	}
	return n
}

// Run is the outcome of one experiment run.
type Run struct {
	// Engine is the engine name.
	Engine string
	// Clients is the number of concurrent clients used.
	Clients int
	// Elapsed is the wall-clock time until the last client finished
	// (the paper's "time perceived by the last client to receive all
	// answers for all its queries").
	Elapsed time.Duration
	// Series holds one cost record per query, ordered by completion.
	Series Series
	// Checksum folds all query results together, letting callers
	// verify that every engine computed identical answers.
	Checksum int64
}

// Throughput returns queries per second over the whole run.
func (r *Run) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(len(r.Series.Costs)) / r.Elapsed.Seconds()
}

// Execute runs the query sequence against e with the given number of
// concurrent clients. The sequence is split into contiguous
// per-client streams (client c fires queries [c*k, (c+1)*k)). Queries
// beyond clients*k (remainder) go to the last client.
//
// The harness drives engines with context.Background() — the
// uncancellable fast path — so measurement runs never abandon queries;
// an engine error (impossible under Background by the Engine contract)
// would contribute a zero-valued answer to the checksum.
func Execute(e engine.Engine, queries []workload.Query, clients int) *Run {
	if clients < 1 {
		clients = 1
	}
	if clients > len(queries) {
		clients = len(queries)
	}
	per := len(queries) / clients

	costs := make([][]QueryCost, clients)
	sums := make([]int64, clients)
	var seq atomic.Int64

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		lo := c * per
		hi := lo + per
		if c == clients-1 {
			hi = len(queries)
		}
		wg.Add(1)
		go func(c int, qs []workload.Query) {
			defer wg.Done()
			local := make([]QueryCost, 0, len(qs))
			var checksum int64
			for _, q := range qs {
				t0 := time.Now()
				var v int64
				var st crackindex.OpStats
				if q.Kind == workload.Count {
					v, st, _ = e.Count(context.Background(), q.Lo, q.Hi)
				} else {
					v, st, _ = e.Sum(context.Background(), q.Lo, q.Hi)
				}
				local = append(local, QueryCost{
					Seq:      int(seq.Add(1) - 1),
					Client:   c,
					Response: time.Since(t0),
					OpStats:  st,
				})
				checksum += v
			}
			costs[c] = local
			sums[c] = checksum
		}(c, queries[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)

	run := &Run{Engine: e.Name(), Clients: clients, Elapsed: elapsed}
	for c := range costs {
		run.Series.Costs = append(run.Series.Costs, costs[c]...)
		run.Checksum += sums[c]
	}
	run.Series.SortBySeq()
	return run
}

// Sequential runs the whole sequence on a single client.
func Sequential(e engine.Engine, queries []workload.Query) *Run {
	return Execute(e, queries, 1)
}

// Sweep runs the same query sequence for each client count and
// returns one Run per entry, e.g. the 1..32 client sweep of
// Figures 12 and 14. The engine factory is invoked fresh for every
// client count so each run starts from an unrefined index, exactly
// like the paper repeating the experiment per configuration.
func Sweep(factory func() engine.Engine, queries []workload.Query, clientCounts []int) []*Run {
	runs := make([]*Run, 0, len(clientCounts))
	for _, c := range clientCounts {
		runs = append(runs, Execute(factory(), queries, c))
	}
	return runs
}
