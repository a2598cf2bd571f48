package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptix"
	"adaptix/internal/serve"
	"adaptix/internal/workload"
)

// served_open load shape.
const (
	hotBounds   = 64    // shared pool of hot read bounds: same-window duplicates exist for the scheduler to coalesce
	servedRate  = 10000 // req/s of the fixed-rate step whose latency is the end-to-end read_p50_us/read_p90_us
	pipeline    = 16    // requests each connection keeps in flight in the closed-loop capacity phase
	maxInFlight = 128   // per connection in the open loop, half the server's quota: a stall makes the generator late, not the server refuse
	latencyOKus = 2000  // a rate step passes with p99 <= 2 ms ...
	lateOKus    = 1000  // ... if the generator itself ran <= 1 ms late at p99 (else the step is unresolved)
)

// rateLadder is the traced run's rate steps.
var rateLadder = []int{10000, 20000, 40000, 80000}

// servedLoad is the served_open request stream: 90% narrow reads drawn
// from a shared pool of hot bounds in the lower half of the domain, 10%
// inserts into the upper half. No write ever lands in a read's range,
// so every read answer is fixed by the base data; and the shards the
// reads use are never rebuilt under them by a group-apply, which made
// the read tail flip between runs (29% spread) when it was allowed.
type servedLoad struct {
	hot    []workload.Query
	want   []int64
	domain int64
}

func newServedLoad(cfg *runConfig) *servedLoad {
	domain := int64(cfg.rows)
	return &servedLoad{domain: domain,
		hot: alternating(workload.NewUniform(workload.Count, domain/2, 0.00002, cfg.seed+5), hotBounds)}
}

func (l *servedLoad) request(i int) serve.Request {
	if i%10 == 9 {
		return serve.Request{Op: serve.OpInsert, Lo: l.insertKey(i)}
	}
	q := l.hot[l.hotIndex(i)]
	op := serve.OpCount
	if q.Kind == workload.Sum {
		op = serve.OpSum
	}
	return serve.Request{Op: op, Lo: q.Lo, Hi: q.Hi}
}

// hotIndex is the hot bound read request i uses.
func (l *servedLoad) hotIndex(i int) int { return (i*7 + i/10) % len(l.hot) }

func (l *servedLoad) insertKey(i int) int64 {
	return l.domain/2 + int64(i)*2654435761%(l.domain/2)
}

// openStep is one open-loop step's record, indexed by request number.
type openStep struct {
	rate   int
	n      int
	lat    []uint32 // completion minus due time, ns
	late   []uint32 // send minus due time, ns
	ans    []int64
	status []serve.Status
	done   atomic.Int64 // completions before the step's window closed
}

// openLoop sends n = rate*dur requests on a fixed schedule, request i
// due at start + i/rate on connection i mod C, whether or not earlier
// ones have completed. One pacer goroutine issues the load; each
// request waits for its response in a goroutine of its own (the
// client's Do blocks). Latency counts from the due time, so a stall
// charges every request that was due during it; so does the cap on
// requests in flight, which holds the pacer back (and counts as
// generator lateness) before the server's admission quota would refuse.
func openLoop(clients []*serve.Client, load *servedLoad, rate int, dur time.Duration, firstReq int) *openStep {
	n := int(float64(rate) * dur.Seconds())
	st := &openStep{rate: rate, n: n, lat: make([]uint32, n), late: make([]uint32, n),
		ans: make([]int64, n), status: make([]serve.Status, n)}
	for i := range st.status {
		st.status[i] = statusUnanswered
	}
	interval := time.Duration(float64(time.Second) / float64(rate))
	var waiters sync.WaitGroup
	inFlight := make([]chan struct{}, len(clients))
	for c := range inFlight {
		inFlight[c] = make(chan struct{}, maxInFlight) // a counting semaphore
	}
	start := time.Now().Add(2 * time.Millisecond)
	windowEnd := start.Add(dur)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		c := i % len(clients)
		inFlight[c] <- struct{}{}
		st.late[i] = sat32(time.Since(due))
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			resp, err := clients[c].Do(bg, load.request(firstReq+i))
			end := time.Now()
			<-inFlight[c]
			if err != nil {
				return // stays statusUnanswered
			}
			st.lat[i] = sat32(end.Sub(due))
			st.ans[i] = resp.Value
			st.status[i] = resp.Status
			if end.Before(windowEnd) {
				st.done.Add(1)
			}
		}()
	}
	waiters.Wait()
	return st
}

// waitUntil returns once t has come. Timers in a
// sandbox can be a millisecond coarse, far more than the gap between
// two requests, so it sleeps only while t is far off and then yields
// in a loop: the processor goes to whatever else is runnable, the
// server included, and comes back to the pacer in time.
func waitUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		if wait > 3*time.Millisecond {
			time.Sleep(wait - 3*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// statusUnanswered marks a request whose response never came.
const statusUnanswered = serve.Status(255)

// stepStats are one step's numbers.
type stepStats struct {
	p50, p90, p99 []float64 // us, per segment (read requests)
	lateP99       float64   // us
	failed        int64
	wrong         int64
	doneShare     float64
	verdict       string // ok, fail or unresolved
	readsTotal    int
}

// check verifies a step's answers and folds its latencies into
// per-segment quantiles (segments by request number, i.e. by due time).
func (st *openStep) check(load *servedLoad, firstReq, segs int) stepStats {
	var s stepStats
	per := max(st.n/segs, 1)
	var reads []uint32
	flush := func() {
		if len(reads) > 0 {
			s.readsTotal += len(reads)
			s.p50 = append(s.p50, us(quantile(reads, 0.50)))
			s.p90 = append(s.p90, us(quantile(reads, 0.90)))
			s.p99 = append(s.p99, us(quantile(reads, 0.99)))
			reads = reads[:0]
		}
	}
	for i := 0; i < st.n; i++ {
		req := load.request(firstReq + i)
		switch {
		case st.status[i] != serve.StatusOK:
			s.failed++ // refused, errored or unanswered: misses any latency limit
		case req.Op == serve.OpInsert:
		default:
			if st.ans[i] != load.want[load.hotIndex(firstReq+i)] {
				s.wrong++
			}
			reads = append(reads, st.lat[i])
		}
		if (i+1)%per == 0 {
			flush()
		}
	}
	flush()
	late := append([]uint32(nil), st.late...)
	s.lateP99 = us(quantile(late, 0.99))
	s.doneShare = float64(st.done.Load()) / float64(st.n)
	switch {
	case s.lateP99 > lateOKus:
		s.verdict = "unresolved" // the generator, not the server, was the bottleneck
	case median(s.p99) <= latencyOKus && float64(s.failed+s.wrong) <= 0.001*float64(st.n) && s.doneShare >= 0.99:
		s.verdict = "ok"
	default:
		s.verdict = "fail"
	}
	return s
}

func runServedOpen(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	load := newServedLoad(cfg)

	var srv *adaptix.Server
	var clients []*serve.Client
	closeFront := func() {
		for _, cl := range clients {
			cl.Close()
		}
		clients = nil
		if srv != nil {
			srv.Close()
			srv = nil
		}
	}
	defer closeFront()
	fx, err := setUp(cfg, out,
		func(values []int64) (*adaptix.Index, error) { return adaptix.New(values, adaptix.WithShards(shards)) },
		func(ix *adaptix.Index) error {
			if err := converge(cfg, ix, load.hot); err != nil {
				return err
			}
			var err error
			if srv, err = ix.ServeAddr("127.0.0.1:0", adaptix.ServeOptions{}); err != nil {
				return err
			}
			for range cfg.clients {
				cl, err := adaptix.DialServe(srv.Addr().String())
				if err != nil {
					return err
				}
				clients = append(clients, cl)
			}
			return nil
		}, closeFront)
	if err != nil {
		return nil, err
	}
	defer fx.ix.Close()
	load.want = newOracle(fx.ds.Values).answers(load.hot)
	total := time.Duration(cfg.seconds * float64(time.Second))
	next := 0 // request numbers are global across phases so insert keys never repeat
	var inserted []int64
	srvBefore := srv.Stats()

	// Phase 1, half of the run: closed loop, each connection keeping
	// `pipeline` requests in flight — the front's capacity, ops_per_s.
	capSegs := segments
	capDur := total / 2 / time.Duration(capSegs)
	var capRate []float64
	for range capSegs {
		n, bad, wrong, ins := capacitySegment(clients, load, next, capDur)
		out.attempted += int64(n)
		out.failed += bad
		out.failWrong(wrong, "%d wrong answers in the capacity phase", wrong)
		capRate = append(capRate, float64(n)/capDur.Seconds())
		inserted = append(inserted, ins...)
		next += n + len(clients)*pipeline // skip numbers claimed but never sent
	}
	out.set("ops_per_s", capRate)

	// Phase 2, the rest: open loop. Untraced, one step at the fixed
	// rate; traced, the rate ladder.
	rates := []int{servedRate}
	if cfg.trace {
		rates = rateLadder
	}
	stepDur := total / 2 / time.Duration(len(rates))
	maxOK := 0.0
	unresolvedBelow := false
	for _, rate := range rates {
		st := openLoop(clients, load, rate, stepDur, next)
		ss := st.check(load, next, 6)
		for i := 0; i < st.n; i++ {
			if r := load.request(next + i); r.Op == serve.OpInsert && st.status[i] == serve.StatusOK {
				inserted = append(inserted, r.Lo)
			}
		}
		next += st.n
		out.attempted += int64(st.n)
		out.failed += ss.failed
		out.failWrong(ss.wrong, "%d wrong answers at %d req/s", ss.wrong, rate)
		out.note("open loop %d req/s for %.2fs over %d connections: p50 %.1f us, p99 %.1f us from due time (%d read samples), generator late p99 %.1f us, %.2f%% done in window, %d failed: %s",
			rate, stepDur.Seconds(), len(clients), median(ss.p50), median(ss.p99), ss.readsTotal, ss.lateP99, 100*ss.doneShare, ss.failed, ss.verdict)
		if rate == servedRate {
			out.set("read_p50_us", ss.p50)
			out.set("read_p90_us", ss.p90)
			out.set("bench.read_p99_us", ss.p99)
			out.metrics["serve.gen_late_p99_us"] = ss.lateP99
		}
		if cfg.trace {
			out.metrics[fmt.Sprintf("serve.p99_us.r%dk", rate/1000)] = median(ss.p99)
			switch ss.verdict {
			case "ok":
				if !unresolvedBelow {
					maxOK = float64(rate)
				}
			case "unresolved":
				unresolvedBelow = true
			}
		}
	}
	if cfg.trace {
		out.metrics["serve.max_rate_ok"] = maxOK
		a := srv.Stats()
		out.metrics["serve.rejected"] = float64(a.Rejected - srvBefore.Rejected)
		out.metrics["serve.batch_p50"] = float64(a.BatchP50)
		if d := a.Batched - srvBefore.Batched; d > 0 {
			out.metrics["serve.coalesce_rate"] = float64(a.Coalesced-srvBefore.Coalesced) / float64(d)
		}
	}

	// Final multiset: the base plus every insert the server acknowledged.
	closeFront()
	quiesce(fx.ix)
	final := append(append([]int64(nil), fx.ds.Values...), inserted...)
	verifyFinal(out, fx.ix, newOracle(final), fx.ds.Domain, cfg.seed)
	final, inserted = nil, nil
	fx.heapPerRow(out)
	return out, nil
}

// capacitySegment runs the closed-loop capacity phase for dur: every
// connection keeps `pipeline` requests in flight. It returns the
// number completed, how many of them failed, how many answered
// wrongly, and the keys of acknowledged inserts.
func capacitySegment(clients []*serve.Client, load *servedLoad, firstReq int, dur time.Duration) (n int, bad, wrong int64, inserted []int64) {
	ctx, cancel := context.WithTimeout(bg, dur)
	defer cancel()
	var nextReq, done, failed, wrongs atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cl := range clients {
		for range pipeline {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []int64
				for ctx.Err() == nil {
					i := firstReq + int(nextReq.Add(1)-1)
					req := load.request(i)
					resp, err := cl.Do(bg, req)
					done.Add(1)
					switch {
					case err != nil || resp.Status != serve.StatusOK:
						failed.Add(1)
					case req.Op == serve.OpInsert:
						mine = append(mine, req.Lo)
					case resp.Value != load.want[load.hotIndex(i)]:
						wrongs.Add(1)
					}
				}
				mu.Lock()
				inserted = append(inserted, mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return int(done.Load()), failed.Load(), wrongs.Load(), inserted
}
