package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"adaptix"
	"adaptix/internal/workload"
)

// The fixed load shape shared by every workload (see README.md).
const (
	fullRows   = 1 << 22 // 4 Mi unique int64 = 32 MiB, larger than the per-core caches
	quickRows  = 1 << 18
	shards     = 4 // fixed, not NumCPU, so work counts repeat across machines
	maxClients = 4
	segments   = 8 // a timed phase is cut into this many equal segments
	setupReps  = 3 // set-ups per run; setup_s is the median over them
)

// runConfig is one invocation's resolved arguments.
type runConfig struct {
	workload string
	rows     int
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	clients  int    // C = min(nproc, 4): load-issuing goroutines and connections
	dir      string // scratch directory inside the checkout (stores, span dumps)
	exe      string // this binary, re-invoked as the durable_rw child
}

func (cfg *runConfig) setupReps() int {
	if cfg.quick {
		return 1
	}
	return setupReps
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int64
	failed    int64 // errors + refusals + wrong answers
	wrong     int64 // wrong answers alone: any makes the command exit non-zero
	metrics   map[string]float64
	spread    map[string]float64 // IQR across segments/reps, printed beside the median
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, spread: map[string]float64{}}
}

// set records a metric as the median of its per-segment (or per-rep)
// values, and their IQR beside it.
func (o *outcome) set(name string, samples []float64) {
	o.metrics[name] = median(samples)
	o.spread[name] = iqr(samples)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// failWrong counts n failed operations that returned wrong answers.
func (o *outcome) failWrong(n int64, format string, args ...any) {
	if n == 0 {
		return
	}
	o.failed += n
	o.wrong += n
	o.note("WRONG: "+format, args...)
}

var bg = context.Background()

// opKind tags one recorded operation.
type opKind uint8

const (
	kindCount opKind = iota
	kindSum
	kindInsert
	kindDelete
)

func (k opKind) isRead() bool { return k <= kindSum }

// errAnswer marks an op that returned an error (already counted as
// failed; verification skips it).
const errAnswer = math.MinInt64

// runQuery issues q through the public API.
func runQuery(ix *adaptix.Index, q workload.Query) (adaptix.Result, error) {
	if q.Kind == workload.Sum {
		return ix.Sum(bg, q.Lo, q.Hi)
	}
	return ix.Count(bg, q.Lo, q.Hi)
}

func queryKind(q workload.Query) opKind {
	if q.Kind == workload.Sum {
		return kindSum
	}
	return kindCount
}

// alternating draws n queries from g and makes every second one a Sum
// (the paper's Q1/Q2 templates over one bounds stream).
func alternating(g workload.Generator, n int) []workload.Query {
	qs := workload.Fixed(g, n)
	for i := range qs {
		if i%2 == 1 {
			qs[i].Kind = workload.Sum
		}
	}
	return qs
}

// fixture is a workload's index after set-up.
type fixture struct {
	ds       *workload.Dataset
	ix       *adaptix.Index
	heapBase uint64 // post-GC HeapAlloc with the dataset live and no index
}

// heapAlloc returns HeapAlloc after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp runs the workload's set-up cfg.setupReps() times — data
// generation, New (build) and pre-warm — keeps the last index, and
// records setup_s as the median. Work a later change moves into
// set-up therefore shows in setup_s. teardown, when non-nil, releases
// what prewarm attached to an index that is about to be replaced.
func setUp(cfg *runConfig, out *outcome,
	build func(values []int64) (*adaptix.Index, error),
	prewarm func(ix *adaptix.Index) error, teardown func()) (*fixture, error) {

	var fx *fixture
	var setupS []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if fx != nil {
			if teardown != nil {
				teardown()
			}
			fx.ix.Close()
			fx = nil
		}
		t0 := time.Now()
		ds := workload.NewUniqueUniform(cfg.rows, cfg.seed)
		gen := time.Since(t0)
		base := heapAlloc() // outside the set-up clock
		t1 := time.Now()
		ix, err := build(ds.Values)
		if err != nil {
			return nil, err
		}
		if prewarm != nil {
			if err := prewarm(ix); err != nil {
				return nil, fmt.Errorf("pre-warm: %w", err)
			}
		}
		setupS = append(setupS, (gen + time.Since(t1)).Seconds())
		fx = &fixture{ds: ds, ix: ix, heapBase: base}
	}
	out.set("setup_s", setupS)
	return fx, nil
}

// heapPerRow reports the index's share of the heap: post-GC HeapAlloc
// minus the level before New, over rows. The caller must have dropped
// its own buffers (sample logs, oracle) first.
func (fx *fixture) heapPerRow(out *outcome) {
	h := heapAlloc()
	grown := float64(h) - float64(fx.heapBase)
	out.metrics["heap_bytes_per_row"] = grown / float64(len(fx.ds.Values))
	runtime.KeepAlive(fx.ix)
}

// span is one op as the bench's recorder saw it from outside the
// program: the public call's start and duration, plus the cost
// breakdown the call itself returned (Result).
type span struct {
	start     int64 // ns since the phase began
	dur       uint32
	wait      uint32
	refine    uint32
	critical  uint32
	conflicts uint16
	epochs    uint8 // sealed epochs the read consulted: Result.Epochs less the always-present open one
	kind      opKind
}

func sat32(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	if d < 0 {
		return 0
	}
	return uint32(d)
}

func makeSpan(start, dur time.Duration, kind opKind, r adaptix.Result) span {
	return span{
		start:     int64(start),
		dur:       sat32(dur),
		wait:      sat32(r.Wait),
		refine:    sat32(r.Refine),
		critical:  sat32(r.Critical),
		conflicts: uint16(min(r.Conflicts, math.MaxUint16)),
		epochs:    uint8(min(max(r.Epochs-1, 0), math.MaxUint8)),
		kind:      kind,
	}
}

// clientLog is what one closed-loop client recorded, in issue order.
type clientLog struct {
	lat    []uint32 // ns per op around the public call
	ans    []int64  // the op's answer (errAnswer after an error)
	kind   []opKind
	segEnd []int  // len(lat) at the end of each segment
	spans  []span // traced segments only
	errs   int64
}

// opFunc issues client c's i-th operation.
type opFunc func(c, i int) (opKind, int64, adaptix.Result, error)

// closedLoop runs one closed-loop phase: clients goroutines each issue
// their next op as soon as the previous one returns, for segs segments
// of segDur each. capHint pre-sizes the per-client logs so recording
// never reallocates inside the timed phase. In a traced run every
// second segment records spans, so the untraced segments of the same
// phase give the recorder's overhead.
func closedLoop(cfg *runConfig, segs int, segDur time.Duration, capHint int, op opFunc) []*clientLog {
	logs := make([]*clientLog, cfg.clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	var t0 time.Time
	for c := range logs {
		lg := &clientLog{
			lat:  make([]uint32, 0, capHint),
			ans:  make([]int64, 0, capHint),
			kind: make([]opKind, 0, capHint),
		}
		if cfg.trace {
			lg.spans = make([]span, 0, capHint/2)
		}
		logs[c] = lg
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			seg, end := 0, t0.Add(segDur)
			traced := cfg.trace && tracedSegment(seg)
			prev := time.Now()
			for i := 0; ; i++ {
				kind, ans, res, err := op(c, i)
				now := time.Now()
				d := now.Sub(prev)
				if err != nil {
					lg.errs++
					ans = errAnswer
				}
				lg.lat = append(lg.lat, sat32(d))
				lg.ans = append(lg.ans, ans)
				lg.kind = append(lg.kind, kind)
				if traced {
					lg.spans = append(lg.spans, makeSpan(prev.Sub(t0), d, kind, res))
				}
				prev = now
				if now.After(end) {
					lg.segEnd = append(lg.segEnd, len(lg.lat))
					if seg++; seg == segs {
						return
					}
					end = end.Add(segDur)
					traced = cfg.trace && tracedSegment(seg)
				}
			}
		}()
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	return logs
}

func tracedSegment(seg int) bool { return seg%2 == 1 }

// timedPhase is a workload's timed phase: the closed loop for
// cfg.seconds in equal segments, its end-to-end numbers and the index's
// counters over the phase reported into out, and, in a traced run, the
// span summary and dump. It returns the logs for verification.
func timedPhase(cfg *runConfig, out *outcome, ix *adaptix.Index, capHint int, op opFunc) ([]*clientLog, error) {
	segDur := time.Duration(cfg.seconds / segments * float64(time.Second))
	before := ix.Stats()
	logs := closedLoop(cfg, segments, segDur, capHint, op)
	after := ix.Stats()
	st := summarize(logs, segDur)
	st.report(cfg, out)
	indexCounters(out.metrics, before, after)
	if cfg.trace {
		var spans []span
		for _, lg := range logs {
			spans = append(spans, lg.spans...)
		}
		spanSummary(out, spans, 1)
		if err := dumpSpans(cfg, spans); err != nil {
			return nil, err
		}
	}
	return logs, nil
}

// phaseStats are the per-segment numbers of a closed-loop phase.
type phaseStats struct {
	ops                       int64
	errs                      int64
	opsPerS                   []float64 // all ops, per segment
	readP50, readP90, readP99 []float64 // us, per segment
	writeP50, writeP99        []float64 // us, per segment with any writes
	tracedOps, plainOps       []float64 // ops/s of traced and untraced segments
	readSamples, writeSamples int
}

func summarize(logs []*clientLog, segDur time.Duration) phaseStats {
	var st phaseStats
	var reads, writes []uint32
	for s := range logs[0].segEnd {
		reads, writes = reads[:0], writes[:0]
		n := 0
		for _, lg := range logs {
			from := 0
			if s > 0 {
				from = lg.segEnd[s-1]
			}
			to := lg.segEnd[s]
			n += to - from
			for i := from; i < to; i++ {
				if lg.kind[i].isRead() {
					reads = append(reads, lg.lat[i])
				} else {
					writes = append(writes, lg.lat[i])
				}
			}
		}
		rate := float64(n) / segDur.Seconds()
		st.ops += int64(n)
		st.opsPerS = append(st.opsPerS, rate)
		if tracedSegment(s) {
			st.tracedOps = append(st.tracedOps, rate)
		} else {
			st.plainOps = append(st.plainOps, rate)
		}
		st.readSamples += len(reads)
		st.writeSamples += len(writes)
		if len(reads) > 0 {
			st.readP50 = append(st.readP50, us(quantile(reads, 0.50)))
			st.readP90 = append(st.readP90, us(quantile(reads, 0.90)))
			st.readP99 = append(st.readP99, us(quantile(reads, 0.99)))
		}
		if len(writes) > 0 {
			st.writeP50 = append(st.writeP50, us(quantile(writes, 0.50)))
			st.writeP99 = append(st.writeP99, us(quantile(writes, 0.99)))
		}
	}
	for _, lg := range logs {
		st.errs += lg.errs
	}
	return st
}

// report writes the phase's end-to-end numbers into out.
func (st *phaseStats) report(cfg *runConfig, out *outcome) {
	out.attempted += st.ops
	out.failed += st.errs
	out.set("ops_per_s", st.opsPerS)
	out.set("read_p50_us", st.readP50)
	out.set("read_p90_us", st.readP90)
	out.set("bench.read_p99_us", st.readP99)
	if len(st.writeP50) > 0 {
		out.set("ingest.write_p50_us", st.writeP50)
		out.set("ingest.write_p99_us", st.writeP99)
	}
	if cfg.trace {
		out.metrics["bench.trace_overhead_pct"] = 100 * (median(st.plainOps)/median(st.tracedOps) - 1)
	}
	out.note("%d ops in %d segments of %.2fs by %d closed-loop clients; %d read and %d write latency samples",
		st.ops, len(st.opsPerS), cfg.seconds/float64(len(st.opsPerS)), cfg.clients, st.readSamples, st.writeSamples)
}

// spanSummary folds recorded spans into the workload-scoped per-layer
// metrics that come from what each public call returned. The spans
// cover reps repetitions of the workload's sequence; sums are per
// repetition.
func spanSummary(out *outcome, spans []span, reps int) {
	var dur, wait, refine float64
	var conflicts int64
	crit := make([]uint32, 0, len(spans))
	depth := make([]uint32, 0, len(spans))
	for i := range spans {
		sp := &spans[i]
		if !sp.kind.isRead() {
			continue
		}
		dur += float64(sp.dur)
		wait += float64(sp.wait)
		refine += float64(sp.refine)
		conflicts += int64(sp.conflicts)
		crit = append(crit, sp.critical)
		depth = append(depth, uint32(sp.epochs))
	}
	out.metrics["crackindex.wait_us_sum"] = wait / 1e3 / float64(reps)
	out.metrics["crackindex.refine_us_sum"] = refine / 1e3 / float64(reps)
	out.metrics["crackindex.conflicts"] = float64(conflicts) / float64(reps)
	if dur > 0 {
		out.metrics["crackindex.wait_share"] = wait / dur
		out.metrics["crackindex.refine_share"] = refine / dur
	}
	if len(crit) > 0 {
		out.metrics["shard.critical_us_p50"] = us(quantile(crit, 0.50))
		out.metrics["epoch.depth_p50"] = float64(quantile(depth, 0.50))
		out.metrics["epoch.depth_p99"] = float64(quantile(depth, 0.99))
	}
}

// indexCounters reports what Index.Stats() counted over the run.
func indexCounters(m map[string]float64, before, after adaptix.Stats) {
	var pieces, cracks int64
	for _, s := range after.Shards {
		pieces += int64(s.Pieces)
		cracks += s.Cracks
	}
	for _, s := range before.Shards {
		cracks -= s.Cracks
	}
	m["shard.pieces_total"] = float64(pieces)
	m["shard.cracks_total"] = float64(max(cracks, 0))
	a, b := after.Ingest, before.Ingest
	m["ingest.epoch_seals"] = float64(a.EpochSeals - b.EpochSeals)
	m["ingest.applied"] = float64(a.Applied - b.Applied)
	m["ingest.splits"] = float64(a.Splits - b.Splits)
	m["ingest.merges"] = float64(a.Merges - b.Merges)
	m["wal.group_syncs"] = float64(a.GroupSyncs - b.GroupSyncs)
	m["wal.logged_writes"] = float64(a.LoggedWrites - b.LoggedWrites)
	m["durable.checkpoints"] = float64(a.Checkpoints - b.Checkpoints)
}

func ms(d time.Duration) float64                { return float64(d) / 1e6 }
func us[T uint32 | time.Duration](ns T) float64 { return float64(ns) / 1e3 }

// quantile returns the q-quantile of v (nearest rank), sorting v.
func quantile(v []uint32, q float64) uint32 {
	slices.Sort(v)
	k := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(k, len(v)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile (0 with
// fewer than two values).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return q3 - q1
}

// quartiles matches Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the benchmark's acceptance check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
