package main

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptix"
	"adaptix/internal/workload"
)

// coldQueries is the paper's sequence length (Fig. 12-15).
const coldQueries = 1024

// Every rep draws its own sequence, so a run's medians average over
// many sequences and do not hang on the one the seed happened to pick.
func runColdUniform(cfg *runConfig) (*outcome, error) {
	return runCold(cfg, func(domain int64, rep int) []workload.Query {
		return alternating(workload.NewUniform(workload.Count, domain, 0.01, cfg.seed+1+uint64(rep)<<32), coldQueries)
	}, true)
}

// The sweep covers 41% of the domain: the first shard wholly, the
// second partly, and never the third, whatever the seed's shard cuts.
func runColdSeq(cfg *runConfig) (*outcome, error) {
	return runCold(cfg, func(domain int64, rep int) []workload.Query {
		return alternating(workload.NewSequential(workload.Count, domain, 0.0004), coldQueries)
	}, false)
}

// coldRep is one fresh index answering the whole sequence.
type coldRep struct {
	newS    float64
	total   time.Duration
	qs      []workload.Query
	lat     []uint32 // per query, by sequence position
	ans     []int64
	spans   []span // traced reps only, by sequence position
	errs    int64
	heapRow float64
	// counters are the Index.Stats() deltas of a traced rep.
	counters map[string]float64
}

// runCold repeats "fresh index, 1024 queries" for cfg.seconds: query 0
// alone (the initialization cost adaptive indexing is meant to hide),
// the other 1023 drained from one shared sequence by C clients, as in
// the paper's set-up. The reported values are medians across reps.
func runCold(cfg *runConfig, queries func(domain int64, rep int) []workload.Query, otherMethods bool) (*outcome, error) {
	out := newOutcome()

	var genS []float64
	var ds *workload.Dataset
	for range cfg.setupReps() {
		t0 := time.Now()
		ds = workload.NewUniqueUniform(cfg.rows, cfg.seed)
		genS = append(genS, time.Since(t0).Seconds())
	}
	heapBase := heapAlloc()

	var reps []*coldRep
	minReps := 3
	if cfg.quick {
		minReps = 1
	}
	// A traced run spends the other half of its time on the other
	// methods and the ladder.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	began := time.Now()
	for rep := 0; rep < minReps || time.Since(began).Seconds() < budget; rep++ {
		traced := cfg.trace && rep%2 == 1
		r, err := coldOnce(cfg, ds, queries(ds.Domain, rep), traced, heapBase, adaptix.WithShards(shards))
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}

	var newS, firstMS, totalMS, opsPerS, p50, p90, p99, heap, tracedMS, plainMS []float64
	for i, r := range reps {
		newS = append(newS, r.newS)
		firstMS = append(firstMS, ms(time.Duration(r.lat[0])))
		totalMS = append(totalMS, ms(r.total))
		opsPerS = append(opsPerS, float64(len(r.qs))/r.total.Seconds())
		lat := append([]uint32(nil), r.lat...)
		p50 = append(p50, us(quantile(lat, 0.50)))
		p90 = append(p90, us(quantile(lat, 0.90)))
		p99 = append(p99, us(quantile(lat, 0.99)))
		heap = append(heap, r.heapRow)
		if cfg.trace && i%2 == 1 {
			tracedMS = append(tracedMS, ms(r.total))
		} else {
			plainMS = append(plainMS, ms(r.total))
		}
		out.attempted += int64(len(r.qs))
		out.failed += r.errs
	}
	out.metrics["setup_s"] = median(genS) + median(newS)
	out.spread["setup_s"] = iqr(newS)
	out.set("ops_per_s", opsPerS)
	out.set("read_p50_us", p50)
	out.set("read_p90_us", p90)
	out.set("heap_bytes_per_row", heap)
	out.set("bench.read_p99_us", p99)
	out.set("crackindex.cold_total_ms", totalMS)
	out.set("crackindex.first_query_ms", firstMS)
	out.note("%d fresh indexes x %d queries (query 0 alone, the rest drained by %d clients); %d latency samples per rep",
		len(reps), coldQueries, cfg.clients, coldQueries)

	// Verify after timing.
	orc := newOracle(ds.Values)
	for _, r := range reps {
		out.failWrong(r.wrongAnswers(orc), "answers disagree with the oracle")
	}

	if cfg.trace {
		var spans []span
		var first256, last256 []float64
		for _, r := range reps {
			if r.spans == nil {
				continue
			}
			spans = append(spans, r.spans...)
			maps.Copy(out.metrics, r.counters)
			var f, l int64
			for i := range r.spans {
				if i < 256 {
					f += int64(r.spans[i].conflicts)
				} else if i >= len(r.spans)-256 {
					l += int64(r.spans[i].conflicts)
				}
			}
			first256 = append(first256, float64(f))
			last256 = append(last256, float64(l))
		}
		spanSummary(out, spans, len(first256))
		out.metrics["crackindex.conflicts_first256"] = median(first256)
		out.metrics["crackindex.conflicts_last256"] = median(last256)
		out.metrics["bench.trace_overhead_pct"] = 100 * (median(tracedMS)/median(plainMS) - 1)
		if err := dumpSpans(cfg, spans); err != nil {
			return nil, err
		}
		if otherMethods {
			for _, m := range []adaptix.Method{adaptix.AMerge, adaptix.Hybrid, adaptix.Sort, adaptix.Scan} {
				r, err := coldOnce(cfg, ds, queries(ds.Domain, 0), false, heapBase, adaptix.WithShards(shards), adaptix.WithMethod(m))
				if err != nil {
					return nil, err
				}
				out.attempted += int64(len(r.qs))
				out.failed += r.errs
				out.failWrong(r.wrongAnswers(orc), "%v: answers disagree with the oracle", m)
				out.metrics[m.String()+".cold_total_ms"] = ms(r.total)
			}
		}
	}
	return out, nil
}

// wrongAnswers counts the rep's answers that differ from the oracle's.
func (r *coldRep) wrongAnswers(orc *oracle) (wrong int64) {
	for i, got := range r.ans {
		if got != errAnswer && got != orc.answer(r.qs[i]) {
			wrong++
		}
	}
	return wrong
}

// coldOnce builds one fresh index and drives the sequence through it.
func coldOnce(cfg *runConfig, ds *workload.Dataset, qs []workload.Query, traced bool, heapBase uint64, opts ...adaptix.Option) (*coldRep, error) {
	runtime.GC() // start every rep from a collected heap, outside the clock
	r := &coldRep{qs: qs, lat: make([]uint32, len(qs)), ans: make([]int64, len(qs))}
	if traced {
		r.spans = make([]span, len(qs))
	}
	t0 := time.Now()
	ix, err := adaptix.New(ds.Values, opts...)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	r.newS = time.Since(t0).Seconds()
	before := ix.Stats()

	var errs atomic.Int64
	issue := func(i int, began time.Time) {
		t := time.Now()
		res, err := runQuery(ix, qs[i])
		d := time.Since(t)
		r.lat[i] = sat32(d)
		r.ans[i] = res.Value
		if err != nil {
			errs.Add(1)
			r.ans[i] = errAnswer
		}
		if traced {
			r.spans[i] = makeSpan(t.Sub(began), d, queryKind(qs[i]), res)
		}
	}
	began := time.Now()
	issue(0, began)
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	for range cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				issue(i, began)
			}
		}()
	}
	wg.Wait()
	r.total = time.Since(began)
	r.errs = errs.Load()
	if traced {
		r.counters = map[string]float64{}
		indexCounters(r.counters, before, ix.Stats())
	}
	r.heapRow = (float64(heapAlloc()) - float64(heapBase)) / float64(len(ds.Values))
	runtime.KeepAlive(ix)
	return r, nil
}
