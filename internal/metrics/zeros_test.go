package metrics_test

import (
	"context"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// TestQueryHistogramsDeriveZeros drives cracking and all-peek queries
// through a sharded column and checks the three per-query histograms
// against the always-record path on the same cost sequence: every
// histogram counts every query, bucket 0 counts exactly the queries
// whose value was zero, and every bucket, the sum and the quantiles
// are what recording each value would have given.
func TestQueryHistogramsDeriveZeros(t *testing.T) {
	ob := metrics.NewObserver(metrics.ObserverOptions{})
	d := workload.NewUniqueUniform(1<<14, 5)
	col := shard.New(d.Values, shard.Options{Shards: 4, Seed: 3, Obs: ob,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	ctx := context.Background()

	var ref [3]metrics.Histogram // wait, refine, critical, every value recorded
	var zeros [3]int64
	var queries, cracked int64
	query := func(lo, hi int64) crackindex.OpStats {
		_, st, err := col.Count(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		queries++
		for i, v := range [3]time.Duration{st.Wait, st.Refine, st.Critical} {
			ref[i].RecordDuration(v)
			if v == 0 {
				zeros[i]++
			}
		}
		return st
	}
	const m = 64
	r := workload.NewRNG(11)
	bounds := make([][2]int64, m)
	for i := range bounds {
		lo := r.Int64n(d.Domain - 200)
		bounds[i] = [2]int64{lo, lo + 1 + r.Int64n(199)}
		if st := query(bounds[i][0], bounds[i][1]); st.Touched > 0 {
			cracked++
			if st.Refine <= 0 || st.Critical <= 0 {
				t.Fatalf("cracking query %v cost %+v: want a refine time and a critical path", bounds[i], st)
			}
		}
	}
	if cracked == 0 {
		t.Fatal("no query cracked")
	}
	for rep := 0; rep < 3; rep++ {
		for _, b := range bounds {
			if st := query(b[0], b[1]); st.Wait != 0 || st.Refine != 0 || st.Critical != 0 || st.Touched != 0 {
				t.Fatalf("repeated query %v cost %+v: want an all-peek answer", b, st)
			}
		}
	}

	got := map[string]metrics.HistSnapshot{}
	ob.Registry().VisitHistograms(func(name string, s metrics.HistSnapshot) { got[name] = s })
	var total int64
	ob.Registry().VisitCounters(func(name string, v int64) {
		if name == "adaptix_queries_total" {
			total = v
		}
	})
	if total != queries {
		t.Fatalf("adaptix_queries_total = %d, want %d", total, queries)
	}
	for i, name := range []string{"adaptix_query_wait_ns", "adaptix_query_crack_ns", "adaptix_query_critical_ns"} {
		s, want := got[name], ref[i].Snapshot()
		if n := s.Count(); n != total {
			t.Errorf("%s counts %d queries, want %d", name, n, total)
		}
		if s.Counts[0] != zeros[i] {
			t.Errorf("%s bucket 0 = %d, want the %d zero-valued queries", name, s.Counts[0], zeros[i])
		}
		if s != want {
			t.Errorf("%s differs from the always-record histogram of the same sequence", name)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if a, b := s.Quantile(q), want.Quantile(q); a != b {
				t.Errorf("%s p%g = %d, want %d", name, 100*q, a, b)
			}
		}
	}
	if zeros[1] == total || zeros[2] == total {
		t.Fatalf("refine/critical histograms hold only zeros (%d, %d of %d): the instruments did not move", zeros[1], zeros[2], total)
	}
	sum, crit := ob.Summary(), ref[2].Snapshot()
	if sum.Queries != total || sum.CriticalPathP999 != crit.QuantileDuration(0.999) {
		t.Errorf("Summary = %d queries, critical p999 %v; want %d, %v",
			sum.Queries, sum.CriticalPathP999, total, crit.QuantileDuration(0.999))
	}
}
