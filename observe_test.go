package adaptix_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptix"
)

// TestObserveEndpoint drives a traced index and scrapes every route of
// Observe(): the Prometheus exposition must contain the query counters
// and quantiles, /snapshot must round-trip through the exported
// ObsSnapshot type, and /flight must be valid JSON.
func TestObserveEndpoint(t *testing.T) {
	vals := seqValues(4096)
	ix, err := adaptix.New(vals,
		adaptix.WithShards(4),
		adaptix.WithObservability(adaptix.ObsOptions{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	for i := int64(0); i < 50; i++ {
		if _, err := ix.Count(ctx, i*10, i*10+500); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := ix.Insert(ctx, i); err != nil {
			t.Fatal(err)
		}
	}

	h := ix.Observe()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"adaptix_queries_total 50",
		"adaptix_write_latency_ns_count 20",
		`adaptix_query_critical_ns{quantile="0.99"}`,
		"adaptix_query_latency_ns_count 50", // tracing on, SampleEvery 1
		"# TYPE adaptix_query_wait_ns summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil))
	if w.Code != 200 {
		t.Fatalf("/snapshot status %d", w.Code)
	}
	var snap adaptix.ObsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not unmarshal into ObsSnapshot: %v", err)
	}
	if snap.Method != "crack" || snap.Rows != 4096+20 || snap.Shards != 4 {
		t.Fatalf("snapshot = %+v, want crack/4116/4", snap)
	}
	if snap.Obs.Queries != 50 || snap.Obs.Writes != 20 {
		t.Fatalf("snapshot counters = %d queries %d writes, want 50/20", snap.Obs.Queries, snap.Obs.Writes)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/flight", nil))
	var evs []adaptix.FlightEvent
	if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
		t.Fatalf("flight dump does not unmarshal: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("flight recorder empty after 50 traced queries")
	}
}

// TestStatsQuantilesPopulated checks satellite coverage for the new
// Stats fields: the core histograms (critical path, wait/crack split)
// must populate WITHOUT WithObservability, and rows/bounds/shards must
// be mutually consistent under concurrent writes.
func TestStatsQuantilesPopulated(t *testing.T) {
	ix, err := adaptix.New(seqValues(2048), adaptix.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	for i := int64(0); i < 30; i++ {
		if _, err := ix.Sum(ctx, i*20, i*20+600); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.Stats()
	if st.Obs.Queries != 30 {
		t.Fatalf("Obs.Queries = %d, want 30", st.Obs.Queries)
	}
	if st.Obs.CriticalPathP99 <= 0 {
		t.Fatal("CriticalPathP99 not populated without WithObservability")
	}
	if st.Obs.QueryLatencyP99 != 0 {
		t.Fatal("QueryLatencyP99 populated while tracing disabled")
	}
	if st.Rows != 2048 {
		t.Fatalf("Stats.Rows = %d, want 2048", st.Rows)
	}
	if len(st.Bounds) != len(st.Shards)-1 {
		t.Fatalf("Bounds/Shards inconsistent: %d bounds for %d shards",
			len(st.Bounds), len(st.Shards))
	}
}

// TestStatsConsistentUnderRebalance hammers Stats() while writers and
// the rebalancer churn the shard map: every snapshot must be
// internally consistent (bounds = shards-1, summed shard rows = Rows).
func TestStatsConsistentUnderRebalance(t *testing.T) {
	ix, err := adaptix.New(seqValues(1024), adaptix.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(0); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = ix.Insert(ctx, v%2000)
			if v%64 == 0 {
				ix.Maintain()
			}
		}
	}()

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := ix.Stats()
		if len(st.Bounds) != len(st.Shards)-1 {
			t.Fatalf("torn snapshot: %d bounds for %d shards", len(st.Bounds), len(st.Shards))
		}
		sum := 0
		for _, s := range st.Shards {
			sum += s.Rows
		}
		if sum != st.Rows {
			t.Fatalf("torn snapshot: shard rows sum %d != Rows %d", sum, st.Rows)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightRecorderCapturesStall forces a writer stall (park behind a
// group-apply) with a microsecond threshold and checks the event is
// dumpable through the facade.
func TestFlightRecorderCapturesStall(t *testing.T) {
	ix, err := adaptix.New(seqValues(512),
		adaptix.WithShards(2),
		adaptix.WithObservability(adaptix.ObsOptions{StallThreshold: time.Nanosecond}),
		adaptix.WithIngestOptions(adaptix.IngestOptions{ApplyThreshold: 50}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	// Interleave writes with queries and maintenance so at least one
	// latch wait or structural op lands in the recorder. Structural
	// events (seal/apply) are always recorded regardless of threshold.
	for i := int64(0); i < 200; i++ {
		if err := ix.Insert(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	ix.Maintain()
	evs := ix.FlightDump()
	if len(evs) == 0 {
		t.Fatal("flight recorder empty after writes + maintenance")
	}
	kinds := map[string]int{}
	for _, e := range evs {
		kinds[e.KindName]++
	}
	if kinds["seal"] == 0 && kinds["apply"] == 0 {
		t.Fatalf("no structural events in flight dump; kinds = %v", kinds)
	}
}

func seqValues(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 7 % (n * 2))
	}
	return vals
}
