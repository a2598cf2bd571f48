package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptix/internal/metrics"
)

// promSample is one parsed exposition line: name, optional labels,
// integer value.
type promSample struct {
	name   string
	labels map[string]string
	value  int64
}

// parseProm is a minimal Prometheus text-format parser: enough to
// assert our own exposition is well-formed. It checks that every
// non-comment line is `name[{labels}] value`, that every sample is
// preceded by a TYPE for its family, and returns the samples.
func parseProm(t *testing.T, body string) []promSample {
	t.Helper()
	typed := map[string]string{} // family -> type
	var out []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or other comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		metric := line[:sp]
		s := promSample{labels: map[string]string{}, value: v}
		if br := strings.IndexByte(metric, '{'); br >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			s.name = metric[:br]
			for _, pair := range strings.Split(metric[br+1:len(metric)-1], ",") {
				k, val, ok := strings.Cut(pair, "=")
				if !ok || !strings.HasPrefix(val, `"`) || !strings.HasSuffix(val, `"`) {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				s.labels[k] = val[1 : len(val)-1]
			}
		} else {
			s.name = metric
		}
		family := s.name
		for _, suf := range []string{"_sum", "_count"} {
			base := strings.TrimSuffix(family, suf)
			if base != family && typed[base] == "summary" {
				family = base
			}
		}
		if typed[family] == "" {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, s.name)
		}
		out = append(out, s)
	}
	return out
}

func newTestHandler(t *testing.T) (*metrics.Observer, *Handler) {
	t.Helper()
	ob := metrics.NewObserver(metrics.ObserverOptions{Tracing: true, StallThreshold: time.Microsecond})
	return ob, NewHandler(ob, func() any {
		return map[string]any{"rows": 42}
	}, func() (any, bool) {
		return map[string]any{"status": "ok"}, true
	}, func() any {
		return map[string]any{"reads": 7}
	})
}

func get(t *testing.T, h *Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestMetricsExpositionParses(t *testing.T) {
	ob, h := newTestHandler(t)
	// Put traffic through every instrument family.
	for i := 0; i < 100; i++ {
		st := ob.QueryStart()
		ob.RecordQuery(st, time.Microsecond, 2*time.Microsecond, 3*time.Microsecond)
	}
	ob.RecordLatchWait(5*time.Millisecond, true)
	ob.RecordWrite(ob.WriteStart())
	ob.RecordWriterPark(1, 2*time.Millisecond)
	ob.RecordStructural(metrics.EvSeal, 0, time.Millisecond, 10)
	ob.RecordFsync(time.Millisecond)
	ob.RecordCommitBatch(7)

	w := get(t, h, "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := parseProm(t, w.Body.String())

	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	if got := byName["adaptix_queries_total"]; len(got) != 1 || got[0].value != 100 {
		t.Fatalf("adaptix_queries_total = %+v, want one sample of 100", got)
	}
	if got := byName["adaptix_query_latency_ns_count"]; len(got) != 1 || got[0].value != 100 {
		t.Fatalf("adaptix_query_latency_ns_count = %+v, want 100", got)
	}
	// The summary must expose the three quantiles.
	qs := map[string]bool{}
	for _, s := range byName["adaptix_query_latency_ns"] {
		qs[s.labels["quantile"]] = true
	}
	for _, want := range []string{"0.5", "0.99", "0.999"} {
		if !qs[want] {
			t.Fatalf("adaptix_query_latency_ns missing quantile %q (have %v)", want, qs)
		}
	}
	if got := byName["adaptix_latch_stalls_total"]; len(got) != 1 || got[0].value != 1 {
		t.Fatalf("adaptix_latch_stalls_total = %+v, want 1", got)
	}
	if got := byName["adaptix_group_commit_batch_records_sum"]; len(got) != 1 || got[0].value != 7 {
		t.Fatalf("adaptix_group_commit_batch_records_sum = %+v, want 7", got)
	}
}

func TestVarsIsValidJSON(t *testing.T) {
	ob, h := newTestHandler(t)
	ob.RecordQuery(time.Time{}, 0, 0, 0)
	w := get(t, h, "/debug/vars")
	if w.Code != 200 {
		t.Fatalf("/debug/vars status %d", w.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, w.Body.String())
	}
	var ours map[string]int64
	if err := json.Unmarshal(doc["adaptix"], &ours); err != nil {
		t.Fatalf("adaptix var is not a flat object: %v", err)
	}
	if ours["adaptix_queries_total"] != 1 {
		t.Fatalf("adaptix_queries_total = %d, want 1", ours["adaptix_queries_total"])
	}
	// The standard process-wide vars must still be present.
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("expvar output lost the standard memstats var")
	}
}

func TestFlightAndSnapshotRoutes(t *testing.T) {
	ob, h := newTestHandler(t)
	ob.RecordWriterPark(3, time.Millisecond)

	w := get(t, h, "/flight")
	if w.Code != 200 {
		t.Fatalf("/flight status %d", w.Code)
	}
	var evs []metrics.Event
	if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if len(evs) != 1 || evs[0].KindName != "writer-stall" || evs[0].Shard != 3 {
		t.Fatalf("flight dump = %+v, want one writer-stall on shard 3", evs)
	}

	w = get(t, h, "/snapshot")
	if w.Code != 200 {
		t.Fatalf("/snapshot status %d", w.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap["rows"] != float64(42) {
		t.Fatalf("snapshot rows = %v, want 42", snap["rows"])
	}
}

func TestHealthRoute(t *testing.T) {
	// Healthy: 200 with the report body.
	_, h := newTestHandler(t)
	w := get(t, h, "/health")
	if w.Code != 200 {
		t.Fatalf("/health status %d, want 200", w.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("health report is not valid JSON: %v", err)
	}
	if doc["status"] != "ok" {
		t.Fatalf("health status = %v, want ok", doc["status"])
	}

	// Degraded: same body shape, readiness code 503.
	ob := metrics.NewObserver(metrics.ObserverOptions{})
	bad := NewHandler(ob, nil, func() (any, bool) {
		return map[string]any{"status": "degraded"}, false
	}, nil)
	if w := get(t, bad, "/health"); w.Code != 503 {
		t.Fatalf("degraded /health status %d, want 503", w.Code)
	}

	// No health source configured: 404.
	none := NewHandler(ob, nil, nil, nil)
	if w := get(t, none, "/health"); w.Code != 404 {
		t.Fatalf("nil-health /health status %d, want 404", w.Code)
	}
}

func TestWorkloadRoute(t *testing.T) {
	_, h := newTestHandler(t)
	w := get(t, h, "/workload")
	if w.Code != 200 {
		t.Fatalf("/workload status %d, want 200", w.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("workload signature is not valid JSON: %v", err)
	}
	if doc["reads"] != float64(7) {
		t.Fatalf("workload reads = %v, want 7", doc["reads"])
	}

	// No workload source configured: 404.
	ob := metrics.NewObserver(metrics.ObserverOptions{})
	none := NewHandler(ob, nil, nil, nil)
	if w := get(t, none, "/workload"); w.Code != 404 {
		t.Fatalf("nil-workload /workload status %d, want 404", w.Code)
	}
}

func TestPprofMounted(t *testing.T) {
	_, h := newTestHandler(t)
	w := get(t, h, "/debug/pprof/")
	if w.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatal("pprof index page missing profile listing")
	}
}

func TestIndexPage(t *testing.T) {
	_, h := newTestHandler(t)
	w := get(t, h, "/")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "/metrics") {
		t.Fatalf("index page: status %d body %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/nosuch"); w.Code != 404 {
		t.Fatalf("unknown route status %d, want 404", w.Code)
	}
}
