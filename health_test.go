package adaptix_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"

	"adaptix"
)

func getJSON(t *testing.T, ix *adaptix.Index, path string) (int, []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	ix.Observe().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w.Code, w.Body.Bytes()
}

func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, raw)
	}
	out := make([]string, 0, len(doc))
	for k := range doc {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func wantKeys(t *testing.T, what string, raw []byte, want ...string) {
	t.Helper()
	got := keysOf(t, raw)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s keys = %v, want %v (schema drift: update the goldens AND the scrapers)", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s keys = %v, want %v (schema drift: update the goldens AND the scrapers)", what, got, want)
		}
	}
}

// workloadKeys is the golden field set of the workload signature block
// (/snapshot's "workload" and the whole /workload document).
var workloadKeys = []string{
	"enabled", "captured", "dropped", "reads", "writes", "write_frac",
	"width_p50", "width_p99", "selectivity_p50", "selectivity_p99",
	"key_jump_p50", "key_jump_p99", "locality", "seq_score",
}

// TestWorkloadGoldenSchema pins the JSON shape of the /workload
// document on an armed recorder and sanity-checks the characterizer:
// a read/write mix must show up in the mix fields and the selectivity
// quantiles once the key domain is known.
func TestWorkloadGoldenSchema(t *testing.T) {
	ix, err := adaptix.New(seqValues(4096), adaptix.WithShards(4),
		adaptix.WithWorkloadCapture(adaptix.CaptureOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	for i := int64(0); i < 40; i++ {
		if _, err := ix.Count(ctx, i*100, i*100+300); err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(ctx, i); err != nil {
			t.Fatal(err)
		}
	}

	code, body := getJSON(t, ix, "/workload")
	if code != 200 {
		t.Fatalf("/workload status %d", code)
	}
	wantKeys(t, "/workload", body, workloadKeys...)
	var sig adaptix.WorkloadStats
	if err := json.Unmarshal(body, &sig); err != nil {
		t.Fatal(err)
	}
	if !sig.Enabled {
		t.Fatal("armed recorder reports enabled=false")
	}
	if sig.Reads != 40 || sig.Writes != 40 {
		t.Fatalf("signature counted %d reads / %d writes, want 40/40", sig.Reads, sig.Writes)
	}
	if sig.WriteFrac != 0.5 {
		t.Fatalf("write_frac = %v, want 0.5", sig.WriteFrac)
	}
	if sig.SelectivityP50 <= 0 {
		t.Fatalf("selectivity_p50 = %v, want > 0 (domain installed at New)", sig.SelectivityP50)
	}
	// The stride-100 walk is a sequential sweep: each query's lower
	// bound lands 200 before the previous query's upper bound, well
	// within one predicate width (300), so every consecutive pair is a
	// sequentiality hit.
	if sig.SeqScore < 0.9 {
		t.Fatalf("sequential sweep scored seq_score=%v, want >= 0.9", sig.SeqScore)
	}
	if sig.Dropped != 0 {
		t.Fatalf("dropped = %d without a sink, want 0", sig.Dropped)
	}
}

// TestSnapshotGoldenSchema pins the JSON shape of the /snapshot and
// /health documents: these are scraped by cmd/adaptixstat,
// cmd/crackviz, and external probes, so a renamed or dropped field is
// a breaking change that must fail loudly here, not in a dashboard.
func TestSnapshotGoldenSchema(t *testing.T) {
	ix, err := adaptix.New(seqValues(4096), adaptix.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	for i := int64(0); i < 10; i++ {
		if _, err := ix.Count(ctx, i*100, i*100+300); err != nil {
			t.Fatal(err)
		}
	}

	code, body := getJSON(t, ix, "/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot status %d", code)
	}
	wantKeys(t, "/snapshot", body,
		"method", "rows", "shards", "ingest", "obs", "convergence", "workload", "heatmap", "shard_stats")

	var doc struct {
		Convergence json.RawMessage   `json:"convergence"`
		Workload    json.RawMessage   `json:"workload"`
		Heatmap     json.RawMessage   `json:"heatmap"`
		ShardStats  []json.RawMessage `json:"shard_stats"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, "convergence", doc.Convergence,
		"series", "touched_p50", "touched_p99", "queries", "visits", "covered", "covered_frac")
	// The workload block is schema-complete (all zeros) even without
	// WithWorkloadCapture; TestWorkloadGoldenSchema covers the armed
	// recorder and the /workload route.
	wantKeys(t, "workload", doc.Workload, workloadKeys...)
	var sig adaptix.WorkloadStats
	if err := json.Unmarshal(doc.Workload, &sig); err != nil {
		t.Fatal(err)
	}
	if sig.Enabled || sig.Captured != 0 {
		t.Fatalf("capture-disabled index reports workload %+v, want zeros", sig)
	}
	wantKeys(t, "heatmap", doc.Heatmap, "lo", "hi", "bucket_width", "reads", "writes")
	var heat adaptix.HeatSnapshot
	if err := json.Unmarshal(doc.Heatmap, &heat); err != nil {
		t.Fatal(err)
	}
	if heat.BucketWidth <= 0 {
		t.Fatalf("heatmap not installed: %+v", heat)
	}
	var reads int64
	for _, v := range heat.Reads {
		reads += v
	}
	if reads == 0 {
		t.Fatal("10 range queries left no heatmap reads")
	}
	if len(doc.ShardStats) != 4 {
		t.Fatalf("%d shard_stats entries, want 4", len(doc.ShardStats))
	}

	code, body = getJSON(t, ix, "/health")
	if code != 200 {
		t.Fatalf("/health status %d on a healthy index\n%s", code, body)
	}
	wantKeys(t, "/health", body, "status", "when", "rules")
	var rep adaptix.HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Rules) != 6 {
		t.Fatalf("healthy report = %+v, want 6 ok rules", rep)
	}
	for _, r := range rep.Rules {
		if r.Evidence == nil {
			t.Fatalf("rule %q serialized without evidence", r.Rule)
		}
	}
}

// TestHealthWALGrowthDegrades forces the wal-since-checkpoint rule on
// a durable index: with a 1-byte budget, the first logged writes since
// the initial checkpoint degrade the rule (and flip /health to 503);
// the next checkpoint resets the gauges and the rule recovers.
func TestHealthWALGrowthDegrades(t *testing.T) {
	dir := t.TempDir()
	ix, err := adaptix.Open(dir,
		adaptix.WithValues(seqValues(1024)),
		adaptix.WithNoSync(),
		adaptix.WithLogWrites(),
		adaptix.WithCheckpointEvery(1_000_000),
		adaptix.WithHealth(adaptix.HealthOptions{Interval: -1, MaxWALBytes: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	for i := int64(0); i < 64; i++ {
		if err := ix.Insert(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	rep := ix.Health()
	if rep.OK() {
		t.Fatalf("report ok despite WAL growth over a 1-byte budget: %+v", rep)
	}
	var walRule adaptix.HealthRule
	for _, r := range rep.Rules {
		if r.Rule == "wal-since-checkpoint" {
			walRule = r
		} else if r.Status != adaptix.HealthOK {
			t.Fatalf("unrelated rule degraded: %+v", r)
		}
	}
	if walRule.Status != adaptix.HealthDegraded || walRule.Reason == "" {
		t.Fatalf("wal rule = %+v, want degraded with reason", walRule)
	}
	if code, _ := getJSON(t, ix, "/health"); code != 503 {
		t.Fatalf("/health status %d while degraded, want 503", code)
	}

	if !ix.Checkpoint() {
		t.Fatal("checkpoint failed")
	}
	if rep := ix.Health(); !rep.OK() {
		t.Fatalf("report still degraded after checkpoint reset: %+v", rep)
	}
	if code, _ := getJSON(t, ix, "/health"); code != 200 {
		t.Fatal("/health did not recover to 200")
	}
}

// TestHealthConvergenceStagnation runs the workload the stagnation
// rule was written for: a strictly sequential scan of the key space
// over a cracked index. Cracking at the query bounds alone would cut
// the predicate's fringe off the one big unrefined piece every time and
// keep rows touched per query flat near the column size. It cannot
// happen to a fresh column: the build lays it out in pieces of a few
// thousand rows, so a sweep re-cracks the rest of one such piece at
// worst, every window's mean stays under the rule's floor from the
// first, and the rule stays ok. (What keeps a sweep over one large piece
// from stagnating — the sampled quantile cuts — is crackindex's policy
// test; the rule itself is exercised by a synthetic flat series in
// internal/health.)
func TestHealthConvergenceStagnation(t *testing.T) {
	const n = 1 << 20
	ix, err := adaptix.New(seqValues(n),
		adaptix.WithShards(1), // one latch domain: the paper's original setting
		adaptix.WithHealth(adaptix.HealthOptions{Interval: -1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	// 2048 queries fill the rule's eight convergence windows; on one
	// unrefined piece each would touch the ~n-sized tail.
	for i := int64(0); i < 2048; i++ {
		if _, err := ix.Count(ctx, i*100, i*100+100); err != nil {
			t.Fatal(err)
		}
	}
	rep := ix.Health()
	var conv adaptix.HealthRule
	for _, r := range rep.Rules {
		if r.Rule == "convergence-stagnation" {
			conv = r
		}
	}
	series := ix.Stats().Convergence.Series
	if conv.Status != adaptix.HealthOK {
		t.Fatalf("sequential workload tripped stagnation: %+v (series %v)", conv, series)
	}
	early, late := conv.Evidence["early_mean_rows"], conv.Evidence["late_mean_rows"]
	if floor := conv.Evidence["min_rows"]; early == 0 || early > floor || late > floor {
		t.Fatalf("rows touched per query left the floor of %d: %d -> %d (series %v)", floor, early, late, series)
	}
	var tail int64 // the late half of the eight windows the rule reads
	for _, v := range series[max(0, len(series)-4):] {
		tail += v
	}
	if len(series) < 8 || tail/4 != late {
		t.Fatalf("series %v inconsistent with the verdict's evidence %+v", series, conv.Evidence)
	}
	if code, _ := getJSON(t, ix, "/health"); code != 200 {
		t.Fatal("/health not 200 under a sequential sweep")
	}
}

// TestConvergenceStatsPopulated checks the Stats().Convergence readout
// end to end: touched quantiles, the covered-aggregate hit rate, and
// the per-shard piece profile in ShardStats.
func TestConvergenceStatsPopulated(t *testing.T) {
	ix, err := adaptix.New(seqValues(8192), adaptix.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	// Broad queries: middle shards are fully covered by the predicate
	// and answered from aggregates.
	for i := int64(0); i < 40; i++ {
		if _, err := ix.Sum(ctx, 10+i, 8000+i); err != nil {
			t.Fatal(err)
		}
	}
	cs := ix.Stats().Convergence
	if cs.Queries != 40 {
		t.Fatalf("Convergence.Queries = %d, want 40", cs.Queries)
	}
	if cs.TouchedP99 <= 0 {
		t.Fatal("TouchedP99 not populated")
	}
	if cs.Covered == 0 || cs.CoveredFrac <= 0 || cs.CoveredFrac >= 1 {
		t.Fatalf("covered-aggregate stats = %d/%d frac %.2f, want partial coverage",
			cs.Covered, cs.Visits, cs.CoveredFrac)
	}
	for _, s := range ix.Stats().Shards {
		if s.Pieces > 1 && (s.MaxPieceFrac <= 0 || s.MaxPieceFrac > 1) {
			t.Fatalf("shard %d piece profile out of range: %+v", s.Shard, s)
		}
		if s.Pieces > 1 && s.PieceEntropy < 0 || s.PieceEntropy > 1 {
			t.Fatalf("shard %d entropy %f out of [0,1]", s.Shard, s.PieceEntropy)
		}
	}
}

// TestRecoveryStatsExposed checks the recovery-time breakdown: zero
// for in-memory indexes, populated after a durable reopen.
func TestRecoveryStatsExposed(t *testing.T) {
	mem, err := adaptix.New(seqValues(128))
	if err != nil {
		t.Fatal(err)
	}
	if bd := mem.RecoveryStats(); bd != (adaptix.RecoveryBreakdown{}) {
		t.Fatalf("in-memory RecoveryStats = %+v, want zero", bd)
	}
	mem.Close()

	dir := t.TempDir()
	ix, err := adaptix.Open(dir, adaptix.WithValues(seqValues(2048)), adaptix.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 20; i++ {
		if _, err := ix.Count(ctx, i*50, i*50+100); err != nil {
			t.Fatal(err)
		}
	}
	ix.Checkpoint()
	ix.Close()

	ix, err = adaptix.Open(dir, adaptix.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if !ix.Recovered() {
		t.Fatal("reopen did not recover")
	}
	bd := ix.RecoveryStats()
	if bd.CheckpointLoad <= 0 || bd.WALScan <= 0 || bd.Replay <= 0 {
		t.Fatalf("recovered breakdown not populated: %+v", bd)
	}
}
