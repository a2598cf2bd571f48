package health

import (
	"sync/atomic"
	"testing"
	"time"

	"adaptix/internal/metrics"
)

func newObserver() *metrics.Observer {
	return metrics.NewObserver(metrics.ObserverOptions{})
}

// healthTransitions extracts the (rule, degraded) pairs of the EvHealth
// events in the flight recorder, oldest first.
func healthTransitions(ob *metrics.Observer) [][2]int64 {
	var out [][2]int64
	for _, ev := range ob.Flight().Dump() {
		if ev.Kind == metrics.EvHealth {
			out = append(out, [2]int64{ev.A, ev.B})
		}
	}
	return out
}

func ruleByName(t *testing.T, rep Report, name string) RuleResult {
	t.Helper()
	for _, r := range rep.Rules {
		if r.Rule == name {
			return r
		}
	}
	t.Fatalf("report has no rule %q: %+v", name, rep.Rules)
	return RuleResult{}
}

func TestIdleObserverPassesEveryRule(t *testing.T) {
	w := New(Options{}, newObserver(), nil)
	rep := w.Eval()
	if !rep.OK() || rep.Status != OK {
		t.Fatalf("idle report degraded: %+v", rep)
	}
	want := []string{RuleWriterStall, RuleEpochChain, RuleSealedBacklog,
		RuleWALGrowth, RuleLatchStorm, RuleConvergence}
	if len(rep.Rules) != len(want) {
		t.Fatalf("%d rules, want %d", len(rep.Rules), len(want))
	}
	for i, r := range rep.Rules {
		if r.Rule != want[i] {
			t.Fatalf("rule %d = %q, want %q (catalog order is the flight ordinal)", i, r.Rule, want[i])
		}
		if r.Status != OK || r.Reason != "" {
			t.Fatalf("rule %q: %+v, want ok with no reason", r.Rule, r)
		}
		if r.Evidence == nil {
			t.Fatalf("rule %q carries no evidence while ok", r.Rule)
		}
	}
	if n := len(healthTransitions(w.ob)); n != 0 {
		t.Fatalf("%d health transitions recorded for an all-ok eval, want 0", n)
	}
}

func TestWriterStallRuleDegrades(t *testing.T) {
	ob := newObserver()
	for i := 0; i < 32; i++ {
		ob.RecordWriterPark(0, 200*time.Millisecond)
	}
	w := New(Options{}, ob, nil)
	rep := w.Eval()
	if rep.OK() {
		t.Fatalf("report ok despite 200ms writer parks: %+v", rep)
	}
	r := ruleByName(t, rep, RuleWriterStall)
	if r.Status != Degraded || r.Reason == "" {
		t.Fatalf("writer-stall rule = %+v, want degraded with reason", r)
	}
	if r.Evidence["p99_ns"] < int64(100*time.Millisecond) {
		t.Fatalf("evidence p99 %d below the threshold that fired", r.Evidence["p99_ns"])
	}
	// The transition (ordinal 0, degraded) must be in the flight ring,
	// and a second eval in the same state must not duplicate it.
	w.Eval()
	if tr := healthTransitions(ob); len(tr) != 1 || tr[0] != [2]int64{0, 1} {
		t.Fatalf("health transitions = %v, want exactly [[0 1]]", tr)
	}
}

func TestEpochRulesUseDepthSamplerAndSetGauges(t *testing.T) {
	ob := newObserver()
	w := New(Options{}, ob, func() (int64, int64) { return 100, 200 })
	rep := w.Eval()
	if ruleByName(t, rep, RuleEpochChain).Status != Degraded {
		t.Fatal("epoch-chain rule ok at depth 100 (threshold 32)")
	}
	if ruleByName(t, rep, RuleSealedBacklog).Status != Degraded {
		t.Fatal("sealed-backlog rule ok at 200 (threshold 64)")
	}
	gauges := map[string]int64{}
	ob.Registry().VisitGauges(func(name string, v int64) { gauges[name] = v })
	if chain, sealed := gauges["adaptix_epoch_chain_len_max"], gauges["adaptix_epoch_sealed_unapplied"]; chain != 100 || sealed != 200 {
		t.Fatalf("eval did not refresh the depth gauges: chain %d sealed %d", chain, sealed)
	}
}

func TestWALGrowthRuleDegradesAndRecovers(t *testing.T) {
	ob := newObserver()
	ob.AddWALSince(300<<20, 10)
	w := New(Options{}, ob, nil)
	rep := w.Eval()
	r := ruleByName(t, rep, RuleWALGrowth)
	if r.Status != Degraded {
		t.Fatalf("wal-growth rule ok at 300 MiB since checkpoint: %+v", r)
	}
	if r.Evidence["records_since_checkpoint"] != 10 {
		t.Fatalf("evidence records = %d, want 10", r.Evidence["records_since_checkpoint"])
	}
	// A checkpoint resets the gauges; the rule must recover and the
	// recovery transition must be recorded.
	ob.ResetWALSince()
	rep = w.Eval()
	if ruleByName(t, rep, RuleWALGrowth).Status != OK {
		t.Fatal("wal-growth rule still degraded after checkpoint reset")
	}
	tr := healthTransitions(ob)
	if len(tr) != 2 || tr[0] != [2]int64{3, 1} || tr[1] != [2]int64{3, 0} {
		t.Fatalf("health transitions = %v, want [[3 1] [3 0]]", tr)
	}
}

func TestLatchStormRuleUsesRateBetweenEvals(t *testing.T) {
	ob := newObserver()
	w := New(Options{}, ob, nil)
	w.Eval() // establish the rate baseline
	for i := 0; i < 5000; i++ {
		ob.RecordLatchWait(5*time.Millisecond, true)
	}
	time.Sleep(20 * time.Millisecond)
	rep := w.Eval()
	r := ruleByName(t, rep, RuleLatchStorm)
	if r.Status != Degraded {
		t.Fatalf("latch-storm rule ok at ~250k stalls/s: %+v", r)
	}
	// With no new stalls the rate collapses and the rule recovers.
	time.Sleep(20 * time.Millisecond)
	if r := ruleByName(t, w.Eval(), RuleLatchStorm); r.Status != OK {
		t.Fatalf("latch-storm rule did not recover: %+v", r)
	}
}

func TestConvergenceRuleFiresOnFlatSeries(t *testing.T) {
	ob := newObserver()
	// The rule's full span of windows of a flat series above its floor.
	for i := 0; i < stagnationWindows*metrics.ConvWindow; i++ {
		ob.RecordQueryProfile(0, 1, 1, 0, 50_000)
	}
	w := New(Options{}, ob, nil)
	r := ruleByName(t, w.Eval(), RuleConvergence)
	if r.Status != Degraded {
		t.Fatalf("convergence rule ok on a flat 50k-row series: %+v", r)
	}
	if r.Evidence["late_mean_rows"] < 49_000 {
		t.Fatalf("late mean evidence = %d, want ~50000", r.Evidence["late_mean_rows"])
	}
}

func TestConvergenceRulePassesOnDecayingSeries(t *testing.T) {
	ob := newObserver()
	// Early windows mean ~50k, late ones ~35k: a healthy decay that
	// stays above the floor, so the trend alone decides.
	for i := 0; i < stagnationWindows/2*metrics.ConvWindow; i++ {
		ob.RecordQueryProfile(0, 1, 1, 0, 50_000)
	}
	for i := 0; i < stagnationWindows/2*metrics.ConvWindow; i++ {
		ob.RecordQueryProfile(0, 1, 1, 0, 35_000)
	}
	w := New(Options{}, ob, nil)
	if r := ruleByName(t, w.Eval(), RuleConvergence); r.Status != OK {
		t.Fatalf("convergence rule fired on a decaying series: %+v", r)
	}
}

func TestStagnating(t *testing.T) {
	cases := []struct {
		name    string
		series  []int64
		windows int
		minRows int64
		want    bool
	}{
		{"too-few-points", []int64{10, 10}, 4, 1, false},
		{"flat-high", []int64{100, 100, 100, 100}, 4, 1, true},
		{"decaying", []int64{100, 100, 10, 10}, 4, 1, false},
		{"flat-but-converged", []int64{100, 100, 100, 100}, 4, 100, false},
		{"rising", []int64{10, 10, 100, 100}, 4, 1, true},
	}
	for _, c := range cases {
		if got, _, _ := stagnating(c.series, c.windows, c.minRows); got != c.want {
			t.Errorf("%s: stagnating = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStartStopLifecycle(t *testing.T) {
	ob := newObserver()
	var evals atomic.Int64
	w := New(Options{Interval: time.Millisecond}, ob, func() (int64, int64) {
		evals.Add(1)
		return 0, 0
	})
	w.Start()
	deadline := time.Now().Add(2 * time.Second)
	for evals.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never evaluated")
		}
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	w.Stop() // idempotent

	// Stop without Start must not hang; on-demand Eval works regardless.
	w2 := New(Options{Interval: -1}, ob, nil)
	w2.Start() // negative interval: no goroutine
	if rep := w2.Eval(); len(rep.Rules) != 6 {
		t.Fatalf("on-demand Eval: %d rules, want 6", len(rep.Rules))
	}
	w2.Stop()
	New(Options{}, ob, nil).Stop()
}
