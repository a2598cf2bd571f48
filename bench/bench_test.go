package main

import (
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	if isChild() { // durable_rw re-invokes this binary as its child
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// TestNamesMatchBenchmarkJSON holds spec.go and BENCHMARK.json in
// agreement and inside the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range checkSpec(raw) {
		t.Error(bad)
	}
}

// TestQuickSuite runs every workload at smoke-test scale, untraced and
// traced, and checks what they emit against the declared names: every
// workload reports every end-to-end metric, non-zero; every per-layer
// metric is reported by some traced workload; nothing undeclared is
// reported; no answer is wrong.
func TestQuickSuite(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range endToEnd {
		declared[m.name] = true
	}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	emitted := map[string]bool{}
	for _, traced := range []bool{false, true} {
		cfg := &runConfig{rows: quickRows, seed: 42, seconds: 0.4, trace: traced, quick: true,
			clients: 2, dir: t.TempDir(), exe: exe}
		outs, code := runSuite(cfg)
		if code != 0 {
			t.Fatalf("suite (traced %v) exited %d", traced, code)
		}
		for _, w := range workloads {
			out := outs[w.name]
			if out == nil {
				t.Fatalf("%s: no outcome", w.name)
			}
			if out.wrong != 0 || out.attempted < 1 {
				t.Errorf("%s: attempted %d, wrong %d", w.name, out.attempted, out.wrong)
			}
			for name := range out.metrics {
				if !declared[name] {
					t.Errorf("%s reports undeclared metric %q", w.name, name)
				}
				emitted[name] = true
			}
			if traced {
				continue
			}
			for _, m := range endToEnd {
				if v, ok := out.metrics[m.name]; !ok || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want reported and positive", w.name, m.name, v)
				}
			}
		}
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("metric %q is declared but no workload reported it", name)
		}
	}
}
