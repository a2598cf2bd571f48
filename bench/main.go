// Command bench is the repo benchmark: seven paper-shaped workloads
// reporting the same five end-to-end metrics, every answer checked
// against an oracle, plus a traced run that reports the per-layer
// ladder. See README.md in this directory and BENCHMARK.json at the
// repo root.
//
//	bench -workload warm_point -seed 42 -seconds 8 -trace 0   one workload, result as the last line (JSON)
//	bench                                                     every workload, untraced
//	bench -trace 1                                            every workload, traced (per-layer metrics)
//	bench -selfcheck 2                                        two untraced suites, compared against the bounds
//	bench -quick                                              small and short, for the smoke test
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if isChild() {
		os.Exit(childMain())
	}
	var (
		workload  = flag.String("workload", "", "run this workload only and print the result object as the last line (default: all)")
		seed      = flag.Uint64("seed", 42, "workload seed: data, queries and write streams derive from it")
		seconds   = flag.Float64("seconds", 8, "length of each workload's timed phase")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke-test scale: 256 Ki rows, one set-up, sub-second phases")
		selfcheck = flag.Int("selfcheck", 0, "run the untraced suite N times (at least 2) and compare the medians against the bounds")
		dir       = flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for durable stores and span dumps")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	cfg := &runConfig{
		rows:    fullRows,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace != 0,
		quick:   *quick,
		clients: min(runtime.NumCPU(), maxClients),
		dir:     *dir,
	}
	if cfg.quick {
		cfg.rows = quickRows
		cfg.seconds = min(cfg.seconds, 0.4)
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	// run.sh starts the program at the root of the checkout.
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if bad := checkSpec(raw); len(bad) > 0 {
			fatalf("BENCHMARK.json and spec.go disagree:\n  %s", strings.Join(bad, "\n  "))
		}
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.exe = exe
	printHeader(cfg)

	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(cfg, max(*selfcheck, 2)))
	case *workload != "":
		os.Exit(runOne(cfg, *workload))
	default:
		_, code := runSuite(cfg)
		os.Exit(code)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload runs one workload in its own scratch directory and, in a
// traced run, adds the ladder rungs.
func runWorkload(cfg *runConfig, w *workloadSpec) (*outcome, error) {
	wcfg := *cfg
	wcfg.workload = w.name
	out, err := w.run(&wcfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		if err := runLadder(&wcfg, out); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
	}
	out.metrics["bench.fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	return out, nil
}

// reported returns the metric list of this kind of run.
func reported(cfg *runConfig) []metricSpec {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the object printed as the last line of a
// single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(cfg *runConfig, name string) int {
	w := findWorkload(name)
	if w == nil {
		fatalf("unknown workload %q", name)
	}
	out, err := runWorkload(cfg, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printOutcome(cfg, w, out)
	line := resultLine{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	// The result line carries every metric of the run's kind, as the
	// contract behind BENCHMARK.json requires: a per-layer metric of a
	// layer this workload never entered reads 0 here, and is left out
	// of the table printed above.
	for _, m := range reported(cfg) {
		line.Metrics[m.name] = metricValue{Value: out.metrics[m.name], Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if out.wrong > 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload once and prints every metric by name.
func runSuite(cfg *runConfig) (map[string]*outcome, int) {
	outs := map[string]*outcome{}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		out, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return outs, 1
		}
		outs[w.name] = out
		printOutcome(cfg, w, out)
		if out.wrong > 0 {
			code = 1
		}
	}
	return outs, code
}

// runSelfcheck demonstrates that two sets of runs of the same code
// agree: it runs the untraced suite n times and, per metric and
// workload, compares the median of the first half of the runs with
// the median of the second half against the metric's bound.
func runSelfcheck(cfg *runConfig, n int) int {
	cfg.trace = false
	runs := make([]map[string]*outcome, 0, n)
	for i := 0; i < n; i++ {
		fmt.Printf("\n# selfcheck run %d of %d\n", i+1, n)
		outs, code := runSuite(cfg)
		if code != 0 {
			return code
		}
		runs = append(runs, outs)
	}
	fmt.Printf("\n# selfcheck: median of runs 1-%d vs runs %d-%d\n", n/2, n/2+1, n)
	fmt.Printf("%-14s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			var a, b []float64
			for i, outs := range runs {
				if i < n/2 {
					a = append(a, outs[w.name].metrics[m.name])
				} else {
					b = append(b, outs[w.name].metrics[m.name])
				}
			}
			first, second := median(a), median(b)
			worse := (second - first) / first
			if m.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", w.name, m.name, first, second, 100*worse, 100*m.bound, verdict)
		}
	}
	return code
}

func printHeader(cfg *runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value[:min(len(s.Value), 12)]
			}
		}
	}
	fmt.Printf("# adaptix bench: commit %s, %s, nproc %d, GOMAXPROCS %d, C %d clients\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.clients)
	fmt.Printf("# rows %d unique int64 (%d MiB), %d shards, seed %d, %.2fs timed phase, traced %v, dir %s on %s\n",
		cfg.rows, cfg.rows*8>>20, shards, cfg.seed, cfg.seconds, cfg.trace, cfg.dir, filesystem(cfg.dir))
}

// filesystem names the file system holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}

func printOutcome(cfg *runConfig, w *workloadSpec, out *outcome) {
	fmt.Printf("\n## %s: attempted %d, failed %d, wrong %d\n#  %s\n", w.name, out.attempted, out.failed, out.wrong, w.why)
	for _, n := range out.notes {
		fmt.Printf("#  %s\n", n)
	}
	for _, m := range reported(cfg) {
		v, ok := out.metrics[m.name]
		if !ok && cfg.trace {
			continue // a traced run prints only the layers it entered
		}
		fmt.Printf("%-14s %-38s %16.4f %-8s", w.name, m.name, v, m.unit)
		if s, ok := out.spread[m.name]; ok {
			fmt.Printf(" iqr %.4f", s)
		}
		if m.moves != "" {
			fmt.Printf("  -> %s", m.moves)
		}
		fmt.Println()
	}
	if cfg.trace {
		return
	}
	// Workload-scoped numbers an untraced run measures anyway.
	extra := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		if !slices.ContainsFunc(endToEnd, func(m metricSpec) bool { return m.name == name }) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-14s %-38s %16.4f (per-layer)\n", w.name, name, out.metrics[name])
	}
}
