// Package experiments regenerates every figure of the paper's
// experimental analysis (§6). Each FigNN function runs the
// corresponding experiment at a configurable scale and renders the
// same rows/series the paper plots; the returned report also carries
// the raw numbers so benchmarks and tests can assert the expected
// qualitative shapes (who wins, where the crossovers fall).
//
// Scale substitution: the paper uses 100 million tuples on a 4-core
// i7-2600. The default here is 1-2 million rows (flag-scalable); all
// trends reproduced by these experiments — adaptive per-query cost
// decay, conflict decay, scaling with clients up to the core count,
// the piece-vs-column latch gap — are qualitative and size-invariant.
package experiments

import (
	"fmt"
	"io"
	"time"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/harness"
	"adaptix/internal/metrics"
	"adaptix/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// Rows is the base-table size (paper: 100M; default 1M).
	Rows int
	// Queries is the sequence length for Figures 12-15 (paper: 1024).
	Queries int
	// Clients is the concurrency sweep (paper: 1..32).
	Clients []int
	// Seed makes runs deterministic.
	Seed uint64
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Rows == 0 {
		c.Rows = 1 << 20
	}
	if c.Queries == 0 {
		c.Queries = 1024
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8, 16, 32}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) dataset() *workload.Dataset {
	return workload.NewUniqueUniform(c.Rows, c.Seed)
}

// crack presents a cracked column as the "crack" engine.
func crack(ix *crackindex.Index) engine.Engine {
	return engine.Named(engine.SourceFromIndex(ix), "crack")
}

func pieceCrack(d *workload.Dataset) engine.Engine {
	return crack(crackindex.New(d.Values, crackindex.Options{
		Latching: crackindex.LatchPiece,
	}))
}

// Fig11 reproduces Figure 11: per-query response time (a) and running
// average (b) of 10 serial range-count queries at 10% selectivity for
// scan, full sort, and cracking.
type Fig11Report struct {
	// PerQuery[engine][i] is query i's response time.
	PerQuery map[string][]time.Duration
	// RunningAvg[engine][i] is the running average after query i.
	RunningAvg map[string][]time.Duration
	// CrossoverQuery is the 1-based query index at which cracking's
	// running average drops below scan's (0 = never).
	CrossoverQuery int
}

// Fig11 runs the experiment and renders the two panels to w.
func Fig11(cfg Config, w io.Writer) *Fig11Report {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	qs := workload.Fixed(workload.NewUniform(workload.Count, d.Domain, 0.10, cfg.Seed+1), 10)
	rep := &Fig11Report{
		PerQuery:   map[string][]time.Duration{},
		RunningAvg: map[string][]time.Duration{},
	}
	for _, e := range []engine.Engine{
		baseline.NewScan(d.Values),
		baseline.NewFullSort(d.Values),
		pieceCrack(d),
	} {
		run := harness.Sequential(e, qs)
		for _, c := range run.Series.Costs {
			rep.PerQuery[e.Name()] = append(rep.PerQuery[e.Name()], c.Response)
		}
		rep.RunningAvg[e.Name()] = run.Series.RunningAverage()
	}
	for i := range rep.RunningAvg["crack"] {
		if rep.RunningAvg["crack"][i] < rep.RunningAvg["scan"][i] {
			rep.CrossoverQuery = i + 1
			break
		}
	}
	if w != nil {
		t := &metrics.Table{Header: []string{"query", "scan", "sort", "crack", "avg(scan)", "avg(sort)", "avg(crack)"}}
		for i := 0; i < 10; i++ {
			t.Add(fmt.Sprint(i+1),
				metrics.FormatDuration(rep.PerQuery["scan"][i]),
				metrics.FormatDuration(rep.PerQuery["sort"][i]),
				metrics.FormatDuration(rep.PerQuery["crack"][i]),
				metrics.FormatDuration(rep.RunningAvg["scan"][i]),
				metrics.FormatDuration(rep.RunningAvg["sort"][i]),
				metrics.FormatDuration(rep.RunningAvg["crack"][i]))
		}
		fmt.Fprintf(w, "Figure 11: basic performance, sequential execution (%d rows, sel 10%%)\n%s", cfg.Rows, t)
		fmt.Fprintf(w, "crack running-average crosses below scan at query %d\n\n", rep.CrossoverQuery)
	}
	return rep
}

// Fig12Report reproduces Figure 12: total time (a) and throughput (b)
// for the full query sequence at increasing client counts.
type Fig12Report struct {
	Clients []int
	// Total[engine][i] is the wall-clock time for all queries with
	// Clients[i] concurrent clients.
	Total map[string][]time.Duration
	// Throughput[engine][i] is queries/second.
	Throughput map[string][]float64
}

// Fig12 runs the experiment (Q2 sum queries, 0.01% selectivity).
func Fig12(cfg Config, w io.Writer) *Fig12Report {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.0001, cfg.Seed+2), cfg.Queries)
	rep := &Fig12Report{
		Clients:    cfg.Clients,
		Total:      map[string][]time.Duration{},
		Throughput: map[string][]float64{},
	}
	factories := map[string]func() engine.Engine{
		"scan":  func() engine.Engine { return baseline.NewScan(d.Values) },
		"sort":  func() engine.Engine { return baseline.NewFullSort(d.Values) },
		"crack": func() engine.Engine { return pieceCrack(d) },
	}
	for _, name := range []string{"scan", "sort", "crack"} {
		for _, runs := range [][]*harness.Run{harness.Sweep(factories[name], qs, cfg.Clients)} {
			for _, r := range runs {
				rep.Total[name] = append(rep.Total[name], r.Elapsed)
				rep.Throughput[name] = append(rep.Throughput[name], r.Throughput())
			}
		}
	}
	if w != nil {
		t := &metrics.Table{Header: []string{"clients", "scan", "sort", "crack", "scan q/s", "sort q/s", "crack q/s"}}
		for i, c := range cfg.Clients {
			t.Add(fmt.Sprint(c),
				metrics.FormatDuration(rep.Total["scan"][i]),
				metrics.FormatDuration(rep.Total["sort"][i]),
				metrics.FormatDuration(rep.Total["crack"][i]),
				fmt.Sprintf("%.0f", rep.Throughput["scan"][i]),
				fmt.Sprintf("%.0f", rep.Throughput["sort"][i]),
				fmt.Sprintf("%.0f", rep.Throughput["crack"][i]))
		}
		fmt.Fprintf(w, "Figure 12: total time and throughput for %d sum queries (sel 0.01%%), %d rows\n%s\n",
			cfg.Queries, cfg.Rows, t)
	}
	return rep
}

// Fig13Report reproduces Figure 13: the administrative overhead of
// concurrency control under sequential execution.
type Fig13Report struct {
	Enabled  time.Duration // piece latches active
	Disabled time.Duration // all CC machinery off
	// OverheadPct = (Enabled-Disabled)/Disabled * 100.
	OverheadPct float64
}

// Fig13 runs the same sequential 1024-query sequence twice: once with
// the full piece-latch machinery, once with concurrency control
// disabled, and reports the difference.
func Fig13(cfg Config, w io.Writer) *Fig13Report {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.0001, cfg.Seed+3), cfg.Queries)
	run := func(mode crackindex.LatchMode) time.Duration {
		e := crack(crackindex.New(d.Values, crackindex.Options{Latching: mode}))
		return harness.Sequential(e, qs).Elapsed
	}
	rep := &Fig13Report{}
	// Alternate repetitions and keep the minimum of each mode: the
	// difference of minima isolates the deterministic administrative
	// cost from scheduler and GC noise.
	const reps = 3
	for i := 0; i < reps; i++ {
		if e := run(crackindex.LatchPiece); rep.Enabled == 0 || e < rep.Enabled {
			rep.Enabled = e
		}
		if d := run(crackindex.LatchNone); rep.Disabled == 0 || d < rep.Disabled {
			rep.Disabled = d
		}
	}
	rep.OverheadPct = 100 * (rep.Enabled.Seconds() - rep.Disabled.Seconds()) / rep.Disabled.Seconds()
	if w != nil {
		t := &metrics.Table{Header: []string{"concurrency control", "total time"}}
		t.Add("enabled (piece latches)", metrics.FormatDuration(rep.Enabled))
		t.Add("disabled", metrics.FormatDuration(rep.Disabled))
		fmt.Fprintf(w, "Figure 13: CC administrative overhead, sequential, %d sum queries, %d rows\n%s",
			cfg.Queries, cfg.Rows, t)
		fmt.Fprintf(w, "overhead: %.2f%%\n\n", rep.OverheadPct)
	}
	return rep
}

// Fig14Report reproduces Figure 14: total time for the query sequence
// across {Q1 count, Q2 sum} x {column, piece} latches, a selectivity
// sweep, and a client sweep.
type Fig14Report struct {
	Clients       []int
	Selectivities []float64
	// Total[panel][selIdx][clientIdx]; panels: "count/column",
	// "count/piece", "sum/column", "sum/piece".
	Total map[string][][]time.Duration
}

// Fig14Selectivities is the paper's sweep.
var Fig14Selectivities = []float64{0.0001, 0.001, 0.01, 0.10, 0.50, 0.90}

// Fig14 runs the four panels.
func Fig14(cfg Config, w io.Writer) *Fig14Report {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	rep := &Fig14Report{
		Clients:       cfg.Clients,
		Selectivities: Fig14Selectivities,
		Total:         map[string][][]time.Duration{},
	}
	panels := []struct {
		name string
		kind workload.QueryKind
		mode crackindex.LatchMode
	}{
		{"count/column", workload.Count, crackindex.LatchColumn},
		{"count/piece", workload.Count, crackindex.LatchPiece},
		{"sum/column", workload.Sum, crackindex.LatchColumn},
		{"sum/piece", workload.Sum, crackindex.LatchPiece},
	}
	for _, p := range panels {
		for si, sel := range rep.Selectivities {
			qs := workload.Fixed(workload.NewUniform(p.kind, d.Domain, sel, cfg.Seed+4+uint64(si)), cfg.Queries)
			runs := harness.Sweep(func() engine.Engine {
				return crack(crackindex.New(d.Values, crackindex.Options{Latching: p.mode}))
			}, qs, cfg.Clients)
			row := make([]time.Duration, len(runs))
			for i, r := range runs {
				row[i] = r.Elapsed
			}
			rep.Total[p.name] = append(rep.Total[p.name], row)
		}
		if w != nil {
			t := &metrics.Table{Header: append([]string{"selectivity \\ clients"}, intsToStrings(cfg.Clients)...)}
			for si, sel := range rep.Selectivities {
				cells := []string{fmt.Sprintf("%g%%", sel*100)}
				for ci := range cfg.Clients {
					cells = append(cells, metrics.FormatDuration(rep.Total[p.name][si][ci]))
				}
				t.Add(cells...)
			}
			fmt.Fprintf(w, "Figure 14 panel %s: total time, %d queries, %d rows\n%s\n",
				p.name, cfg.Queries, cfg.Rows, t)
		}
	}
	return rep
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// Fig15Report reproduces Figure 15: per-query wait time versus index
// refinement (crack) time as the workload sequence evolves, with 8
// concurrent clients, 50% selectivity, piece latches.
type Fig15Report struct {
	// Seq[i], CrackTime[i], WaitTime[i] describe query i in completion
	// order.
	CrackTime []time.Duration
	WaitTime  []time.Duration
	// Touched[i] is the number of rows query i partitioned or scanned:
	// the same decay as CrackTime, as a count no scheduler can blur.
	Touched []int64
	// Decay ratios: mean of last quarter / mean of first quarter.
	CrackDecay   float64
	WaitDecay    float64
	TouchedDecay float64
}

// Fig15 runs the experiment.
func Fig15(cfg Config, w io.Writer) *Fig15Report {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	qs := workload.Fixed(workload.NewUniform(workload.Sum, d.Domain, 0.50, cfg.Seed+5), cfg.Queries)
	run := harness.Execute(pieceCrack(d), qs, 8)
	rep := &Fig15Report{}
	for _, c := range run.Series.Costs {
		rep.CrackTime = append(rep.CrackTime, c.Refine)
		rep.WaitTime = append(rep.WaitTime, c.Wait)
		rep.Touched = append(rep.Touched, c.Touched)
	}
	rep.CrackDecay = decay(rep.CrackTime)
	rep.WaitDecay = decay(rep.WaitTime)
	rep.TouchedDecay = decay(rep.Touched)
	if w != nil {
		t := &metrics.Table{Header: []string{"query", "crack (refinement)", "wait"}}
		// Log-spaced sample of the sequence, like the paper's log axis.
		for i := 1; i <= len(rep.CrackTime); i *= 2 {
			t.Add(fmt.Sprint(i),
				metrics.FormatDuration(rep.CrackTime[i-1]),
				metrics.FormatDuration(rep.WaitTime[i-1]))
		}
		fmt.Fprintf(w, "Figure 15: per-query breakdown, 8 clients, sel 50%%, piece latches, %d rows\n%s",
			cfg.Rows, t)
		fmt.Fprintf(w, "decay (last quarter / first quarter): crack %.3f, wait %.3f, rows touched %.3f\n\n",
			rep.CrackDecay, rep.WaitDecay, rep.TouchedDecay)
	}
	return rep
}

// decay returns mean(last quarter)/mean(first quarter); < 1 means the
// series decreases over the sequence.
func decay[T time.Duration | int64](xs []T) float64 {
	if len(xs) < 8 {
		return 1
	}
	q := len(xs) / 4
	var first, last T
	for _, x := range xs[:q] {
		first += x
	}
	for _, x := range xs[len(xs)-q:] {
		last += x
	}
	if first == 0 {
		return 1
	}
	return float64(last) / float64(first)
}
