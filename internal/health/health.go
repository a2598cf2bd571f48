// Package health is the index watchdog: it periodically evaluates a
// fixed catalog of rules over the observer's instruments — writer-stall
// tail, epoch-chain depth, sealed-but-unapplied backlog, WAL growth
// since the last checkpoint, latch-stall storms, and convergence
// stagnation — and reports readiness as a structured per-rule verdict
// with the evidence values that produced it.
//
// The watchdog is the semantic layer above the raw metrics: a histogram
// tells you the writer-stall p99 is 80ms; the watchdog tells you that
// is degraded, why, and since when. Rule transitions are recorded in
// the flight recorder (EvHealth events), so "when did it go bad?" is
// answerable after the fact, and the facade serves the latest Report
// at /health with readiness semantics (HTTP 503 while degraded).
//
// Evaluation is cheap (histogram snapshots and a few gauge loads) and
// allocation is confined to the Report, so Eval can also run
// synchronously on every /health request — probes always see fresh
// state, not a stale ticker result.
package health

import (
	"fmt"
	"sync"
	"time"

	"adaptix/internal/metrics"
)

// Status is a rule or report verdict.
type Status string

const (
	// OK means the rule's thresholds hold.
	OK Status = "ok"
	// Degraded means the rule fired; the report carries the evidence.
	Degraded Status = "degraded"
)

// Rule names, in evaluation (and flight-recorder ordinal) order.
const (
	RuleWriterStall   = "writer-stall-p99"
	RuleEpochChain    = "epoch-chain-depth"
	RuleSealedBacklog = "sealed-unapplied-backlog"
	RuleWALGrowth     = "wal-since-checkpoint"
	RuleLatchStorm    = "latch-stall-storm"
	RuleConvergence   = "convergence-stagnation"
)

// Fixed rule thresholds.
const (
	// writerStallP99 degrades RuleWriterStall when the writer-park p99
	// reaches it.
	writerStallP99 = 100 * time.Millisecond
	// maxEpochChain degrades RuleEpochChain when any shard's epoch
	// chain exceeds this many files.
	maxEpochChain = 32
	// maxSealedUnapplied degrades RuleSealedBacklog when the total
	// sealed-but-unapplied epoch files exceed it.
	maxSealedUnapplied = 64
	// latchStallsPerSec degrades RuleLatchStorm when the latch-stall
	// rate between evaluations exceeds it.
	latchStallsPerSec = 1000
	// stagnationWindows is how many trailing decay-series points the
	// convergence rule examines (the rule never fires with fewer points
	// recorded).
	stagnationWindows = 8
	// stagnationMinRows is the mean rows-touched floor below which the
	// index counts as converged regardless of trend: the piece size
	// below which a crack stops cutting ahead of demand, so a sweep
	// through pieces that small stays flat by design and costs
	// microseconds a query.
	stagnationMinRows = 16 << 10
)

// Options tunes the watchdog. The zero value uses the defaults noted
// per field.
type Options struct {
	// Interval is the background evaluation period (default 5s;
	// negative disables the background loop — Eval still works on
	// demand, which is how /health stays accurate without a ticker).
	Interval time.Duration
	// MaxWALBytes degrades RuleWALGrowth when WAL bytes since the last
	// checkpoint exceed it (default 256 MiB).
	MaxWALBytes int64
}

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 5 * time.Second
	}
	if o.MaxWALBytes <= 0 {
		o.MaxWALBytes = 256 << 20
	}
	return o
}

// RuleResult is one rule's verdict with its evidence values.
type RuleResult struct {
	// Rule is the rule's catalog name.
	Rule string `json:"rule"`
	// Status is ok or degraded.
	Status Status `json:"status"`
	// Reason explains a degraded verdict ("" when ok).
	Reason string `json:"reason,omitempty"`
	// Evidence carries the measured values and thresholds the verdict
	// derives from (always present, so a scraper can graph the margin
	// while the rule is still ok).
	Evidence map[string]int64 `json:"evidence"`
}

// Report is one full watchdog evaluation.
type Report struct {
	// Status is Degraded when any rule fired.
	Status Status `json:"status"`
	// When is the evaluation time.
	When time.Time `json:"when"`
	// Rules holds every rule's verdict in catalog order.
	Rules []RuleResult `json:"rules"`
}

// OK reports whether every rule passed.
func (r *Report) OK() bool { return r.Status == OK }

// DepthFunc samples the engine state the observer cannot see on its
// own: the longest per-shard epoch chain and the total
// sealed-but-unapplied epoch files.
type DepthFunc func() (maxEpochChain, sealedUnapplied int64)

// Watchdog evaluates the rule catalog over one index's observer. Use
// New, then Start for background evaluation; Eval works regardless.
type Watchdog struct {
	opts  Options
	ob    *metrics.Observer
	depth DepthFunc

	mu         sync.Mutex // serializes Eval (rate bookkeeping + transitions)
	prevStalls int64
	prevWhen   time.Time
	wasBad     [6]bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a watchdog over ob. depth may be nil (the epoch rules
// then evaluate against zero depths and always pass).
func New(opts Options, ob *metrics.Observer, depth DepthFunc) *Watchdog {
	return &Watchdog{
		opts:  opts.withDefaults(),
		ob:    ob,
		depth: depth,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the background evaluation loop (no-op when the
// interval is negative). Safe to call once; pair with Stop.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		if w.opts.Interval < 0 {
			close(w.done)
			return
		}
		go func() {
			defer close(w.done)
			t := time.NewTicker(w.opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-t.C:
					w.Eval()
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it to exit.
// Safe to call without Start and to call twice.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.startOnce.Do(func() { close(w.done) }) // never started: nothing to wait for
	<-w.done
}

// Eval runs the full rule catalog now, refreshes the epoch-depth
// gauges, records rule transitions in the flight recorder, and returns
// the report.
func (w *Watchdog) Eval() Report {
	w.mu.Lock()
	defer w.mu.Unlock()

	now := time.Now()
	sum := w.ob.Summary()
	var maxChain, sealed int64
	if w.depth != nil {
		maxChain, sealed = w.depth()
	}
	w.ob.SetEpochDepth(maxChain, sealed)
	walBytes, walRecs := w.ob.WALSince()

	// Latch-stall rate since the previous evaluation.
	var stallRate float64
	if !w.prevWhen.IsZero() {
		if dt := now.Sub(w.prevWhen).Seconds(); dt > 0 {
			stallRate = float64(sum.LatchStalls-w.prevStalls) / dt
		}
	}
	w.prevStalls = sum.LatchStalls
	w.prevWhen = now

	rep := Report{Status: OK, When: now, Rules: make([]RuleResult, 0, 6)}
	add := func(rule string, bad bool, reason string, ev map[string]int64) {
		r := RuleResult{Rule: rule, Status: OK, Evidence: ev}
		if bad {
			r.Status = Degraded
			r.Reason = reason
			rep.Status = Degraded
		}
		i := len(rep.Rules)
		rep.Rules = append(rep.Rules, r)
		if bad != w.wasBad[i] {
			w.wasBad[i] = bad
			w.ob.RecordHealth(int64(i), bad)
		}
	}

	add(RuleWriterStall,
		sum.WriterStallP99 >= writerStallP99,
		fmt.Sprintf("writer-stall p99 %v >= %v", sum.WriterStallP99, writerStallP99),
		map[string]int64{
			"p99_ns":       int64(sum.WriterStallP99),
			"threshold_ns": int64(writerStallP99),
			"stalls":       sum.WriterStalls,
		})

	add(RuleEpochChain,
		maxChain > maxEpochChain,
		fmt.Sprintf("longest epoch chain %d > %d", maxChain, maxEpochChain),
		map[string]int64{"max_chain": maxChain, "threshold": maxEpochChain})

	add(RuleSealedBacklog,
		sealed > maxSealedUnapplied,
		fmt.Sprintf("sealed-unapplied epochs %d > %d", sealed, maxSealedUnapplied),
		map[string]int64{"sealed_unapplied": sealed, "threshold": maxSealedUnapplied})

	add(RuleWALGrowth,
		walBytes > w.opts.MaxWALBytes,
		fmt.Sprintf("WAL grew %d bytes since last checkpoint (> %d)", walBytes, w.opts.MaxWALBytes),
		map[string]int64{
			"bytes_since_checkpoint":   walBytes,
			"records_since_checkpoint": walRecs,
			"threshold_bytes":          w.opts.MaxWALBytes,
		})

	add(RuleLatchStorm,
		stallRate > latchStallsPerSec,
		fmt.Sprintf("latch stalls at %.0f/s > %d/s", stallRate, latchStallsPerSec),
		map[string]int64{
			"stalls_per_sec": int64(stallRate),
			"threshold":      latchStallsPerSec,
			"stalls_total":   sum.LatchStalls,
		})

	series := w.ob.ConvergenceSeries()
	stag, early, late := stagnating(series, stagnationWindows, stagnationMinRows)
	add(RuleConvergence, stag,
		fmt.Sprintf("rows touched per query not decaying (%d -> %d over %d windows)",
			early, late, stagnationWindows),
		map[string]int64{
			"early_mean_rows": early,
			"late_mean_rows":  late,
			"min_rows":        stagnationMinRows,
			"windows":         int64(len(series)),
		})

	return rep
}

// stagnating detects a non-decaying rows-touched series: over the last
// `windows` points, the late-half mean must have dropped below 80% of
// the early-half mean (or under minRows outright) to count as
// converging. Returns the two half-means as evidence.
func stagnating(series []int64, windows int, minRows int64) (bool, int64, int64) {
	if len(series) < windows || windows < 2 {
		return false, 0, 0
	}
	tail := series[len(series)-windows:]
	half := windows / 2
	var a, b int64
	for _, v := range tail[:half] {
		a += v
	}
	for _, v := range tail[half:] {
		b += v
	}
	early := a / int64(half)
	late := b / int64(len(tail)-half)
	if late <= minRows {
		return false, early, late
	}
	return late*10 >= early*8, early, late
}
