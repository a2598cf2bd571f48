// Package metrics provides the measurement kernel for the experiments:
// atomic counters, histograms, the observer and its flight recorder, and
// simple table formatting. (The per-query cost record itself is
// crackindex.OpStats; the harness collects it per query.)
//
// The paper's Figure 15 plots, per query in the sequence, the time spent
// waiting on latches versus the time spent refining the index; Figure 13
// measures the administration overhead of the concurrency-control
// machinery itself. Both require instrumentation inside the latch and
// cracking paths, which this package supplies with minimal overhead.
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// DurationCounter accumulates elapsed time atomically (nanoseconds).
type DurationCounter struct {
	ns atomic.Int64
}

// Add accumulates d.
func (d *DurationCounter) Add(dur time.Duration) { d.ns.Add(int64(dur)) }

// Load returns the accumulated duration.
func (d *DurationCounter) Load() time.Duration { return time.Duration(d.ns.Load()) }

// Table renders rows of (label, value) series as an aligned ASCII table,
// used by cmd/figures to print paper-shaped output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatDuration renders d with 3 significant decimals in the most
// readable unit, for table output.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.3fus", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
