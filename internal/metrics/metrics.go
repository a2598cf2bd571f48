// Package metrics provides the measurement kernel for the experiments:
// atomic counters, per-query cost breakdowns (wait vs refinement vs scan
// time), running averages, and simple series formatting.
//
// The paper's Figure 15 plots, per query in the sequence, the time spent
// waiting on latches versus the time spent refining the index; Figure 13
// measures the administration overhead of the concurrency-control
// machinery itself. Both require instrumentation inside the latch and
// cracking paths, which this package supplies with minimal overhead.
package metrics

import (
	"fmt"
	"sort"
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

// QueryCost is the per-query breakdown recorded by the harness.
type QueryCost struct {
	// Seq is the global sequence number of the query (arrival order
	// across all clients, 0-based).
	Seq int
	// Client identifies the submitting client (0-based).
	Client int
	// Response is the end-to-end latency of the query.
	Response time.Duration
	// Wait is the total time spent blocked acquiring latches (both
	// write latches for cracking and read latches for aggregation).
	Wait time.Duration
	// Crack is the time spent physically refining the index (in-place
	// partitioning plus table-of-contents updates), under write latches.
	Crack time.Duration
	// Critical is the fan-out critical path: the slowest per-shard
	// sub-query's elapsed time (zero for single-domain engines). Wait
	// and Crack sum total work across cores; Critical is what a
	// latency-oriented experiment should plot instead.
	Critical time.Duration
	// Conflicts is the number of latch acquisitions that could not be
	// granted immediately.
	Conflicts int64
	// Touched is the number of rows the query physically visited
	// (partitioned by its cracks or scanned for its answer).
	Touched int64
	// Skipped reports whether the query forwent refinement due to a
	// conflict (conflict-avoidance mode).
	Skipped bool
}

// Series is an ordered collection of per-query costs.
type Series struct {
	Costs []QueryCost
}

// Total returns the sum of response times (NOT wall-clock; use the
// harness elapsed time for concurrent runs).
func (s *Series) Total() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Response
	}
	return t
}

// RunningAverage returns the running average response time after each
// query, i.e. the series of Figure 11(b).
func (s *Series) RunningAverage() []time.Duration {
	out := make([]time.Duration, len(s.Costs))
	var sum time.Duration
	for i, c := range s.Costs {
		sum += c.Response
		out[i] = sum / time.Duration(i+1)
	}
	return out
}

// SortBySeq orders the costs by global sequence number.
func (s *Series) SortBySeq() {
	sort.Slice(s.Costs, func(i, j int) bool { return s.Costs[i].Seq < s.Costs[j].Seq })
}

// TotalWait returns the summed latch wait time across all queries.
func (s *Series) TotalWait() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Wait
	}
	return t
}

// TotalCrack returns the summed index-refinement time across all queries.
func (s *Series) TotalCrack() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Crack
	}
	return t
}

// TotalCritical returns the summed fan-out critical-path time across
// all queries (the latency-oriented counterpart of TotalWait +
// TotalCrack, which measure total work).
func (s *Series) TotalCritical() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c.Critical
	}
	return t
}

// TotalConflicts returns the summed conflict count.
func (s *Series) TotalConflicts() int64 {
	var n int64
	for _, c := range s.Costs {
		n += c.Conflicts
	}
	return n
}

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
