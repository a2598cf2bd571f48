package adaptix

import (
	"context"

	"adaptix/internal/crackindex"
	"adaptix/internal/durable"
	"adaptix/internal/engine"
	"adaptix/internal/epoch"
	"adaptix/internal/harness"
	"adaptix/internal/health"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/wcapture"
	"adaptix/internal/workload"
)

// Op is one batched write operation (Index.Apply).
type Op = ingest.Op

// ErrSentinelKey is the error of an Insert of math.MaxInt64, and of New
// or Open over initial values that hold it (see Index.Insert).
var ErrSentinelKey = shard.ErrSentinelKey

// Observability types surfaced by Index.Stats.
type (
	// ShardStat is a per-shard refinement-state snapshot (rows, pieces,
	// cracks, conflicts, epoch-chain depth).
	ShardStat = shard.ShardStat
	// EpochStat is an observability snapshot of one differential epoch
	// file (id, pending counts, sealed flag).
	EpochStat = epoch.Stat
	// IngestStats counts the write path's routed writes and structural
	// operations.
	IngestStats = ingest.Stats
	// OpStats is the per-query cost record every method reports and
	// Result embeds: latch wait, refinement time, fan-out critical
	// path, conflicts, epoch depth, rows touched, skipped refinement.
	OpStats = crackindex.OpStats
	// ObsStats is the quantile readout of the always-on latency
	// histograms (Stats.Obs, and the endpoint's /snapshot document).
	ObsStats = metrics.ObsSummary
	// FlightEvent is one flight-recorder entry: a sampled query span,
	// a stall (latch wait or writer park over the threshold), a
	// structural operation, or a health-rule transition
	// (Index.FlightDump, the endpoint's /flight).
	FlightEvent = metrics.Event
	// HeatSnapshot is the key-range access heatmap readout: per-bucket
	// read and write counts over the index's key domain
	// (ObsSnapshot.Heatmap; HeatSnapshot.Slice gives per-shard views).
	HeatSnapshot = metrics.HeatSnapshot
	// RecoveryBreakdown is the wall-clock cost of the three Open
	// phases: checkpoint-snapshot load, structural-WAL scan, and column
	// rebuild (Index.RecoveryStats).
	RecoveryBreakdown = durable.RecoveryBreakdown
)

// Workload capture & replay (WithWorkloadCapture, Index.Workload,
// WorkloadTrace, ReplayTrace, the endpoint's /workload route, and
// cmd/adaptixreplay).
type (
	// WorkloadStats is the live workload signature: read/write mix,
	// selectivity and width quantiles, inter-query key locality, and
	// the sequentiality score (Stats.Workload, the /workload route).
	WorkloadStats = wcapture.Signature
	// WorkloadRecord is one captured workload record: a query with its
	// bounds, tag, and answer checksum, or a routed write
	// (Index.WorkloadTrace, ReadWorkloadTrace).
	WorkloadRecord = wcapture.Record
	// ReplayOptions configures ReplayTrace: pacing against the capture
	// timestamps and checksum verification.
	ReplayOptions = wcapture.ReplayOptions
	// ReplayReport summarizes one replay run: records executed,
	// read/write split, mismatches, and throughput.
	ReplayReport = wcapture.Report
	// ReplayMismatch is one replay divergence: a record whose
	// re-executed result differed from the capture-time checksum.
	ReplayMismatch = wcapture.Mismatch
)

// Health watchdog (WithHealth, Index.Health, the endpoint's /health).
type (
	// HealthOptions tunes the watchdog's WAL-growth threshold and its
	// background evaluation interval (WithHealth).
	HealthOptions = health.Options
	// HealthReport is one full watchdog evaluation: an overall verdict
	// plus every rule's status, reason, and evidence values.
	HealthReport = health.Report
	// HealthRule is one rule's verdict inside a HealthReport.
	HealthRule = health.RuleResult
	// HealthStatus is a rule or report verdict (HealthOK or
	// HealthDegraded).
	HealthStatus = health.Status
)

// Health verdicts.
const (
	// HealthOK means the rule's (or every rule's) thresholds hold.
	HealthOK = health.OK
	// HealthDegraded means the rule fired; the report carries evidence.
	HealthDegraded = health.Degraded
)

// WithQueryTag returns a context carrying a query tag. Under
// WithWorkloadCapture every captured query made with this context
// carries the tag's hash (WorkloadRecord.Tag), so a trace can be split
// by caller. The tag rides the context through the fan-out executor,
// so it works for any shard count.
func WithQueryTag(ctx context.Context, tag string) context.Context {
	return crackindex.WithTag(ctx, tag)
}

// Workload generation (paper §6 set-up).
type (
	// Query is one range query (Lo <= A < Hi).
	Query = workload.Query
	// Dataset is a generated base column.
	Dataset = workload.Dataset
)

// Query kinds.
const (
	// CountQuery is Q1: select count(*) where v1 < A < v2.
	CountQuery = workload.Count
	// SumQuery is Q2: select sum(A) where v1 < A < v2.
	SumQuery = workload.Sum
)

// NewUniqueDataset builds n unique integers 0..n-1 in random order.
func NewUniqueDataset(n int, seed uint64) *Dataset {
	return workload.NewUniqueUniform(n, seed)
}

// UniformQueries draws n random range queries of the given kind and
// selectivity over [0, domain).
func UniformQueries(kind workload.QueryKind, domain int64, selectivity float64, seed uint64, n int) []Query {
	return workload.Fixed(workload.NewUniform(kind, domain, selectivity, seed), n)
}

// RunResult is the outcome of a (possibly concurrent) experiment run.
type RunResult = harness.Run

// Run drives the index with the query sequence split across the given
// number of concurrent clients, as in the paper's experiments.
func Run(ix *Index, queries []Query, clients int) *RunResult {
	return harness.Execute(engine.Named(ix.col, ix.method.String()), queries, clients)
}
