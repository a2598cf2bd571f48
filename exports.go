package adaptix

import (
	"context"

	"adaptix/internal/amerge"
	"adaptix/internal/column"
	"adaptix/internal/crackindex"
	"adaptix/internal/durable"
	"adaptix/internal/engine"
	"adaptix/internal/epoch"
	"adaptix/internal/harness"
	"adaptix/internal/health"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/lockmgr"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/sideways"
	"adaptix/internal/txn"
	"adaptix/internal/wal"
	"adaptix/internal/wcapture"
	"adaptix/internal/workload"
)

// Op is one batched write operation (Index.Apply).
type Op = ingest.Op

// ErrSentinelKey is the error of an Insert of math.MaxInt64, and of New
// or Open over initial values that hold it (see Index.Insert).
var ErrSentinelKey = shard.ErrSentinelKey

// Method-specific option structs, consumed by WithCrackOptions /
// WithMergeOptions / WithHybridOptions.
type (
	// CrackOptions configures latching mode, scheduling, conflict
	// policy and optimizations of the per-shard cracked indexes (Crack
	// method).
	CrackOptions = crackindex.Options
	// MergeOptions configures run size, merge budget and conflict
	// policy of the per-shard adaptive-merging indexes (AMerge method).
	MergeOptions = amerge.Options
	// HybridOptions configures partition size, layout and conflict
	// policy of the per-shard hybrid crack-sort indexes (Hybrid
	// method).
	HybridOptions = hybrid.Options
	// IngestOptions configures the write path (WithIngestOptions):
	// group-apply and split thresholds.
	IngestOptions = ingest.Options
)

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
	// TraceEvent is a latch/crack trace record (Figure 8 timelines),
	// delivered to CrackOptions.Tracer.
	TraceEvent = crackindex.TraceEvent
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

// Latching modes (paper §5.3), for CrackOptions.Latching. An Index
// always latches: WithCrackOptions refuses crackindex's LatchNone.
const (
	// LatchPiece: one latch per array piece — the finest granularity.
	LatchPiece = crackindex.LatchPiece
	// LatchColumn: one latch per column.
	LatchColumn = crackindex.LatchColumn
)

// WithQueryTag returns a context carrying a query tag: trace events
// emitted while serving a query with this context are labelled with
// the tag (the Figure 8 timeline labels). The tag rides the context
// through the fan-out executor, so it works for any shard count.
func WithQueryTag(ctx context.Context, tag string) context.Context {
	return crackindex.WithTag(ctx, tag)
}

// Sideways cracking (reference [22]; §5 "Other Adaptive Indexing
// Methods").
type (
	// SidewaysMap is a cracker map M(head, tail): aligned selection
	// and projection values reorganized together, so refined ranges
	// aggregate without positional fetches.
	SidewaysMap = sideways.Map
	// SidewaysOptions configures the map's conflict policy.
	SidewaysOptions = sideways.Options
)

// NewSidewaysMap creates a cracker map over aligned head/tail columns.
func NewSidewaysMap(head, tail []int64, opts SidewaysOptions) *SidewaysMap {
	return sideways.NewMap(head, tail, opts)
}

// Column-store kernel (paper §5.1, Figure 6).
type (
	// Table is a set of aligned dense columns.
	Table = column.Table
	// Executor evaluates bulk operator-at-a-time plans with cracking
	// selects.
	Executor = column.Executor
)

// NewTable creates an empty column-store table.
func NewTable(name string) *Table { return column.NewTable(name) }

// NewExecutor creates a plan executor over tab.
func NewExecutor(tab *Table, opts CrackOptions) *Executor {
	return column.NewExecutor(tab, opts)
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

// Transactions and locks (paper §3, Table 1).
type (
	// TxnManager creates user and system transactions.
	TxnManager = txn.Manager
	// Txn is one transaction.
	Txn = txn.Txn
	// LockMode is a transactional lock mode (IS, IX, S, SIX, U, X).
	LockMode = lockmgr.Mode
	// StructuralLog is the write-ahead log of Records: a stream of
	// encoded records into its sink. Adaptive merging logs its runs and
	// merge steps to it. A durable store (Open with WithLogWrites) logs
	// every write as a compact record straight into its own WALFileSink,
	// and never structural work.
	StructuralLog = wal.Log
)

// Lock modes.
const (
	IS  = lockmgr.IS
	IX  = lockmgr.IX
	SLk = lockmgr.S
	SIX = lockmgr.SIX
	ULk = lockmgr.U
	XLk = lockmgr.X
)

// NewTxnManager returns a transaction manager with a fresh lock
// manager.
func NewTxnManager() *TxnManager { return txn.NewManager() }

// Durable WAL sink (custom structural-log setups; Open wires one up
// automatically).
type (
	// WALFileSink is the durable segment-file sink of the WAL:
	// CRC-framed records copied into preallocated, shared-mapped
	// segments, fsync on Sync, segment rotation, and checkpoint
	// truncation. Its LogWrite is a durable store's logged write.
	WALFileSink = wal.FileSink
	// WALSinkOptions configures a WALFileSink.
	WALSinkOptions = wal.SinkOptions
)

// NewWALFileSink opens a segment-file sink over dir for a log (see
// WALFileSink).
func NewWALFileSink(dir string, opts WALSinkOptions) (*WALFileSink, error) {
	return wal.NewFileSink(dir, opts)
}

// SinkOption configures NewStructuralLog.
type SinkOption func(*sinkConfig)

type sinkConfig struct {
	sink *wal.FileSink
}

// WithSink makes the log stream every record to the given durable
// sink, fsyncing when Sync is called; the log itself then keeps no
// record. Without it the log's sink is an in-memory byte buffer of
// encoded records.
func WithSink(sink *WALFileSink) SinkOption {
	return func(c *sinkConfig) { c.sink = sink }
}

// NewStructuralLog returns a WAL (see StructuralLog). By default it is
// in memory: records accumulate, encoded, in a byte buffer that Records
// decodes. With WithSink it is durable and retains nothing: Records
// returns nil, and the records live only in the sink's segments.
func NewStructuralLog(opts ...SinkOption) *StructuralLog {
	var c sinkConfig
	for _, o := range opts {
		o(&c)
	}
	if c.sink == nil {
		return wal.New(nil)
	}
	return wal.New(c.sink)
}
