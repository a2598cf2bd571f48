package adaptix

import (
	"fmt"
	"time"

	"adaptix/internal/amerge"
	"adaptix/internal/health"
	"adaptix/internal/hybrid"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/wcapture"
)

// Method selects the adaptive-indexing algorithm behind an Index. All
// five methods share the same query, write, and durability surface;
// they differ only in how each shard physically refines itself (paper
// §2 and §6 compare them head to head).
type Method int

const (
	// Crack is database cracking (paper §5): each query partitions the
	// touched pieces of a cracker array around its predicate bounds.
	// Cheap first touch, lazy convergence. The default.
	Crack Method = iota
	// AMerge is adaptive merging (paper §2/§4): sorted runs in a
	// partitioned B-tree, one merge step per query in the requested
	// key range. Expensive first touch, fast convergence.
	AMerge
	// Hybrid is the hybrid crack-sort (paper §2, Figure 4): unsorted
	// initial partitions cracked per query, qualifying values moved to
	// a sorted final partition. Cheap first touch, fast convergence.
	Hybrid
	// Sort is the full-indexing baseline: the first query sorts the
	// whole column, later queries binary-search.
	Sort
	// Scan is the no-indexing baseline: every query scans the column.
	Scan
)

// String returns the method's experiment-output name.
func (m Method) String() string {
	switch m {
	case Crack:
		return "crack"
	case AMerge:
		return "amerge"
	case Hybrid:
		return "hybrid"
	case Sort:
		return "sort"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// config is the resolved option set of one New/Open call.
type config struct {
	method Method
	shards int
	shard  shard.Options
	ingest ingest.Options
	// merge and hybrid are the per-shard options of the AMerge and
	// Hybrid methods: their package defaults, except in tests that
	// shrink the runs and partitions.
	merge  amerge.Options
	hybrid hybrid.Options

	// Durability (Open only).
	values          []int64
	segmentBytes    int64
	checkpointEvery int
	logWrites       bool
	syncEvery       int
	syncInterval    time.Duration
	noSync          bool
	// durableOnly names the first Open-only option a New call used, so
	// New can reject it instead of silently ignoring it.
	durableOnly string

	// Observability (WithObservability). The observer itself always
	// exists — counters and the flight recorder are always on; tracing
	// is what the option enables.
	obs     ObsOptions
	tracing bool

	// Health watchdog (WithHealth). The watchdog itself always exists
	// — /health and Index.Health evaluate on demand regardless; the
	// option tunes the thresholds and enables the background loop.
	health    HealthOptions
	healthSet bool

	// Workload capture (WithWorkloadCapture). The recorder itself
	// always exists — Stats().Workload and /workload serve a
	// schema-complete zero signature regardless; the option is what
	// arms recording (and the optional on-disk trace).
	capture    CaptureOptions
	captureSet bool
}

// Option configures New and Open.
type Option func(*config) error

func buildConfig(opts []Option) (*config, error) {
	cfg := &config{}
	for _, o := range opts {
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.method < Crack || cfg.method > Scan {
		return nil, fmt.Errorf("adaptix: unknown method %v", cfg.method)
	}
	return cfg, nil
}

// shardOptions resolves the shard.Options for the configured method;
// ob and cap are threaded down so every layer under the column records
// into the handle's one observer and one workload recorder.
func (c *config) shardOptions(ob *metrics.Observer, cap *wcapture.Recorder) shard.Options {
	s := c.shard
	if c.shards != 0 {
		s.Shards = c.shards
	}
	s.Source = c.newSource()
	s.Obs = ob
	s.Capture = cap
	return s
}

// newRecorder builds the handle's workload recorder: armed (ring,
// sampling, optional sink) under WithWorkloadCapture, otherwise a
// disabled recorder that still serves the zero signature.
func (c *config) newRecorder(ob *metrics.Observer) (*wcapture.Recorder, error) {
	return wcapture.New(wcapture.Options{
		SampleEvery: c.capture.SampleEvery,
		Ring:        c.capture.Ring,
		Sink:        c.capture.Sink,
		MaxBytes:    c.capture.MaxBytes,
	}, c.captureSet, ob)
}

// newObserver builds the handle's observer from the resolved config.
func (c *config) newObserver() *metrics.Observer {
	return metrics.NewObserver(metrics.ObserverOptions{
		Tracing:        c.tracing,
		SampleEvery:    c.obs.SampleEvery,
		StallThreshold: c.obs.StallThreshold,
	})
}

// WithMethod selects the adaptive-indexing method (default Crack).
func WithMethod(m Method) Option {
	return func(c *config) error {
		if m < Crack || m > Scan {
			return fmt.Errorf("adaptix: unknown method %v", m)
		}
		c.method = m
		return nil
	}
}

// WithShards sets the number of range partitions P (default
// runtime.GOMAXPROCS): queries fan out to the overlapping shards in
// parallel, writes route to the owning shard's epoch chain, and each
// shard is an independent latch domain. Use 1 for a single-domain
// index (the paper's original setting).
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("adaptix: WithShards(%d): need at least one shard", n)
		}
		c.shards = n
		return nil
	}
}

// WithSeed drives the shard-boundary sample (default 1), making
// partitioning deterministic per seed.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.shard.Seed = seed
		return nil
	}
}

// IngestOptions tunes the write path (WithIngestOptions). Zero values
// take the defaults noted on each field. Durability has options of its
// own: WithSyncEvery, WithSyncInterval and WithCheckpointEvery.
type IngestOptions struct {
	// ApplyThreshold is the number of pending writes in one shard that
	// triggers a group-apply merge (default 512).
	ApplyThreshold int
	// SplitFactor splits a shard whose row count exceeds SplitFactor
	// times the mean (default 2).
	SplitFactor float64
	// MinShardRows is the smallest shard the rebalancer splits
	// (default 2048).
	MinShardRows int
	// CheckEvery is the number of routed writes between background
	// maintenance wake-ups (default ApplyThreshold/2).
	CheckEvery int
}

// WithIngestOptions configures the write path: the group-apply
// threshold, the split thresholds and the maintenance cadence.
func WithIngestOptions(o IngestOptions) Option {
	return func(c *config) error {
		c.ingest = ingest.Options{
			ApplyThreshold: o.ApplyThreshold,
			SplitFactor:    o.SplitFactor,
			MinShardRows:   o.MinShardRows,
			CheckEvery:     o.CheckEvery,
		}
		return nil
	}
}

// WithValues supplies the initial contents of a durable store created
// by Open. Once the store has taken its first checkpoint the snapshot
// wins and WithValues is ignored on reopen. New rejects it — pass the
// values to New directly.
func WithValues(values []int64) Option {
	return func(c *config) error {
		c.values = values
		return nil
	}
}

// WithSegmentBytes sets the WAL segment size of a durable store: each
// segment is preallocated and mapped at it, and rotates once full
// (default 1 MiB). Open only.
func WithSegmentBytes(n int64) Option {
	return func(c *config) error {
		c.segmentBytes = n
		c.setDurableOnly("WithSegmentBytes")
		return nil
	}
}

// WithCheckpointEvery sets the number of structural operations
// (group-applies, splits, merges) between automatic checkpoints of a
// durable store (default 8). Open only.
func WithCheckpointEvery(n int) Option {
	return func(c *config) error {
		c.checkpointEvery = n
		c.setDurableOnly("WithCheckpointEvery")
		return nil
	}
}

// WithLogWrites enables data-tail durability on a durable store: every
// routed write is logged as one compact record (value + op + epoch id,
// about 15 bytes framed) and replayed past the checkpoint's epoch
// watermark on reopen, so a crash loses at most the not-yet-fsynced log
// tail instead of everything since the last checkpoint. Open only.
func WithLogWrites() Option {
	return func(c *config) error {
		c.logWrites = true
		c.setDurableOnly("WithLogWrites")
		return nil
	}
}

// WithSyncEvery bounds the crash loss window by record count: with
// WithLogWrites, the log is group-commit fsynced after every n logical
// records, so a crash loses at most n-1 of the newest writes. Zero
// (the default) uses the ingest ApplyThreshold (512 unless
// WithIngestOptions sets it). Open only.
func WithSyncEvery(n int) Option {
	return func(c *config) error {
		c.syncEvery = n
		c.setDurableOnly("WithSyncEvery")
		return nil
	}
}

// WithSyncInterval bounds the crash loss window in time: unsynced
// logical records are fsynced at least every d, even when the write
// rate never reaches WithSyncEvery. Open only.
func WithSyncInterval(d time.Duration) Option {
	return func(c *config) error {
		c.syncInterval = d
		c.setDurableOnly("WithSyncInterval")
		return nil
	}
}

// WithNoSync disables fsync on the WAL and snapshots (tests and
// benchmarks). A store written with WithNoSync is not crash-durable.
// Open only.
func WithNoSync() Option {
	return func(c *config) error {
		c.noSync = true
		c.setDurableOnly("WithNoSync")
		return nil
	}
}

// ObsOptions tunes the observability layer (WithObservability).
// Zero values take the defaults noted on each field.
type ObsOptions struct {
	// SampleEvery traces 1 in N queries end to end while tracing is
	// enabled (default 1: every query). The sampled spans feed the
	// end-to-end latency histogram and the flight recorder; the core
	// per-query histograms (wait, crack, critical path) record every
	// query regardless.
	SampleEvery int
	// StallThreshold classifies latch waits and writer parks as stall
	// events in the flight recorder (default 1ms). The recorder keeps
	// the newest 4096 events.
	StallThreshold time.Duration
}

// WithObservability enables per-query span tracing and tunes the
// observability knobs. Every index is observable without it — the
// lock-free histograms, stall detection, and the flight recorder are
// always on, and Observe() always serves — but end-to-end query spans
// (adaptix_query_latency_ns and the flight recorder's query events)
// are recorded only when tracing is enabled. Disabled tracing costs
// nothing measurable on the query path.
func WithObservability(o ObsOptions) Option {
	return func(c *config) error {
		if o.SampleEvery < 0 {
			return fmt.Errorf("adaptix: WithObservability: SampleEvery %d must be >= 0", o.SampleEvery)
		}
		c.obs = o
		c.tracing = true
		return nil
	}
}

// CaptureOptions tunes the workload recorder (WithWorkloadCapture).
// Zero values take the defaults noted on each field.
type CaptureOptions struct {
	// SampleEvery captures 1 in N operations (default 1: every
	// operation). Sampled-out operations cost one atomic add and
	// allocate nothing.
	SampleEvery int
	// Ring is the capture ring capacity in records — also the
	// in-memory retention WorkloadTrace() serves (default 8192,
	// minimum 64).
	Ring int
	// Sink, when non-empty, is the path of an on-disk binary trace
	// file the capture stream is persisted to (see
	// docs/OBSERVABILITY.md for the record format); load it back with
	// ReadWorkloadTrace or cmd/adaptixreplay. Empty keeps capture
	// in-memory only.
	Sink string
	// MaxBytes rotates the sink file when it exceeds this size (the
	// previous rotation is replaced, bounding disk use at about twice
	// MaxBytes). Default 256 MiB.
	MaxBytes int64
}

// WithWorkloadCapture arms the workload recorder: every sampled query
// (bounds, ctx tag, answer checksum, touched rows, epoch depth) and
// every sampled write (routed key, delete flag, found flag) is pushed
// through a lock-free ring into in-memory retention and, with
// CaptureOptions.Sink, an on-disk trace replayable by cmd/adaptixreplay
// or ReplayTrace. Every index carries a disabled recorder without this
// option — Stats().Workload and the endpoint's /workload route always
// serve — and the disabled path stays allocation-free inside the
// observability overhead budget.
func WithWorkloadCapture(o CaptureOptions) Option {
	return func(c *config) error {
		if o.SampleEvery < 0 {
			return fmt.Errorf("adaptix: WithWorkloadCapture: SampleEvery %d must be >= 0", o.SampleEvery)
		}
		if o.Ring < 0 {
			return fmt.Errorf("adaptix: WithWorkloadCapture: Ring %d must be >= 0", o.Ring)
		}
		if o.MaxBytes < 0 {
			return fmt.Errorf("adaptix: WithWorkloadCapture: MaxBytes %d must be >= 0", o.MaxBytes)
		}
		c.capture = o
		c.captureSet = true
		return nil
	}
}

// WithHealth tunes the health watchdog's WAL-growth threshold and
// enables its background evaluation loop (HealthOptions.Interval,
// default 5s); the other rule thresholds are fixed (see
// docs/OBSERVABILITY.md).
// Every index has a watchdog without it — Index.Health and the
// endpoint's /health route evaluate the rule catalog on demand either
// way — but only WithHealth starts periodic evaluation, which is what
// keeps the flight recorder's health-transition events timely when
// nobody is scraping.
func WithHealth(o HealthOptions) Option {
	return func(c *config) error {
		c.health = o
		c.healthSet = true
		return nil
	}
}

// healthOptions resolves the watchdog configuration: the user's
// options under WithHealth, otherwise defaults with the background
// loop disabled (on-demand evaluation only).
func (c *config) healthOptions() health.Options {
	if c.healthSet {
		return c.health
	}
	return health.Options{Interval: -1}
}

func (c *config) setDurableOnly(name string) {
	if c.durableOnly == "" {
		c.durableOnly = name
	}
}
