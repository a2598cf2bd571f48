// Package shard implements a range-partitioned, sharded adaptive
// index: the base column is split into P contiguous value ranges, each
// backed by its own cracked-column index (internal/crackindex) with
// independent piece latches, and range queries fan out to the
// overlapping shards in parallel.
//
// The paper's concurrency-control techniques let many clients refine
// one cracked column safely, but that column remains a single latch
// domain and a single memory region; on a multi-core machine the
// publishers' mutex and the hot head pieces serialize early refinement
// ("Main Memory Adaptive Indexing for Multi-core Systems", Alvarez et
// al., 2014, makes the same observation). Range partitioning removes
// the shared bottleneck at its root: queries whose ranges fall into
// different shards never touch a common latch, and a single broad
// query recruits several cores through the fan-out executor
// (executor.go). Within each shard the full per-piece protocol of the
// paper still applies, and per-shard refinement is robust under skewed
// and sequential ranges by default: every crack of a large piece also
// cuts it at sampled quantiles (compare "Stochastic Database Cracking",
// Halim et al., 2012; see crackindex's refine step).
//
// Shard boundaries are chosen from a seeded sample of the input
// (quantile cuts), so shards are balanced for any input distribution
// without a full sort, and the one copy a column makes of its input is a
// range scatter (build.go) that also cuts every shard into pieces of a
// few thousand rows for queries to refine. The column is mutable and
// self-adjusting: the
// write path (update.go) routes inserts and deletes to the owning
// shard's epoch chain (internal/epoch) — a chain of versioned
// differential files, net per value while open — and structural operations swap parts
// of the shard map atomically, reusing the piece-latch discipline one
// level up: readers navigate an immutable map snapshot and never block
// on a structural change, the same way piece readers never block on a
// crack of another piece. A group-apply merge seals only the shard's
// current epoch, so writers never park either: they roll over to the
// next epoch while the sealed prefix merges into the cracker array in
// the background. Online shard splits and merges cut the epoch chains
// consistently (every pending write folds into the successors' bases).
// Orchestration of those structural operations (thresholds, system
// transactions, WAL records) lives in internal/ingest.
package shard

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"adaptix/internal/crackindex"
	"adaptix/internal/engine"
	"adaptix/internal/epoch"
	"adaptix/internal/kernel"
	"adaptix/internal/metrics"
	"adaptix/internal/wcapture"
)

// Sentinel value bounds of the first and last shards.
const (
	minKey = math.MinInt64
	maxKey = math.MaxInt64
)

// Options configures a sharded column.
type Options struct {
	// Shards is the number of range partitions P. Default
	// runtime.GOMAXPROCS(0). Duplicate quantile cuts (heavily skewed or
	// tiny inputs) can reduce the effective count below P.
	Shards int
	// Seed drives the boundary sample. Default 1.
	Seed uint64
	// Index configures every per-shard cracked index (latching mode,
	// layout, scheduling, conflict policy, group cracking, ...).
	// Ignored when Source is set.
	Index crackindex.Options
	// Source, when non-nil, builds each per-shard index from the
	// shard's value slice instead of the default cracked index, so the
	// fan-out executor can drive any engine.AggregateSource — sharded
	// adaptive merging, sharded hybrid crack-sort, the baselines, each
	// as it is. Custom-source shards carry the same
	// epoch-chain write surface as cracked shards: Insert and
	// DeleteValue route into the owning shard's differential epochs,
	// group-applies rebuild the shard through the Source factory, and
	// splits/merges work unchanged — every method is writable. Only
	// carrying refinement over a rebuild is specific to cracked shards
	// (a source exposes no piece table).
	Source func(values []int64) engine.AggregateSource
	// Obs, when non-nil, receives the column's runtime observations:
	// per-query cost breakdowns, writer parks, and structural-operation
	// durations. It is also propagated into every per-shard cracked
	// index (Index.Obs) so latch waits are observed at the source.
	Obs *metrics.Observer
	// Capture, when non-nil and active, receives the workload stream:
	// every successful query's bounds, ctx tag, answer checksum,
	// touched rows, and epoch depth (the write-side records come from
	// internal/ingest). Nil-safe and disabled-by-default — the facade
	// threads a recorder through unconditionally.
	Capture *wcapture.Recorder
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Obs != nil && o.Index.Obs == nil {
		o.Index.Obs = o.Obs
	}
	return o
}

// partAgg holds one shard lineage's mutable aggregates. rows and
// total are exact logical values (base plus the net epoch chain);
// minA/maxA only ever widen, which keeps pruning and the
// fully-covered fast path conservative but correct (a deleted
// extremum leaves them stale-wide).
//
// The struct is shared by pointer between a part and the successor a
// group-apply publishes: the merge changes the physical layout, never
// the logical contents, so the aggregates carry over exactly and a
// writer racing the publish updates the same counters either way.
// Split and merge — which drain writers first — compute fresh exact
// aggregates instead.
type partAgg struct {
	rows  atomic.Int64
	total atomic.Int64
	minA  atomic.Int64 // maxKey while the shard is empty
	maxA  atomic.Int64 // minKey while the shard is empty
}

// part is one shard: a contiguous value range [loVal, hiVal) backed by
// its own index. The assigned range, the base multiset and the index
// identity are immutable after the part is published in a shard map;
// contents change only through the epoch-chain write path, and the
// precomputed aggregates track them atomically (see update.go for the
// ordering contract readers rely on).
//
// A cracked shard keeps ONE copy of its base: the cracker array its
// index owns (crackindex.NewOwned), which queries permute piece by
// piece and every reader of the contents — rebuilds, snapshots,
// Validate — reaches through the latched piece walk. Only custom-source
// shards, whose sources expose no piece table, keep a base slice.
type part struct {
	loVal, hiVal int64                  // assigned range [loVal, hiVal); sentinels at the ends
	base         []int64                // custom-source shards only: the slice the source was built over (immutable)
	ix           *crackindex.Index      // nil for custom-source shards
	src          engine.AggregateSource // query surface (adapts ix for cracked shards)

	// chain is the shard's versioned differential: pending writes in
	// a chain of epoch files (every shard has one,
	// including custom-source shards). baseEpoch is the epoch
	// watermark the base incorporates: the chain holds exactly the
	// epochs after it.
	chain     *epoch.Chain
	baseEpoch int64

	// agg is shared with the successor across a group-apply (see
	// partAgg).
	agg *partAgg

	// Write gate. Writers hold wmu.RLock around a routed update and
	// re-check sealed; a structural operation that must reroute
	// writers (split, merge — NOT the epoch-chain group-apply) seals
	// the part (blocking until in-flight writers
	// drain), rebuilds a successor, publishes the new shard map, and
	// closes replaced to wake parked writers.
	wmu      sync.RWMutex
	sealed   bool
	replaced chan struct{}
}

// shardMap is one immutable snapshot of the shard layout: shard i
// holds values in [bounds[i-1], bounds[i]) with sentinels at the ends.
// Structural operations build a new snapshot and swap the Column's
// pointer; readers load it once per query and keep a consistent view.
type shardMap struct {
	bounds []int64 // len(shards)-1 strictly increasing cut values
	rt     router  // bounds, laid out for the search
	shards []*part
}

func newShardMap(bounds []int64, shards []*part) *shardMap {
	return &shardMap{bounds: bounds, rt: newRouter(bounds), shards: shards}
}

// route returns the ordinal of the shard owning value v: the first shard
// whose upper bound exceeds it.
func (m *shardMap) route(v int64) int { return m.rt.of(v) }

// Column is a range-partitioned adaptive index over one column.
// It is safe for concurrent use, including concurrent updates and
// structural reorganization.
type Column struct {
	opts Options
	m    atomic.Pointer[shardMap]
	// sem bounds the fan-out sub-queries executing concurrently across
	// ALL queries on this column to Options.Shards (the caller's own
	// goroutine runs one sub-query per query without a slot, so client
	// concurrency itself is never throttled).
	sem chan struct{}

	// epochSeq allocates epoch ids: one monotonic counter per column,
	// so a single watermark orders every epoch of every shard (the
	// checkpoint cut recovery relies on).
	epochSeq atomic.Int64

	// structMu serializes structural operations (SealEpoch, ApplyShard,
	// SplitShard, MergeShards, SealAllEpochs). Queries and routed
	// updates never take it.
	structMu sync.Mutex
}

// nextEpochID allocates the next epoch id.
func (c *Column) nextEpochID() int64 { return c.epochSeq.Add(1) }

// New builds a sharded column over values. Boundary selection samples
// the input (sampleSize points); one range scatter (build)
// then copies each value once, into its shard's slice — and that slice IS
// the shard's cracker array: the per-shard index owns it, so the column
// holds one copy of the data and no first query pays an initialization
// copy. The scatter's ranges are finer than the shards: sampled quantiles
// cut each shard's range into pieces of about pieceTarget rows, so a
// fresh shard of two such pieces or more starts with a table of contents,
// not as one unrefined piece — for the price of a deeper cut table under
// a branch-free search (router), far less than a first query's crack of
// a whole shard. Nothing is sorted: below the target, all refinement
// stays a query side effect. (Custom-source shards get no pieces.)
func New(values []int64, opts Options) *Column {
	opts = opts.withDefaults()
	bounds := chooseBounds(values, opts.Shards, opts.Seed)
	return build(values, bounds, opts, pieceTarget, buildWorkers(len(values)))
}

// Image is a column's physical state as of one epoch watermark: the
// shard map, and every shard's array in piece order with the seed table
// of its pieces — exactly what NewOwned builds a shard's index from. A
// checkpoint persists it (ImageAt) and recovery adopts it (Restore), so
// a restart keeps every piece the column had, bit for bit.
type Image struct {
	// Epoch is the watermark W: the image holds every write of an epoch
	// <= W and none of a later one.
	Epoch int64
	// Bounds is the strictly increasing shard cut values (see Bounds).
	Bounds []int64
	// Shards holds one entry per shard, in shard order.
	Shards []ShardImage
}

// ShardImage is one shard of an Image: its array in piece order and a
// seed per piece boundary (the head piece has none; a custom-source
// shard is one piece).
type ShardImage struct {
	Values []int64
	Seeds  []crackindex.BoundaryPosition
}

// Restore builds a column over an image: one newPart per shard, whose
// index adopts the shard's array as is and seeds its table of contents
// from the image (crackindex.NewOwned; custom-source shards build their
// source over it) — no sample, no scatter, no crack. The epoch counter
// resumes at img.Epoch, so every epoch the column opens lies above it.
// The column takes ownership of the arrays. Seeds are trusted as
// NewOwned trusts them; Validate checks them against the data.
func Restore(img Image, opts Options) *Column {
	if len(img.Shards) != len(img.Bounds)+1 {
		panic(fmt.Sprintf("shard: image has %d shards for %d bounds", len(img.Shards), len(img.Bounds)))
	}
	opts = opts.withDefaults()
	c := &Column{
		opts: opts,
		sem:  make(chan struct{}, opts.Shards),
	}
	c.epochSeq.Store(img.Epoch)
	shards := make([]*part, len(img.Shards))
	for i, s := range img.Shards {
		lo, hi := int64(minKey), int64(maxKey)
		if i > 0 {
			lo = img.Bounds[i-1]
		}
		if i < len(img.Bounds) {
			hi = img.Bounds[i]
		}
		shards[i] = c.newPart(lo, hi, s.Values, s.Seeds)
	}
	c.m.Store(newShardMap(img.Bounds, shards))
	return c
}

// newPart builds one shard over vals with assigned range [loVal,
// hiVal), computing exact aggregates. The part takes ownership of vals.
// seeds, when non-empty, is the piece table vals is already laid out in
// (build, carryOver, Restore): the fresh index is seeded with it, so the
// refinement knowledge of a predecessor part survives the rebuild (paper
// §4.2: "the side effects of earlier queries may be re-created in the
// new index" — here they are carried over, at no cost).
func (c *Column) newPart(loVal, hiVal int64, vals []int64, seeds []crackindex.BoundaryPosition) *part {
	p := &part{
		loVal: loVal, hiVal: hiVal,
		agg:      new(partAgg),
		replaced: make(chan struct{}),
	}
	p.agg.minA.Store(maxKey)
	p.agg.maxA.Store(minKey)
	if len(vals) > 0 {
		mn, mx, total := envelope(vals, seeds)
		p.agg.rows.Store(int64(len(vals)))
		p.agg.total.Store(total)
		p.agg.minA.Store(mn)
		p.agg.maxA.Store(mx)
	}
	p.chain = epoch.NewChain(c.nextEpochID)
	p.baseEpoch = p.chain.OpenID() - 1
	p.setBase(vals, seeds, c.opts)
	return p
}

// envelope returns the extremes and the sum of the non-empty vals laid
// out in the pieces of seeds: the minimum stands in the first non-empty
// piece, the maximum in the last, whose seed carries the sum of all
// before it, so only those two are read (one and the same, unseeded).
func envelope(vals []int64, seeds []crackindex.BoundaryPosition) (mn, mx, total int64) {
	head, tail := len(vals), crackindex.BoundaryPosition{}
	for _, b := range seeds {
		if head == len(vals) && b.Pos > 0 {
			head = b.Pos
		}
		if b.Pos < len(vals) {
			tail = b
		}
	}
	mn, mx, total = kernel.MinMaxSum(vals[tail.Pos:])
	if head <= tail.Pos {
		mn, _, _ = kernel.MinMaxSum(vals[:head])
	}
	return mn, mx, tail.Sum + total
}

// setBase installs the part's base and query surface: a custom source
// built over vals, or a cracked index that owns vals as its array with
// its table of contents seeded from seeds.
func (p *part) setBase(vals []int64, seeds []crackindex.BoundaryPosition, opts Options) {
	if opts.Source != nil {
		p.base = vals
		p.src = opts.Source(vals)
		return
	}
	p.ix = crackindex.NewOwned(vals, seeds, opts.Index)
	p.src = engine.SourceFromIndex(p.ix)
}

// sampleSize is the number of seeded sample points chooseBounds draws.
const sampleSize = 1024

// chooseBounds picks up to shards-1 strictly increasing cut values
// from a seeded sample of values (equi-depth quantiles of the sample).
// Duplicate quantiles — skewed data, tiny inputs — are dropped, so the
// effective shard count can be smaller than requested but every range
// is non-degenerate.
func chooseBounds(values []int64, shards int, seed uint64) []int64 {
	if shards <= 1 || len(values) == 0 {
		return nil
	}
	sample := sortedSample(values, sampleSize, seed, 1)
	cuts := make([]int64, 0, shards-1)
	for i := 1; i < shards; i++ {
		cut := sample[i*len(sample)/shards]
		// A cut at the sample minimum would leave the first shard
		// empty; duplicate cuts would leave middle shards empty.
		if cut > sample[0] && (len(cuts) == 0 || cut > cuts[len(cuts)-1]) {
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// NumShards returns the current number of shards (smaller than
// Options.Shards when quantile cuts collapsed; changes over time under
// rebalancing).
func (c *Column) NumShards() int { return len(c.m.Load().shards) }

// Bounds returns a copy of the strictly increasing shard cut values;
// shard i holds values in [Bounds()[i-1], Bounds()[i]) with sentinels
// at the ends.
func (c *Column) Bounds() []int64 {
	return append([]int64(nil), c.m.Load().bounds...)
}

// Home returns the ordinal of the shard that owns value v under the
// current shard map (a split or merge renumbers the shards).
func (c *Column) Home(v int64) int { return c.m.Load().route(v) }

// Rows returns the total number of logical rows across all shards.
func (c *Column) Rows() int {
	var n int64
	for _, s := range c.m.Load().shards {
		n += s.agg.rows.Load()
	}
	return int(n)
}

// Options returns the column configuration (with defaults applied).
func (c *Column) Options() Options { return c.opts }

// KeyDomain returns the smallest and largest key the per-shard
// aggregates currently track (conservative: a deleted extremum leaves
// the bounds stale-wide, and later inserts can widen them). ok is
// false while the column is empty. The facade uses this to size the
// key-range heatmap's fixed buckets.
func (c *Column) KeyDomain() (lo, hi int64, ok bool) {
	lo, hi = maxKey, minKey
	for _, s := range c.m.Load().shards {
		if s.agg.rows.Load() == 0 {
			continue
		}
		if mn := s.agg.minA.Load(); mn < lo {
			lo = mn
		}
		if mx := s.agg.maxA.Load(); mx > hi {
			hi = mx
		}
	}
	return lo, hi, lo <= hi
}

// CheckKeys returns ErrSentinelKey when the column holds math.MaxInt64.
// New cannot refuse its input, so a caller that takes values from users
// checks the column it built: the key would be the maximum the build
// already computed for the last shard's aggregates, so the check reads
// one atomic per shard and no row.
func (c *Column) CheckKeys() error {
	if _, hi, ok := c.KeyDomain(); ok && hi == maxKey {
		return ErrSentinelKey
	}
	return nil
}

// ShardStat is an observability snapshot of one shard's refinement
// state.
type ShardStat struct {
	// Shard is the shard's ordinal (0-based, in value order).
	Shard int
	// LoVal and HiVal are the assigned value range [LoVal, HiVal);
	// the first and last shards carry math.MinInt64 / math.MaxInt64
	// sentinels.
	LoVal, HiVal int64
	// Rows is the number of logical rows in the shard (base plus net
	// differential updates).
	Rows int
	// PendingInserts and PendingDeletes count differential updates not
	// yet group-applied into the shard's cracker array, across every
	// epoch of the shard's chain (sealed and open).
	PendingInserts, PendingDeletes int
	// Epochs is the number of live epoch files in the shard's
	// differential chain (sealed-unapplied plus the open one).
	Epochs int
	// SealedEpochs is the number of sealed epochs awaiting a
	// group-apply merge.
	SealedEpochs int
	// OpenEpoch is the open epoch's id (monotonic per column; the last
	// sealed epoch's id in the transient window where a structural
	// operation has closed the chain).
	OpenEpoch int64
	// BaseEpoch is the epoch watermark the shard's base array
	// incorporates: every epoch up to it has been applied.
	BaseEpoch int64
	// EpochStats is the per-epoch breakdown of the chain, in chain
	// order (id, pending counts, sealed flag).
	EpochStats []epoch.Stat
	// Pieces is the current piece count of the shard's cracked index: what
	// the build laid out (one piece, for a small shard) plus what queries
	// have cut since — Cracks tells the two apart; 0 for custom sources.
	Pieces int
	// Cracks counts the shard's physical reorganization actions.
	Cracks int64
	// Boundaries counts crack boundaries inserted into the shard's TOC.
	Boundaries int64
	// Conflicts counts latch acquisitions that blocked or failed.
	Conflicts int64
	// Skipped counts refinements forgone under conflict avoidance.
	Skipped int64
	// Depth is the refinement depth: the height of the binary
	// partitioning tree that would produce the current piece count
	// (ceil(log2(Pieces)); 0 for a one-piece shard).
	Depth int
	// MaxPiece is the widest index piece in rows (convergence
	// telemetry; 0 for custom-source shards).
	MaxPiece int
	// MaxPieceFrac is MaxPiece as a fraction of the shard's indexed
	// rows: near 1 means one unrefined piece dominates the shard (small
	// and unqueried, or one repeated value); a large shard starts low.
	MaxPieceFrac float64
	// PieceEntropy is the normalized Shannon entropy of the
	// piece-size distribution (1 = perfectly uniform pieces).
	PieceEntropy float64
}

// CrackBoundaries returns every shard's current crack boundary values
// in shard ordinal order (nil for custom-source shards). Each shard's
// list is an atomic snapshot; concurrent queries may add boundaries
// between shards.
func (c *Column) CrackBoundaries() [][]int64 {
	m := c.m.Load()
	out := make([][]int64, len(m.shards))
	for i, s := range m.shards {
		if s.ix != nil {
			out[i] = s.ix.Boundaries()
		}
	}
	return out
}

// Values materializes the column's logical contents: every shard's
// base with its full epoch chain applied, concatenated in shard
// order. Each shard's contribution is internally consistent (each
// epoch file is snapshotted under its latch); a writer racing with the
// dump is either fully included or fully excluded per shard.
func (c *Column) Values() []int64 {
	var out []int64
	for _, s := range c.ImageAt(math.MaxInt64).Shards {
		out = append(out, s.Values...)
	}
	return out
}

// ImageAt captures the column as of the epoch watermark maxEpoch: every
// shard's base, read through the latched piece walk so queries keep
// cracking meanwhile, with only the epochs of id <= maxEpoch applied,
// laid out piece by piece with its seeds (carryOver). With maxEpoch from
// SealAllEpochs the cut is exact — every epoch at or below the
// watermark is sealed (immutable), every write beyond it is excluded
// deterministically — which is what makes a checkpoint's image and the
// logical-record replay after it partition the write history without gap
// or overlap.
func (c *Column) ImageAt(maxEpoch int64) Image {
	m := c.m.Load()
	img := Image{Epoch: maxEpoch, Bounds: slices.Clone(m.bounds), Shards: make([]ShardImage, len(m.shards))}
	for i, p := range m.shards {
		ins, del := p.chain.Collect(maxEpoch)
		l := layout{vals: make([]int64, 0, max(0, p.baseRows()+len(ins)-len(del)))}
		p.carryOver(&l, ins, del)
		img.Shards[i] = ShardImage{Values: l.vals, Seeds: l.seeds}
	}
	return img
}

// SealAllEpochs rolls every shard's open epoch past a common cut and
// returns the watermark: every write already routed lives in an epoch
// at or below it, every future write lands above it. Writers never
// park — they roll over to the fresh epochs — and empty open epochs
// are renumbered rather than churned. The checkpoint writer calls this
// before capturing its image (ImageAt) so the persisted cut is exact.
func (c *Column) SealAllEpochs() int64 {
	c.structMu.Lock()
	defer c.structMu.Unlock()
	w := c.epochSeq.Load()
	for _, p := range c.m.Load().shards {
		if p.chain != nil {
			p.chain.Roll()
		}
	}
	return w
}

// StatView is a statistics view of the whole column taken against ONE
// shard-map snapshot: bounds, per-shard stats, and the row total all
// describe the same shard-map epoch, so a split or merge racing the
// read can neither double-count nor drop a shard (separate Bounds() /
// Rows() / Snapshot() calls each load the map anew and can disagree).
type StatView struct {
	// Bounds is the shard cut values of the observed map (see Bounds).
	Bounds []int64
	// Rows is the total logical rows summed over the observed shards.
	Rows int
	// Shards is the per-shard breakdown, in shard order.
	Shards []ShardStat
}

// StatView returns a statistics view whose bounds, row total, and
// per-shard stats are all read against one shard-map snapshot.
func (c *Column) StatView() StatView {
	m := c.m.Load()
	v := StatView{
		Bounds: append([]int64(nil), m.bounds...),
		Shards: snapshotOf(m),
	}
	for i := range v.Shards {
		v.Rows += v.Shards[i].Rows
	}
	return v
}

// Snapshot returns a per-shard statistics snapshot, in shard order.
func (c *Column) Snapshot() []ShardStat {
	return snapshotOf(c.m.Load())
}

// ShardLoad is the maintenance view of one shard: exactly what the
// group-apply and rebalancing decisions read, and nothing that costs
// more than a few atomic loads to produce. Maintenance wakes every few
// hundred writes; the full ShardStat — per-epoch breakdown, an
// O(pieces) piece profile — is for the observability surfaces, not for
// that hot a loop.
type ShardLoad struct {
	// Rows is the number of logical rows in the shard.
	Rows int
	// Pending counts differential updates (inserts plus deletes) not
	// yet group-applied, across the whole epoch chain.
	Pending int
}

// Loads returns the maintenance view of every shard, in shard order.
func (c *Column) Loads() []ShardLoad {
	m := c.m.Load()
	out := make([]ShardLoad, len(m.shards))
	for i, s := range m.shards {
		nIns, nDel := s.chain.Pending()
		out[i] = ShardLoad{Rows: int(s.agg.rows.Load()), Pending: nIns + nDel}
	}
	return out
}

func snapshotOf(m *shardMap) []ShardStat {
	out := make([]ShardStat, len(m.shards))
	for i, s := range m.shards {
		st := ShardStat{
			Shard: i, LoVal: s.loVal, HiVal: s.hiVal,
			Rows: int(s.agg.rows.Load()),
		}
		if s.chain != nil {
			// One consistent pass over the chain: counts derive from
			// the per-file sealed flags, so the stat stays truthful
			// even in the transient window where a structural
			// operation has closed the chain (no open epoch).
			st.EpochStats = s.chain.Stats()
			st.Epochs = len(st.EpochStats)
			for _, es := range st.EpochStats {
				st.PendingInserts += es.Ins
				st.PendingDeletes += es.Del
				if es.Sealed {
					st.SealedEpochs++
				}
				st.OpenEpoch = es.ID
			}
			st.BaseEpoch = s.baseEpoch
		}
		if s.ix != nil {
			ixStats := s.ix.Stats()
			st.Cracks = ixStats.Cracks.Load()
			st.Boundaries = ixStats.Boundaries.Load()
			st.Conflicts = ixStats.Conflicts.Load()
			st.Skipped = ixStats.Skipped.Load()
			// One latch-free pass over the table of contents yields the
			// piece count and the size distribution together: they cannot
			// disagree, and no query waits for a scrape.
			pr := s.ix.Profile()
			st.Pieces = pr.Pieces
			if st.Pieces > 1 {
				st.Depth = bits.Len(uint(st.Pieces - 1))
			}
			st.MaxPiece = pr.MaxPiece
			st.MaxPieceFrac = pr.MaxPieceFrac
			st.PieceEntropy = pr.Entropy
		}
		out[i] = st
	}
	return out
}

// Validate checks the partitioning invariants and every shard's index
// invariants; it must be called while no queries, updates, or
// structural operations are in flight.
func (c *Column) Validate() error {
	m := c.m.Load()
	if len(m.shards) != len(m.bounds)+1 {
		return fmt.Errorf("shard: %d shards for %d bounds", len(m.shards), len(m.bounds))
	}
	for i := 1; i < len(m.bounds); i++ {
		if m.bounds[i] <= m.bounds[i-1] {
			return fmt.Errorf("shard: bounds not strictly increasing at %d", i)
		}
	}
	for i, s := range m.shards {
		wantLo, wantHi := int64(minKey), int64(maxKey)
		if i > 0 {
			wantLo = m.bounds[i-1]
		}
		if i < len(m.bounds) {
			wantHi = m.bounds[i]
		}
		if s.loVal != wantLo || s.hiVal != wantHi {
			return fmt.Errorf("shard %d: range [%d,%d) disagrees with bounds [%d,%d)",
				i, s.loVal, s.hiVal, wantLo, wantHi)
		}
		if s.agg.rows.Load() > 0 && (s.agg.minA.Load() < s.loVal || s.agg.maxA.Load() >= s.hiVal) {
			return fmt.Errorf("shard %d: data [%d,%d] outside assigned range [%d,%d)",
				i, s.agg.minA.Load(), s.agg.maxA.Load(), s.loVal, s.hiVal)
		}
		if s.chain != nil {
			nIns, nDel := s.chain.Pending()
			if want := int64(s.baseRows() + nIns - nDel); s.agg.rows.Load() != want {
				return fmt.Errorf("shard %d: rows %d, base %d + %d pending inserts - %d pending deletes = %d",
					i, s.agg.rows.Load(), s.baseRows(), nIns, nDel, want)
			}
		}
		if s.ix != nil {
			if err := s.ix.Validate(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return nil
}
