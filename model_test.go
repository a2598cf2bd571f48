package adaptix

// The executable spec of the index. The paper's claim (§4–5) is that
// refinement under latches never changes a query's result. Here it is
// one op stream, run against every configuration and checked after
// every op against a sorted multiset: each answer and Rows() agree with
// the model, Validate() holds after every structural op, and a reopen
// right after a checkpoint keeps every crack boundary. The concurrent
// leg runs the same configurations in barrier rounds: every in-flight
// answer lies inside the round's envelope, and at every barrier the
// index equals the model.
//
// Adding an op: name it in opMix as often as its weight, and give it a
// case in (*modelRun).step; the checks after every op then cover it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/workload"
)

// multiset is the model: the logical contents, sorted.
type multiset []int64

// span returns the values in [lo, hi); none for an empty or inverted
// range.
func (m multiset) span(lo, hi int64) multiset {
	if lo >= hi {
		return nil
	}
	i, _ := slices.BinarySearch(m, lo)
	j, _ := slices.BinarySearch(m, hi)
	return m[i:j]
}

func (m multiset) count(lo, hi int64) int64 { return int64(len(m.span(lo, hi))) }

// sum wraps on overflow, as the index does.
func (m multiset) sum(lo, hi int64) (s int64) {
	for _, v := range m.span(lo, hi) {
		s += v
	}
	return s
}

func (m *multiset) insert(v int64) {
	i, _ := slices.BinarySearch(*m, v)
	*m = slices.Insert(*m, i, v)
}

func (m *multiset) delete(v int64) bool {
	i, ok := slices.BinarySearch(*m, v)
	if ok {
		*m = slices.Delete(*m, i, i+1)
	}
	return ok
}

// modelConfig is one configuration of the index under test.
type modelConfig struct {
	name    string
	method  Method
	shards  int
	durable bool // Open with logged writes; New otherwise
}

var modelConfigs = []modelConfig{
	{"crack/1", Crack, 1, false},
	{"crack/4", Crack, 4, false},
	{"crack/1/open", Crack, 1, true},
	{"crack/4/open", Crack, 4, true},
	{"amerge/4", AMerge, 4, false},
	{"hybrid/4", Hybrid, 4, false},
}

// open builds the configuration over vals (in dir when durable), with a
// background maintenance pass every checkEvery writes.
func (c modelConfig) open(t testing.TB, dir string, vals []int64, checkEvery int) *Index {
	t.Helper()
	opts := []Option{
		WithMethod(c.method), WithShards(c.shards),
		WithIngestOptions(IngestOptions{ApplyThreshold: 32, MinShardRows: 256, CheckEvery: checkEvery}),
		withRunSize(256),
	}
	var ix *Index
	var err error
	if c.durable {
		ix, err = Open(dir, append(opts, WithValues(vals), WithLogWrites(), WithNoSync(), WithSegmentBytes(4<<10))...)
	} else {
		ix, err = New(vals, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// withRunSize sets the AMerge run size and the Hybrid partition size,
// so that the model's small columns hold several runs and partitions.
func withRunSize(n int) Option {
	return func(c *config) error {
		c.merge.RunSize = n
		c.hybrid.PartitionSize = n
		return nil
	}
}

// contents is one initial contents of the index.
type contents struct {
	name string
	vals []int64
}

// modelData is the initial contents every configuration starts from:
// none; unique keys, which the build lays out in pieces; and 256
// distinct keys, repeated, on which the quantile cuts collapse.
var modelData = sync.OnceValue(func() []contents {
	return []contents{
		{"empty", nil},
		{"unique", workload.NewUniqueUniform(1<<14, 7).Values},
		{"dups", workload.NewDuplicates(1<<13, 256, 11).Values},
	}
})

// opMix is the op alphabet of the sequential stream, each op as often
// as its weight. "delete-inserted" deletes one of the last keys the
// stream inserted, which mostly meets that insert still pending in its
// shard's open epoch and cancels it. "apply" is Index.Apply of a batch; "seal" and
// "apply-sealed" are the two steps of one shard's group-apply, and
// "group-apply" runs both; "crash" copies the store's directory, closes
// the store and reopens the copy.
var opMix = []string{
	"count", "count", "count", "count", "count", "count", "count", "count",
	"sum", "sum", "sum", "sum", "sum", "sum",
	"insert", "insert", "insert", "insert", "insert", "insert", "insert", "insert",
	"delete", "delete", "delete", "delete", "delete", "delete-inserted", "delete-inserted", "apply", "apply",
	"maintain", "checkpoint", "seal", "apply-sealed", "group-apply", "split", "merge", "crash",
}

// opStream is the source of an op stream's bytes: a seeded generator,
// or a byte string that reads as zeros past its end, so any bytes
// decode.
type opStream struct {
	rng *workload.RNG
	b   []byte
}

func (s *opStream) next() (c byte) {
	if s.rng != nil {
		return byte(s.rng.Uint64())
	}
	if len(s.b) > 0 {
		c, s.b = s.b[0], s.b[1:]
	}
	return c
}

// modelRun is one configuration driven by one op stream.
type modelRun struct {
	t      testing.TB
	cfg    modelConfig
	ix     *Index
	dir    string
	m      multiset
	src    *opStream
	domain int64 // keys are drawn from about [0, domain)
	sweep  int64 // the sequential-sweep cursor
	// inserted holds the keys the stream inserted, in order.
	inserted []int64
	desc     string
	// checkpointed is set while the last op was a checkpoint: a reopen
	// then keeps every crack boundary.
	checkpointed bool
}

func (h *modelRun) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: %s: %s", h.cfg.name, h.desc, fmt.Sprintf(format, args...))
}

// key draws a key: now and then an edge key of int64 (MaxInt64 is the
// sentinel, which an insert must fail to write), else one in about [0,
// domain).
func (h *modelRun) key() int64 {
	if b := h.src.next(); b < 24 {
		return []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}[b%6]
	}
	v := int64(h.src.next())<<8 | int64(h.src.next())
	return v%(h.domain+16) - 8
}

// bounds draws a range: empty, inverted, narrow, the next step of a
// sequential sweep, the full int64 range, or two keys.
func (h *modelRun) bounds() (lo, hi int64) {
	switch h.src.next() % 8 {
	case 0:
		v := h.key()
		return v, v
	case 1:
		a, b := h.key(), h.key()
		return max(a, b), min(a, b)
	case 2: // past MaxInt64 it wraps into an inverted range
		lo = h.key()
		return lo, lo + 1 + int64(h.src.next()%16)
	case 3:
		w := h.domain/64 + 1
		h.sweep = (h.sweep + w) % (h.domain + w)
		return h.sweep, h.sweep + w
	case 4:
		return math.MinInt64, math.MaxInt64
	default:
		a, b := h.key(), h.key()
		return min(a, b), max(a, b)
	}
}

// shard draws the ordinal of a shard.
func (h *modelRun) shard() int { return int(h.src.next()) % h.ix.NumShards() }

// wrongErr reports whether a write's err is not the sentinel-key error
// when it wrote the sentinel, or not nil when it did not.
func wrongErr(sentinel bool, err error) bool {
	return sentinel != errors.Is(err, ErrSentinelKey) || !sentinel && err != nil
}

// runModel drives ops ops of src through a fresh index of cfg over vals,
// checking every op against the model.
func runModel(t testing.TB, cfg modelConfig, vals []int64, src *opStream, ops int) {
	h := &modelRun{t: t, cfg: cfg, src: src, m: slices.Sorted(slices.Values(vals)), domain: 64, dir: t.TempDir()}
	if len(vals) > 0 {
		h.domain = slices.Max(vals) + 1
	}
	// No background maintenance: every structural change is an op of
	// the stream.
	h.ix = cfg.open(t, h.dir, vals, 1<<30)
	defer func() { h.ix.Close() }()
	for i := range ops {
		h.step(i, opMix[int(h.src.next())%len(opMix)])
		if got := h.ix.Rows(); got != len(h.m) {
			h.fail("Rows() = %d, model %d", got, len(h.m))
		}
	}
}

// step runs op i, named op, on the index and the model.
func (h *modelRun) step(i int, op string) {
	h.desc = fmt.Sprintf("op %d %s", i, op)
	ctx, checkpointed := context.Background(), false
	defer func() { h.checkpointed = checkpointed }()
	switch op {
	case "count", "sum":
		lo, hi := h.bounds()
		q, want := h.ix.Count, h.m.count(lo, hi)
		if op == "sum" {
			q, want = h.ix.Sum, h.m.sum(lo, hi)
		}
		if res, err := q(ctx, lo, hi); err != nil || res.Value != want {
			h.fail("[%d, %d) = %d, %v; model %d", lo, hi, res.Value, err, want)
		}
		return
	case "insert":
		v := h.key()
		if err := h.ix.Insert(ctx, v); wrongErr(v == math.MaxInt64, err) {
			h.fail("Insert(%d) = %v", v, err)
		}
		if v != math.MaxInt64 {
			h.m.insert(v)
			h.inserted = append(h.inserted, v)
		}
		return
	case "delete", "delete-inserted":
		v := h.key()
		if n := len(h.inserted); op == "delete-inserted" && n > 0 {
			v = h.inserted[n-1-int(h.src.next())%min(n, 4)]
		}
		if ok, err := h.ix.Delete(ctx, v); err != nil || ok != h.m.delete(v) {
			h.fail("Delete(%d) = %v, %v", v, ok, err)
		}
		return
	case "apply":
		batch, want, sentinel := make([]Op, 1+h.src.next()%8), 0, false
		for j := range batch {
			w := Op{Delete: h.src.next()%3 == 0, Value: h.key()}
			switch batch[j] = w; {
			case sentinel: // the batch stops at the sentinel
			case w.Delete:
				if h.m.delete(w.Value) {
					want++
				}
			case w.Value == math.MaxInt64:
				sentinel = true
			default:
				h.m.insert(w.Value)
			}
		}
		got, err := h.ix.Apply(ctx, batch)
		if got != want || wrongErr(sentinel, err) {
			h.fail("Apply(%v) = %d, %v; model %d", batch, got, err, want)
		}
		return
	case "maintain":
		h.ix.Maintain()
	case "checkpoint":
		if h.ix.Checkpoint() != h.cfg.durable {
			h.fail("Checkpoint() = %v on a durable=%v index", !h.cfg.durable, h.cfg.durable)
		}
		checkpointed = h.cfg.durable
	case "seal":
		h.ix.col.SealEpoch(h.shard())
	case "apply-sealed", "group-apply": // must apply what is sealed, or pending
		s := h.shard()
		st, apply := h.ix.col.Snapshot()[s], h.ix.col.ApplySealed
		want := st.SealedEpochs > 0
		if op == "group-apply" {
			apply, want = h.ix.col.ApplyShard, st.PendingInserts+st.PendingDeletes > 0
		}
		if _, ok := apply(s); ok != want {
			h.fail("shard %d: applied = %v with %d sealed epochs, %d+%d pending writes", s, ok, st.SealedEpochs, st.PendingInserts, st.PendingDeletes)
		}
	case "split":
		s := h.shard()
		st := h.ix.col.Snapshot()[s]
		vals := h.m.span(st.LoVal, st.HiVal)
		if _, ok := h.ix.col.SplitShard(s); ok != (len(vals) > 0 && vals[0] != vals[len(vals)-1]) {
			h.fail("SplitShard(%d) of %d values in [%d, %d) = %v", s, len(vals), st.LoVal, st.HiVal, ok)
		}
	case "merge":
		s, n := h.shard(), h.ix.NumShards()
		if _, ok := h.ix.col.MergeShards(s); ok != (s+1 < n) {
			h.fail("MergeShards(%d) of %d shards = %v", s, n, ok)
		}
	case "crash":
		if h.cfg.durable {
			h.crash()
		}
	}
	if err := h.ix.Validate(); err != nil {
		h.fail("Validate: %v", err)
	}
}

// crash copies the open store's directory, as a process crash leaves it,
// then closes the store and reopens the copy. Half the crashes follow a
// checkpoint of their own.
func (h *modelRun) crash() {
	if h.src.next()%2 == 0 {
		h.checkpointed = h.ix.Checkpoint()
	}
	dir := h.t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(h.dir)); err != nil {
		h.fail("copy: %v", err)
	}
	before := h.ix.CrackBoundaries()
	h.ix.Close()
	h.dir, h.ix = dir, h.cfg.open(h.t, dir, nil, 1<<30)
	if !h.ix.Recovered() {
		h.fail("the copy reopened as a fresh store")
	}
	if after := h.ix.CrackBoundaries(); h.checkpointed && !reflect.DeepEqual(before, after) {
		h.fail("crack boundaries %v after a reopen right after a checkpoint, %v before", after, before)
	}
}

// TestModelSequential runs one seeded stream of 1000 ops per
// configuration and initial contents.
func TestModelSequential(t *testing.T) {
	for i, d := range modelData() {
		for j, cfg := range modelConfigs {
			seed := uint64(1 + i*len(modelConfigs) + j)
			t.Run(fmt.Sprintf("%s/%s/seed=%d", cfg.name, d.name, seed), func(t *testing.T) {
				t.Parallel()
				runModel(t, cfg, d.vals, &opStream{rng: workload.NewRNG(seed)}, 1000)
			})
		}
	}
}

// TestModelSentinelValues: New and Open refuse initial contents holding
// the sentinel key, which the stream can only try to write.
func TestModelSentinelValues(t *testing.T) {
	vals := []int64{1, math.MaxInt64}
	_, errNew := New(vals)
	_, errOpen := Open(t.TempDir(), WithValues(vals), WithNoSync())
	if !errors.Is(errNew, ErrSentinelKey) || !errors.Is(errOpen, ErrSentinelKey) {
		t.Fatalf("New = %v, Open = %v over the sentinel key, want ErrSentinelKey", errNew, errOpen)
	}
}

// TestModelConcurrent runs every configuration in barrier rounds. In a
// round, clients own disjoint writes — fresh inserts, deletes of
// distinct instances present at its start, and deletes of their own
// fresh inserts — and query, while a forcer
// loops group-apply, split, merge, maintenance and checkpoints.
func TestModelConcurrent(t *testing.T) {
	for i, cfg := range modelConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			runRounds(t, cfg, uint64(i+1))
		})
	}
}

func runRounds(t *testing.T, cfg modelConfig, seed uint64) {
	const n, clients, rounds, writes, queries = 1 << 13, 4, 4, 32, 64 // per client and round
	ctx := context.Background()
	// Even keys to start with, odd ones to insert: every insert is fresh.
	// Every key is >= 0, so a sum lies between the model's minus the
	// round's deletes in range and plus its inserts in range.
	vals := workload.NewUniqueUniform(n, seed).Values
	fresh := workload.NewUniqueUniform(n, seed+1).Values
	for i := range vals {
		vals[i], fresh[i] = 2*vals[i], 2*fresh[i]+1
	}
	m := multiset(slices.Sorted(slices.Values(vals)))
	ix := cfg.open(t, t.TempDir(), vals, 64)
	defer ix.Close()
	r := workload.NewRNG(seed)
	var ins, del multiset // the round's writes
	// check runs one query: its answer must lie in the round's envelope,
	// which between rounds is the model itself.
	check := func(q func(context.Context, int64, int64) (Result, error), f func(multiset, int64, int64) int64, lo, hi int64) error {
		res, err := q(ctx, lo, hi)
		if want := f(m, lo, hi); err == nil && (res.Value < want-f(del, lo, hi) || res.Value > want+f(ins, lo, hi)) {
			err = fmt.Errorf("[%d, %d) = %d, model %d -%d +%d", lo, hi, res.Value, want, f(del, lo, hi), f(ins, lo, hi))
		}
		return err
	}
	query := func(lo, hi int64) error {
		return errors.Join(check(ix.Count, multiset.count, lo, hi), check(ix.Sum, multiset.sum, lo, hi))
	}
	applied := 0
	for round := range rounds {
		// Half the writes insert fresh keys; a quarter delete distinct
		// instances present now, and a quarter delete the fresh key the
		// same client inserted just before, which its shard's open
		// epoch mostly still holds pending: the delete cancels it.
		// Client c owns plan[c*writes:][:writes].
		plan, pool := make([]Op, clients*writes), slices.Clone(m)
		for j := range plan {
			switch j % 4 {
			case 0, 2:
				plan[j], fresh = Op{Value: fresh[0]}, fresh[1:]
				ins = append(ins, plan[j].Value)
				continue
			case 3:
				plan[j] = Op{Delete: true, Value: plan[j-1].Value}
				del = append(del, plan[j].Value)
				continue
			}
			k := r.Intn(len(pool))
			plan[j] = Op{Delete: true, Value: pool[k]}
			del = append(del, pool[k])
			pool[k], pool = pool[len(pool)-1], pool[:len(pool)-1]
		}
		slices.Sort(ins)
		slices.Sort(del)

		var wg sync.WaitGroup
		var stop atomic.Bool
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q, own := workload.NewRNG(seed<<16|uint64(round<<8|c)), plan[c*writes:][:writes]
				for left := writes + queries; left > 0; left-- {
					var err error
					if q.Intn(left) >= len(own) {
						lo := q.Int64n(2*n+2) - 1
						err = query(lo, lo+q.Int64n(n/2))
					} else if op := own[0]; op.Delete {
						if ok, derr := ix.Delete(ctx, op.Value); !ok {
							err = fmt.Errorf("Delete(%d) = false, %v", op.Value, derr)
						}
						own = own[1:]
					} else {
						err = ix.Insert(ctx, op.Value)
						own = own[1:]
					}
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}()
		}
		go func() { wg.Wait(); stop.Store(true) }()
		// The forcer runs on this goroutine until the clients are done.
		for f := workload.NewRNG(seed<<8 | uint64(round)); !stop.Load(); {
			switch s := ix.NumShards(); f.Intn(5) {
			case 0, 1:
				if _, ok := ix.col.ApplyShard(f.Intn(s)); ok {
					applied++
				}
			case 2:
				if s < 16 {
					ix.col.SplitShard(f.Intn(s))
				}
			case 3:
				ix.col.MergeShards(f.Intn(s))
			default:
				ix.Maintain()
				ix.Checkpoint()
			}
		}
		if t.Failed() {
			return
		}

		// The barrier: the index equals the model.
		m = slices.Sorted(slices.Values(append(m, ins...)))
		for _, v := range del {
			m.delete(v)
		}
		ins, del = nil, nil
		if err := ix.Validate(); err != nil || ix.Rows() != len(m) {
			t.Fatalf("round %d: Rows() = %d, model %d; Validate: %v", round, ix.Rows(), len(m), err)
		}
		for range 32 {
			lo := r.Int64n(2*n+2) - 1
			if err := query(lo, lo+r.Int64n(2*n)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if applied == 0 {
		t.Error("the forcer never group-applied a shard with pending writes: no round raced a merge")
	}
}

// FuzzModel decodes bytes into the sequential stream: the first byte
// picks the configuration and the initial contents.
func FuzzModel(f *testing.F) {
	// Short seeds: the fuzzer minimizes every input that finds new
	// coverage, and a long one stalls it.
	for i := range len(modelConfigs) {
		b, src := []byte{byte(i + i%3*len(modelConfigs))}, opStream{rng: workload.NewRNG(uint64(100 + i))} // every configuration, every contents
		for len(b) < 32 {
			b = append(b, src.next())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		data := modelData()
		cfg := modelConfigs[int(b[0])%len(modelConfigs)]
		d := data[int(b[0])/len(modelConfigs)%len(data)]
		runModel(t, cfg, d.vals, &opStream{b: b[1:]}, len(b))
	})
}
