package directory

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/latch"
	"adaptix/internal/workload"
)

// model is the reference: a sorted slice of entries.
type model []Entry

func entryOf(key int64) Entry { return Entry{Key: key, Pos: int(key>>3) + 7, Sum: key * 3} }

func (m model) has(key int64) bool {
	_, ok := slices.BinarySearchFunc(m, key, func(e Entry, k int64) int { return cmp(e.Key, k) })
	return ok
}

func cmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (m model) insert(cuts ...Entry) model {
	m = append(m, cuts...)
	slices.SortFunc(m, func(a, b Entry) int { return cmp(a.Key, b.Key) })
	return m
}

// floor returns the index of the last entry with Key <= v, or -1.
func (m model) floor(v int64) int {
	i, ok := slices.BinarySearchFunc(m, v, func(e Entry, k int64) int { return cmp(e.Key, k) })
	if ok {
		return i
	}
	return i - 1
}

func sameEntry(r Ref, e Entry) bool {
	return r.OK() && r.Key() == e.Key && r.Pos() == e.Pos && r.Sum() == e.Sum
}

// checkProbe compares Floor, its successor and Span at v.
func checkProbe(t testing.TB, d *Dir, m model, v int64) {
	t.Helper()
	i := m.floor(v)
	f := d.Floor(v)
	if i < 0 {
		if f.OK() {
			t.Fatalf("Floor(%d) = %d, want none", v, f.Key())
		}
	} else if !sameEntry(f, m[i]) {
		t.Fatalf("Floor(%d) != model entry %+v", v, m[i])
	}
	if n := f.Next(); i+1 < len(m) {
		if !sameEntry(n, m[i+1]) {
			t.Fatalf("successor of Floor(%d) != model entry %+v", v, m[i+1])
		}
	} else if n.OK() {
		t.Fatalf("successor of Floor(%d) = %d, want none", v, n.Key())
	}
	// Span: the positions around v in an array of 1<<40 rows.
	lo, hi, exact := 0, 1<<40, i >= 0 && m[i].Key == v
	if i >= 0 {
		lo = m[i].Pos
	}
	if exact {
		hi = lo
	} else if i+1 < len(m) {
		hi = m[i+1].Pos
	}
	if gl, gh, ge := d.Span(v, 1<<40); gl != lo || gh != hi || ge != exact {
		t.Fatalf("Span(%d) = %d, %d, %t; want %d, %d, %t", v, gl, gh, ge, lo, hi, exact)
	}
}

// check compares the whole directory with the model: invariants, Len,
// Ascend, and a probe at and around every key.
func check(t testing.TB, d *Dir, m model) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", d.Len(), len(m))
	}
	i := 0
	for e := range d.Ascend {
		if i >= len(m) || e.Key != m[i].Key || e.Pos != m[i].Pos || e.Sum != m[i].Sum {
			t.Fatalf("Ascend entry %d = %+v, model disagrees", i, e)
		}
		i++
	}
	if i != len(m) {
		t.Fatalf("Ascend yielded %d entries, model has %d", i, len(m))
	}
	checkProbe(t, d, m, math.MinInt64)
	checkProbe(t, d, m, math.MaxInt64)
	for _, e := range m {
		for _, v := range []int64{e.Key - 1, e.Key, e.Key + 1} {
			checkProbe(t, d, m, v)
		}
	}
}

func TestFloorCeiling(t *testing.T) {
	var d Dir
	var m model
	check(t, &d, m) // empty: every lookup fails, Next of a failed Floor too
	for _, k := range []int64{50, 10, 30, 70, 20, math.MaxInt64, math.MinInt64} {
		d.Insert(k, entryOf(k).Pos, entryOf(k).Sum)
		m = m.insert(entryOf(k))
		check(t, &d, m)
	}
	for _, c := range []struct{ v, floor, ceil int64 }{
		{10, 10, 10}, {11, 10, 20}, {49, 30, 50}, {71, 70, math.MaxInt64}, {-5, math.MinInt64, 10},
	} {
		if f := d.Floor(c.v); f.Key() != c.floor {
			t.Fatalf("Floor(%d) = %d, want %d", c.v, f.Key(), c.floor)
		}
		if g := d.Floor(c.v); g.Key() != c.v && g.Next().Key() != c.ceil {
			t.Fatalf("successor of Floor(%d) = %d, want %d", c.v, g.Next().Key(), c.ceil)
		}
	}
}

func TestInsertGet(t *testing.T) {
	var d Dir
	r := workload.NewRNG(1)
	var m model
	for len(m) < 1000 {
		k := r.Int64n(5000)
		if m.has(k) {
			if f := d.Floor(k); f.Key() != k || f.Pos() != entryOf(k).Pos {
				t.Fatalf("key %d not found after insert", k)
			}
			continue
		}
		d.Insert(k, entryOf(k).Pos, entryOf(k).Sum)
		m = m.insert(entryOf(k))
	}
	check(t, &d, m)
	defer func() {
		if recover() == nil {
			t.Fatal("inserting an existing key did not panic")
		}
	}()
	d.Insert(m[17].Key, 0, 0)
}

func TestSequentialInsertKeepsChunksBounded(t *testing.T) {
	for _, step := range []int64{1, -1} {
		var d Dir
		var m model
		for i := int64(0); i < 5000; i++ {
			k := i * step
			d.Insert(k, entryOf(k).Pos, entryOf(k).Sum)
			m = m.insert(entryOf(k))
		}
		check(t, &d, m) // Validate bounds every chunk by chunkCap
		if n := len(d.top.Load().slots); n > 2*5000/chunkFill+1 {
			t.Fatalf("step %d: %d chunks for 5000 entries: splits leave chunks nearly empty", step, n)
		}
	}
}

func TestAscendStopsAndBuildReplaces(t *testing.T) {
	var d Dir
	var m model
	for k := int64(0); k < 300; k++ {
		m = append(m, entryOf(k*10))
	}
	d.Build(m)
	check(t, &d, m)
	n := 0
	for e := range d.Ascend {
		if n++; e.Key == 500 {
			break
		}
	}
	if n != 51 {
		t.Fatalf("Ascend visited %d entries before the break, want 51", n)
	}
	d.Build(m[:3])
	check(t, &d, m[:3])
	d.Build(nil)
	check(t, &d, nil)
}

// TestPublishMultiCut: the cuts of one publish land together, whether
// they fit the chunk, overflow it (split, new top level), span chunks,
// or found the directory.
func TestPublishMultiCut(t *testing.T) {
	var d Dir
	var m model
	publish := func(keys ...int64) {
		cuts := make([]Entry, len(keys))
		for i, k := range keys {
			cuts[i] = entryOf(k)
		}
		d.Publish(cuts)
		m = m.insert(cuts...)
		check(t, &d, m)
	}
	publish(1000, 2000, 3000)        // founds the directory
	publish(1500, 1600)              // one chunk
	publish(-7, 2500, math.MaxInt64) // below the first key and at the very end
	var many []int64
	for k := int64(1); k < 3*chunkCap; k++ {
		many = append(many, 1000+k)
	}
	publish(many...)                            // overflows one chunk several times over
	publish(1, 1000+2*chunkCap+500, 2999, 5000) // spans chunks
}

func TestRandomOpsAgainstModel(t *testing.T) {
	r := workload.NewRNG(99)
	var d Dir
	var m model
	for op := 0; op < 4000; op++ {
		switch r.Intn(10) {
		case 0: // a crack's publish: up to five cuts inside one gap
			base := r.Int64n(1 << 20)
			var cuts []Entry
			for k := base; k < base+int64(1+r.Intn(5)); k++ {
				if !m.has(k) {
					cuts = append(cuts, entryOf(k))
				}
			}
			d.Publish(cuts)
			m = m.insert(cuts...)
		case 1:
			if op%500 == 1 { // now and then, a rebuilt shard's bulk build
				d.Build(m)
			}
		default:
			if k := r.Int64n(1 << 20); !m.has(k) {
				d.Insert(k, entryOf(k).Pos, entryOf(k).Sum)
				m = m.insert(entryOf(k))
			}
		}
		checkProbe(t, &d, m, r.Int64n(1<<20))
	}
	check(t, &d, m)
}

func TestFloorMatchesSortedSliceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := workload.NewRNG(seed)
		var m model
		for n := 1 + r.Intn(400); len(m) < n; {
			if k := r.Int64n(2000) - 1000; !m.has(k) {
				m = m.insert(entryOf(k))
			}
		}
		var d Dir
		if seed%2 == 0 {
			d.Build(m)
		} else {
			order := make([]int64, len(m))
			r.Perm(order)
			for _, i := range order {
				d.Insert(m[i].Key, m[i].Pos, m[i].Sum)
			}
		}
		for v := int64(-1005); v <= 1005; v++ {
			checkProbe(t, &d, m, v)
		}
		for a := int64(-1005); a <= 1005; a += 37 {
			for _, b := range []int64{a, a + 1, a + 50, a + 900} {
				ra, rb := d.Floor2(a, b)
				fa, fb := d.Floor(a), d.Floor(b)
				if ra != fa || rb != fb {
					t.Fatalf("seed %d: Floor2(%d, %d) disagrees with two Floors", seed, a, b)
				}
			}
		}
	}
}

// TestLatchSurvivesVersions: a latch installed in the current version is
// the latch of that entry in every later version — through publishes
// into its chunk, a split of its chunk, and for a Ref taken before any of
// them once it is brought up to date.
func TestLatchSurvivesVersions(t *testing.T) {
	var d Dir
	var m model
	for k := int64(0); k < chunkFill; k++ {
		m = append(m, entryOf(k*100))
	}
	d.Build(m)
	old := d.Floor(2000)
	l := latch.New(latch.FIFO)
	d.Floor(2000).SetLatch(l)
	born := latch.New(latch.FIFO)
	d.Publish([]Entry{{Key: 2050, Latch: born}})
	for k := int64(1); k < chunkCap; k++ { // forces a split
		if k != 50 {
			d.Insert(2000+k, 0, 0)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.Floor(2000).Latch(); got != l {
		t.Fatalf("latch of 2000 after publishes and a split: %p, installed %p", got, l)
	}
	if got := d.Floor(2050).Latch(); got != born {
		t.Fatalf("latch an entry was born with: %p, want %p", got, born)
	}
	if cur := d.Current(old); cur.Latch() != l || cur.Next().Key() != 2001 {
		t.Fatalf("Current(stale ref): latch %p (want %p), successor %d (want 2001)", cur.Latch(), l, cur.Next().Key())
	}
	if d.Floor(2100).Latch() != nil {
		t.Fatal("an entry nobody latched has a latch")
	}
}

// TestReadersDuringPublishes (run it under -race): lookups race one
// publisher inserting 64 Ki boundaries, a few cuts at a time, across
// hundreds of chunk splits. Every Floor(v) must return a boundary <= v
// with an untorn payload, already published or in flight when the lookup
// ended, and no lower than the floor among the boundaries published
// before the lookup began.
func TestReadersDuringPublishes(t *testing.T) {
	const n, stride = 64 << 10, 16
	r := workload.NewRNG(7)
	order := make([]int64, n) // publish order: order[i]*stride is the i-th key
	r.Perm(order)
	rank := make([]int, n) // rank[k]: when key k*stride is published
	for i, k := range order {
		rank[k] = i
	}
	var d Dir
	d.Insert(-1, -1, -3) // so every lookup has a floor
	var published atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := workload.NewRNG(uint64(100 + c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := int(published.Load())
				v := r.Int64n(n * stride)
				f := d.Floor(v)
				after := int(published.Load())
				want := int64(-1) // the floor among what was published before
				for k := v / stride; k >= 0; k-- {
					if rank[k] < before {
						want = k * stride
						break
					}
				}
				k := f.Key()
				switch {
				case !f.OK() || k > v || k < want:
					t.Errorf("Floor(%d) = %d (ok %t), floor before the lookup was %d", v, k, f.OK(), want)
					return
				case int64(f.Pos()) != k || f.Sum() != 3*k:
					t.Errorf("Floor(%d): entry %d carries (%d, %d)", v, k, f.Pos(), f.Sum())
					return
				case k >= 0 && (k%stride != 0 || rank[k/stride] >= after+3):
					t.Errorf("Floor(%d) = %d, which nobody has published yet", v, k)
					return
				}
			}
		}()
	}
	for i := 0; i < n; {
		g := min(1+i%3, n-i)
		cuts := make([]Entry, g)
		for j := range cuts {
			k := order[i+j] * stride
			cuts[j] = Entry{Key: k, Pos: int(k), Sum: 3 * k}
		}
		slices.SortFunc(cuts, func(a, b Entry) int { return cmp(a.Key, b.Key) })
		d.Publish(cuts)
		i += g
		published.Store(int64(i))
	}
	close(stop)
	wg.Wait()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", d.Len(), n+1)
	}
}

// FuzzDirectoryVsModel drives a directory and the sorted-slice model with
// one op stream decoded from the input — single inserts, a crack's
// multi-cut publish, bulk rebuilds, lookups — and compares them after
// every step. An op byte below 128 draws its key from a domain small
// enough that neighbours, duplicates and both ends of a chunk are hit;
// one of 128 or more from clusters — a tight one, a sparse one, and keys
// at both ends of the key space — so the top level's hint meets skewed
// buckets, outlying first keys and a span of nearly 2^64.
func FuzzDirectoryVsModel(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 1, 15, 3, 2, 0, 3, 12})
	f.Add([]byte("a crack publishes up to five cuts into one chunk"))
	seq := make([]byte, 0, 600)
	for i := 0; i < 300; i++ { // ascending inserts: chunk splits at the right edge
		seq = append(seq, 0, byte(i))
	}
	f.Add(seq)
	skew := make([]byte, 0, 600)
	for i := 0; i < 300; i++ { // clustered keys, both ends of the key space
		skew = append(skew, 0x80+byte(i%4), byte(i*7))
	}
	f.Add(skew)
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Dir
		var m model
		key := func(op, b byte, i int) int64 {
			if op < 0x80 {
				return int64(b)*8 + int64(i%3) - 1024
			}
			switch {
			case b < 32:
				return math.MinInt64 + 1 + int64(b)
			case b >= 224:
				return math.MaxInt64 - 1 - int64(255-b)
			case b%2 == 0:
				return 1<<40 + int64(b) // one tight cluster
			}
			return int64(b) << 50 // sparse keys in between
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k0 := key(op, arg, i)
			switch op % 4 {
			case 0:
				if !m.has(k0) {
					d.Insert(k0, entryOf(k0).Pos, entryOf(k0).Sum)
					m = m.insert(entryOf(k0))
				}
			case 1:
				var cuts []Entry
				for k := k0; k < k0+int64(1+op%5) && k >= k0; k++ {
					if !m.has(k) {
						cuts = append(cuts, entryOf(k))
					}
				}
				d.Publish(cuts)
				m = m.insert(cuts...)
			case 2:
				d.Build(m)
			case 3:
				checkProbe(t, &d, m, k0)
			}
		}
		check(t, &d, m)
	})
}

// TestHintIgnoresOutliers: one chunk starting near either end of the key
// space would stretch the hint's buckets until every other first key
// shared one bucket, and every lookup searched the whole level. The
// hint's range leaves it out, so the other keys still spread one or two
// to a bucket, and the hint still finds every key's chunk.
func TestHintIgnoresOutliers(t *testing.T) {
	for _, outlier := range []int64{math.MinInt64 + 1, math.MaxInt64 - 1} {
		first := []int64{math.MinInt64, outlier} // first[0] is never compared
		for k := int64(1); k <= 500; k++ {
			first = append(first, k*640)
		}
		slices.Sort(first[1:])
		top := newTop(first, make([]atomic.Pointer[chunk], len(first)))
		for _, k := range first[1:] {
			for _, v := range []int64{k - 1, k, k + 1} {
				if got, want := top.chunkOf(v), upperBound(first[1:], v); got != want {
					t.Fatalf("outlier %d: chunkOf(%d) = %d, want %d", outlier, v, got, want)
				}
			}
		}
		widest := 0
		for b := range len(top.hint.jump) - 1 {
			widest = max(widest, int(top.hint.jump[b+1]-top.hint.jump[b]))
		}
		if widest > 2 {
			t.Fatalf("outlier %d: a hint bucket holds %d of %d first keys", outlier, widest, len(first)-1)
		}
	}
}
