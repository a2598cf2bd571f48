package epoch

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestChain() (*Chain, *atomic.Int64) {
	var seq atomic.Int64
	return NewChain(func() int64 { return seq.Add(1) }), &seq
}

func TestInsertAndAdjustments(t *testing.T) {
	ch, _ := newTestChain()
	for _, v := range []int64{5, 1, 9, 5} {
		if _, ok := ch.Insert(v); !ok {
			t.Fatalf("Insert(%d) rejected on an open chain", v)
		}
	}
	if adj, n := ch.CountAdj(0, 10); adj != 4 || n != 1 {
		t.Errorf("CountAdj(0,10) = %d over %d epochs, want 4 over 1", adj, n)
	}
	if adj, _ := ch.CountAdj(5, 6); adj != 2 {
		t.Errorf("CountAdj(5,6) = %d, want 2", adj)
	}
	if adj, _ := ch.SumAdj(0, 10); adj != 20 {
		t.Errorf("SumAdj(0,10) = %d, want 20", adj)
	}
	ins, del := ch.Pending()
	if ins != 4 || del != 0 {
		t.Errorf("Pending() = %d/%d, want 4/0", ins, del)
	}
}

func TestDeleteChecksLogicalExistence(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(7)
	// One base instance + one pending insert = two logical instances.
	if _, deleted, ok := ch.Delete(7, 1); !ok || !deleted {
		t.Fatalf("Delete(7) = deleted=%v ok=%v, want both true", deleted, ok)
	}
	if _, deleted, _ := ch.Delete(7, 1); !deleted {
		t.Fatal("second Delete(7) should cancel the base instance")
	}
	if _, deleted, _ := ch.Delete(7, 1); deleted {
		t.Fatal("third Delete(7) deleted a non-existent instance")
	}
	if adj, _ := ch.CountAdj(7, 8); adj != -1 {
		t.Errorf("net adjustment = %d, want -1 (1 insert - 2 deletes)", adj)
	}
}

// assertNetOpen fails the test when the chain's open file holds an
// insert and an anti-matter record of one value, or when its record
// count n disagrees with its contents.
func assertNetOpen(t testing.TB, ch *Chain) {
	t.Helper()
	f := ch.open()
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, v := range f.ins {
		if CountRange(f.del, v, v+1) > 0 {
			t.Fatalf("open epoch %d holds both an insert and an anti-matter record of %d", f.id, v)
		}
	}
	if n := f.n.Load(); n != int64(len(f.ins)+len(f.del)) {
		t.Fatalf("open epoch %d: n = %d over %d records", f.id, n, len(f.ins)+len(f.del))
	}
}

// TestSameEpochInsertThenDeleteNetsToZero: a delete that meets a
// pending insert of its value in the open epoch removes it, so the
// pair leaves no record behind and the epoch has nothing to seal.
func TestSameEpochInsertThenDeleteNetsToZero(t *testing.T) {
	ch, _ := newTestChain()
	ins, _ := ch.Insert(5)
	eid, deleted, ok := ch.Delete(5, 0)
	if !ok || !deleted || eid != ins {
		t.Fatalf("Delete(5) = epoch %d, deleted=%v ok=%v, want epoch %d of the insert", eid, deleted, ok, ins)
	}
	assertNetOpen(t, ch)
	if n := ch.open().n.Load(); n != 0 {
		t.Errorf("open file n = %d, want 0", n)
	}
	if i, d := ch.Pending(); i != 0 || d != 0 {
		t.Errorf("Pending() = %d/%d, want 0/0", i, d)
	}
	if c, _ := ch.CountAdj(math.MinInt64, math.MaxInt64); c != 0 {
		t.Errorf("CountAdj = %d, want 0", c)
	}
	if s, _ := ch.SumAdj(math.MinInt64, math.MaxInt64); s != 0 {
		t.Errorf("SumAdj = %d, want 0", s)
	}
	if _, sealed := ch.Seal(); sealed {
		t.Error("Seal() sealed an epoch whose writes cancelled out")
	}
}

// TestDeleteOfSealedInsertWritesAntiMatter: cancellation never crosses
// epochs, so a delete whose insert sits in a sealed epoch writes
// anti-matter in the open one.
func TestDeleteOfSealedInsertWritesAntiMatter(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(5)
	ch.Seal()
	open := ch.OpenID()
	if eid, deleted, ok := ch.Delete(5, 0); !ok || !deleted || eid != open {
		t.Fatalf("Delete(5) = epoch %d, deleted=%v ok=%v, want the open epoch %d", eid, deleted, ok, open)
	}
	assertNetOpen(t, ch)
	if st := ch.Stats(); len(st) != 2 || st[0].Ins != 1 || st[1].Del != 1 {
		t.Errorf("Stats() = %+v, want the sealed insert and the open anti-matter", st)
	}
	if c, _ := ch.CountAdj(5, 6); c != 0 {
		t.Errorf("CountAdj(5, 6) = %d, want 0", c)
	}
}

// TestInsertCancelsOpenAntiMatter: an insert over anti-matter of its
// value in the open epoch removes the anti-matter record.
func TestInsertCancelsOpenAntiMatter(t *testing.T) {
	ch, _ := newTestChain()
	del, deleted, _ := ch.Delete(9, 1) // one base instance
	if !deleted {
		t.Fatal("Delete(9) found no base instance")
	}
	if eid, ok := ch.Insert(9); !ok || eid != del {
		t.Fatalf("Insert(9) = epoch %d ok=%v, want epoch %d of the anti-matter", eid, ok, del)
	}
	assertNetOpen(t, ch)
	if i, d := ch.Pending(); i != 0 || d != 0 {
		t.Errorf("Pending() = %d/%d, want 0/0", i, d)
	}
	if n := ch.open().n.Load(); n != 0 {
		t.Errorf("open file n = %d, want 0", n)
	}
}

func TestSealRollsWritersToNextEpoch(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(1)
	first := ch.OpenID()
	info, ok := ch.Seal()
	if !ok || info.ID != first || info.Ins != 1 {
		t.Fatalf("Seal() = %+v ok=%v, want id=%d ins=1", info, ok, first)
	}
	// Writers continue without parking: the insert lands in the new epoch.
	eid, ok := ch.Insert(2)
	if !ok || eid <= first {
		t.Fatalf("post-seal Insert landed in epoch %d (ok=%v), want > %d", eid, ok, first)
	}
	// Both epochs stay visible to readers.
	if adj, n := ch.CountAdj(math.MinInt64, math.MaxInt64); adj != 2 || n != 2 {
		t.Errorf("CountAdj = %d over %d epochs, want 2 over 2", adj, n)
	}
}

func TestSealEmptyEpochIsNoOp(t *testing.T) {
	ch, _ := newTestChain()
	if _, ok := ch.Seal(); ok {
		t.Error("Seal() of an empty open epoch reported work")
	}
	if ch.Len() != 1 {
		t.Errorf("chain length = %d after no-op seal, want 1", ch.Len())
	}
}

func TestRollRenumbersEmptyEpoch(t *testing.T) {
	ch, seq := newTestChain()
	before := ch.OpenID()
	ch.Roll()
	if ch.Len() != 1 {
		t.Fatalf("Roll of an empty chain churned a file: len=%d", ch.Len())
	}
	if after := ch.OpenID(); after <= before {
		t.Errorf("empty open epoch not renumbered past the cut: %d -> %d", before, after)
	}
	// Non-empty: must seal, not renumber.
	ch.Insert(3)
	w := seq.Load()
	ch.Roll()
	if ch.Len() != 2 {
		t.Fatalf("Roll of a non-empty chain did not seal: len=%d", ch.Len())
	}
	if open := ch.OpenID(); open <= w {
		t.Errorf("new open epoch id %d not beyond the cut %d", open, w)
	}
}

func TestSealedSnapshotAndFork(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(1)
	ch.Insert(2)
	ch.Seal()
	ch.Insert(3)
	ch.Seal()
	ch.Insert(4) // open epoch

	ins, del, watermark, n := ch.SealedSnapshot()
	if len(ins) != 3 || len(del) != 0 || n != 2 {
		t.Fatalf("SealedSnapshot = %d ins / %d del over %d epochs, want 3/0 over 2", len(ins), len(del), n)
	}
	fk := ch.Fork(watermark)
	if fk.Len() != 1 {
		t.Fatalf("forked chain has %d epochs, want 1 (the open one)", fk.Len())
	}
	if adj, _ := fk.CountAdj(math.MinInt64, math.MaxInt64); adj != 1 {
		t.Errorf("forked chain adjustment = %d, want 1 (only the open epoch)", adj)
	}
	// The open epoch file is shared: a write through the OLD chain is
	// visible through the fork (a stale part reference mid-publish).
	if _, ok := ch.Insert(5); !ok {
		t.Fatal("insert through the pre-fork chain rejected")
	}
	if adj, _ := fk.CountAdj(5, 6); adj != 1 {
		t.Error("write through the pre-fork chain invisible through the fork")
	}
}

func TestForkAfterEverythingSealedOpensFresh(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(1)
	ch.Close() // seal the open epoch with no successor
	fk := ch.Fork(math.MaxInt64)
	if fk.Len() != 1 {
		t.Fatalf("fork of a fully-applied chain has %d epochs, want 1 fresh", fk.Len())
	}
	if _, ok := fk.Insert(2); !ok {
		t.Error("fresh forked chain rejected an insert")
	}
}

func TestCloseCutsWritersReopenRestores(t *testing.T) {
	ch, _ := newTestChain()
	ch.Insert(1)
	ch.Close()
	if _, ok := ch.Insert(2); ok {
		t.Fatal("insert accepted on a closed chain")
	}
	if _, _, ok := ch.Delete(1, 0); ok {
		t.Fatal("delete accepted on a closed chain")
	}
	ch.Reopen()
	if _, ok := ch.Insert(2); !ok {
		t.Fatal("insert rejected after Reopen")
	}
}

func TestCollectHonorsWatermark(t *testing.T) {
	ch, seq := newTestChain()
	ch.Insert(1)
	w := seq.Load() // the cut is taken BEFORE the roll (as SealAllEpochs does)
	ch.Roll()
	ch.Insert(2) // beyond the cut
	ins, del := ch.Collect(w)
	if len(ins) != 1 || ins[0] != 1 || len(del) != 0 {
		t.Errorf("Collect(%d) = %v/%v, want [1]/[]", w, ins, del)
	}
	ins, _ = ch.Collect(math.MaxInt64)
	if len(ins) != 2 {
		t.Errorf("Collect(max) = %v, want both epochs", ins)
	}
}

// TestConcurrentWritersAcrossSeals hammers one chain from many
// goroutines while the main goroutine seals repeatedly; every write
// must land exactly once (run under -race).
func TestConcurrentWritersAcrossSeals(t *testing.T) {
	ch, _ := newTestChain()
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				for {
					if _, ok := ch.Insert(int64(w*perW + i)); ok {
						break
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			ch.Seal()
		}
	}()
	wg.Wait()
	<-done
	if adj, _ := ch.CountAdj(math.MinInt64, math.MaxInt64); adj != writers*perW {
		t.Errorf("net count = %d, want %d", adj, writers*perW)
	}
	ins, del := ch.Pending()
	if ins != writers*perW || del != 0 {
		t.Errorf("Pending = %d/%d, want %d/0", ins, del, writers*perW)
	}
}

// TestChainReadsStress races latch-free CountAdj/SumAdj readers
// against writers and every structural operation — Seal, Roll,
// Close/Reopen and Fork — (run under -race in CI). Each writer reads
// its own write back right after it returns, and churns one key of its
// own (insert, then delete), so open files shrink as well as grow under
// the readers; readers never see a net count below zero (every delete
// follows its insert), nor more churn keys than writers; and the final
// adjustment equals a serial model of the writes that succeeded.
func TestChainReadsStress(t *testing.T) {
	first, _ := newTestChain()
	var cur atomic.Pointer[Chain] // the chain writers route to
	cur.Store(first)
	const writers, perW, rounds = 4, 1000, 200
	const churn = int64(writers) << 32 // writer w's churn key is churn+w
	var model [writers]struct{ n, sum int64 }
	var progress, finished atomic.Int64 // inserts done and writers done: pace the structural operations
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			defer finished.Add(1)
			m := &model[w]
			for i := 0; i < perW; i++ {
				v := int64(w)<<32 | int64(i)
				var ch *Chain
				for ch = cur.Load(); ; ch = cur.Load() {
					if _, ok := ch.Insert(v); ok {
						break
					}
				}
				m.n, m.sum = m.n+1, m.sum+v
				progress.Add(1)
				if n, _ := ch.CountAdj(v, v+1); n < 1 {
					t.Errorf("insert of %d invisible to its writer's next CountAdj", v)
					return
				}
				if i%3 != 2 {
					continue
				}
				d := v - 1 // delete the previous insert
				for ch = cur.Load(); ; ch = cur.Load() {
					_, deleted, ok := ch.Delete(d, 0)
					if !ok {
						continue
					}
					if !deleted {
						t.Errorf("Delete(%d) found no instance of a pending insert", d)
						return
					}
					break
				}
				m.n, m.sum = m.n-1, m.sum-d
				if n, _ := ch.CountAdj(d, d+1); n != 0 {
					t.Errorf("delete of %d invisible to its writer's next CountAdj (net %d)", d, n)
					return
				}
				// Churn: insert and delete the writer's churn key, which
				// mostly cancels in the open epoch, so n falls under the
				// latch-free readers.
				c := churn + int64(w)
				for ch = cur.Load(); ; ch = cur.Load() {
					if _, ok := ch.Insert(c); ok {
						break
					}
				}
				for ch = cur.Load(); ; ch = cur.Load() {
					if _, deleted, ok := ch.Delete(c, 0); ok {
						if !deleted {
							t.Errorf("Delete(%d) found no instance of a pending insert", c)
							return
						}
						break
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readersDone sync.WaitGroup
	for r := 0; r < 2; r++ {
		readersDone.Add(1)
		go func() {
			defer readersDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch := cur.Load()
				if n, _ := ch.CountAdj(math.MinInt64, math.MaxInt64); n < 0 {
					t.Errorf("net count %d below zero", n)
					return
				}
				if n, _ := ch.CountAdj(churn, churn+writers); n < 0 || n > writers {
					t.Errorf("net count %d of the churn keys outside [0, %d]", n, writers)
					return
				}
				ch.SumAdj(0, 1<<32)
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		for progress.Load() < int64(i*writers*perW/rounds) && finished.Load() < writers {
			runtime.Gosched()
		}
		ch := cur.Load()
		switch i % 4 {
		case 0:
			ch.Seal()
		case 1:
			ch.Roll()
		case 2:
			ch.Close()
			ch.Reopen()
		case 3:
			cur.Store(ch.Fork(0)) // keeps every file; writers on ch re-route once its open file seals
		}
	}
	writersDone.Wait()
	close(stop)
	readersDone.Wait()

	var want struct{ n, sum int64 }
	for _, m := range model {
		want.n, want.sum = want.n+m.n, want.sum+m.sum
	}
	ch := cur.Load()
	if n, _ := ch.CountAdj(math.MinInt64, math.MaxInt64); n != want.n {
		t.Errorf("final CountAdj = %d, want %d", n, want.n)
	}
	if s, _ := ch.SumAdj(math.MinInt64, math.MaxInt64); s != want.sum {
		t.Errorf("final SumAdj = %d, want %d", s, want.sum)
	}
}

// TestChainReadsDoNotAllocate: a chain read allocates nothing, on an
// empty chain and on one with sealed and open records.
func TestChainReadsDoNotAllocate(t *testing.T) {
	ch, _ := newTestChain()
	read := func() {
		ch.CountAdj(10, 20)
		ch.SumAdj(10, 20)
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("empty chain read allocates %v per op", n)
	}
	for v := int64(0); v < 32; v++ {
		ch.Insert(v)
		if v%8 == 7 {
			ch.Seal()
		}
	}
	ch.Delete(15, 0)
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("non-empty chain read allocates %v per op", n)
	}
}

// FuzzChainVsMultiset decodes bytes into chain operations over 8 keys —
// insert, delete against a base count, cancel, Seal, Roll, Fork past
// the sealed watermark (a group-apply) and Collect — and checks the
// chain against a model after every op: each epoch as a net count per
// key, over a base multiset that a fork folds the applied epochs into.
// CountAdj, SumAdj, Pending, Stats and Collect must agree with it, the
// open file must hold one sign per value, and no key's logical count
// may fall below zero.
func FuzzChainVsMultiset(f *testing.F) {
	f.Add([]byte{0, 2, 8, 10, 4, 2, 0, 5, 10, 1, 7, 6, 3})
	f.Add([]byte{2, 10, 0, 0, 4, 2, 2, 2, 8, 5, 0, 3, 6, 7, 15})
	f.Add([]byte{9, 17, 25, 4, 26, 18, 5, 1, 3, 6, 34, 42, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const keys = 8
		key := func(k int) int64 { return int64(k)*3 - 5 } // negatives, zero, and gaps
		type epochModel struct {
			id     int64
			sealed bool
			net    [keys]int64
		}
		ch, seq := newTestChain()
		var base [keys]int64 // key k starts with k%3 base instances
		for k := range base {
			base[k] = int64(k % 3)
		}
		epochs := []*epochModel{{id: seq.Load()}}
		open := func() *epochModel { return epochs[len(epochs)-1] }
		openNew := func() { epochs = append(epochs, &epochModel{id: seq.Load()}) } // after the op drew its id
		// Long streams only slow the fuzzer down.
		for i, b := range ops[:min(len(ops), 64)] {
			k := int(b>>3) % keys
			v := key(k)
			switch b % 8 {
			case 0, 1:
				eid, ok := ch.Insert(v)
				if !ok || eid != open().id {
					t.Fatalf("op %d: Insert(%d) = epoch %d ok=%v, want epoch %d", i, v, eid, ok, open().id)
				}
				open().net[k]++
			case 2, 3:
				n := base[k]
				if b%8 == 3 { // a delete's first attempt counts no base instance
					n = 0
				}
				eid, deleted, ok := ch.Delete(v, n)
				for _, e := range epochs {
					n += e.net[k]
				}
				// A pending insert in the open epoch is cancelled even
				// when the counted instances net to zero.
				want := open().net[k] > 0 || n > 0
				if !ok || deleted != want || deleted && eid != open().id {
					t.Fatalf("op %d: delete (%d) of %d = epoch %d deleted=%v ok=%v, want deleted=%v in epoch %d", i, b%8, v, eid, deleted, ok, want, open().id)
				}
				if deleted {
					open().net[k]--
				}
			case 4:
				var ins, del int
				for _, n := range open().net {
					ins, del = ins+int(max(n, 0)), del+int(max(-n, 0))
				}
				info, ok := ch.Seal()
				if want := ins+del > 0; ok != want || ok && info != (Sealed{ID: open().id, Ins: ins, Del: del}) {
					t.Fatalf("op %d: Seal() = %+v ok=%v, want id %d with %d/%d records", i, info, ok, open().id, ins, del)
				}
				if ok {
					open().sealed = true
					openNew()
				}
			case 5:
				empty := open().net == [keys]int64{}
				ch.Roll()
				if empty {
					open().id = seq.Load()
				} else {
					open().sealed = true
					openNew()
				}
			case 6:
				var watermark int64
				for _, e := range epochs {
					if e.sealed {
						watermark = e.id
					}
				}
				_, _, w, _ := ch.SealedSnapshot()
				if w != watermark {
					t.Fatalf("op %d: sealed watermark %d, want %d", i, w, watermark)
				}
				ch = ch.Fork(watermark)
				kept := epochs[:0]
				for _, e := range epochs {
					if e.id > watermark {
						kept = append(kept, e)
						continue
					}
					for k, n := range e.net {
						base[k] += n
					}
				}
				epochs = kept
			case 7:
				w := epochs[int(b>>3)%len(epochs)].id
				ins, del := ch.Collect(w)
				var want [keys]int64
				records := 0 // every file is net per value: one record per unit
				for _, e := range epochs {
					if e.id <= w {
						for k, n := range e.net {
							want[k] += n
							records += int(max(n, -n))
						}
					}
				}
				var got [keys]int64
				ins, del = slices.Sorted(slices.Values(ins)), slices.Sorted(slices.Values(del))
				for k := range got {
					got[k] = CountRange(ins, key(k), key(k)+1) - CountRange(del, key(k), key(k)+1)
				}
				if got != want || len(ins)+len(del) != records {
					t.Fatalf("op %d: Collect(%d) = %v/%v, want net %v", i, w, ins, del, want)
				}
			}

			assertNetOpen(t, ch)
			st := ch.Stats()
			if len(st) != len(epochs) {
				t.Fatalf("op %d: chain of %d epochs, want %d", i, len(st), len(epochs))
			}
			var pIns, pDel int
			for j, e := range epochs {
				want := Stat{ID: e.id, Sealed: e.sealed}
				for _, n := range e.net {
					want.Ins, want.Del = want.Ins+int(max(n, 0)), want.Del+int(max(-n, 0))
				}
				if st[j] != want {
					t.Fatalf("op %d: epoch %d is %+v, want %+v", i, j, st[j], want)
				}
				pIns, pDel = pIns+want.Ins, pDel+want.Del
			}
			var sum int64
			for k := range keys {
				var net int64
				for _, e := range epochs {
					net += e.net[k]
				}
				if base[k]+net < 0 {
					t.Fatalf("op %d: key %d has logical count %d", i, key(k), base[k]+net)
				}
				if c, _ := ch.CountAdj(key(k), key(k)+1); c != net {
					t.Fatalf("op %d: CountAdj of %d = %d, want %d", i, key(k), c, net)
				}
				sum += net * key(k)
			}
			if s, _ := ch.SumAdj(math.MinInt64, math.MaxInt64); s != sum {
				t.Fatalf("op %d: SumAdj = %d, want %d", i, s, sum)
			}
			if gi, gd := ch.Pending(); gi != pIns || gd != pDel {
				t.Fatalf("op %d: Pending() = %d/%d, want %d/%d", i, gi, gd, pIns, pDel)
			}
		}
	})
}

// sortedCopy returns s sorted, leaving s alone.
func sortedCopy(s []int64) []int64 { return slices.Sorted(slices.Values(s)) }
