package epoch

import (
	"math"
	"runtime"
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
// its own write back right after it returns; readers never see a net
// count below zero (every delete follows its insert); and the final
// adjustment equals a serial model of the writes that succeeded.
func TestChainReadsStress(t *testing.T) {
	first, _ := newTestChain()
	var cur atomic.Pointer[Chain] // the chain writers route to
	cur.Store(first)
	const writers, perW, rounds = 4, 1000, 200
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
