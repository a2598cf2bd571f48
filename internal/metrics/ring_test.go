package metrics

import "testing"

// TestRingReadStates: Read tells a whole record from one not yet
// published and from one already overwritten — the three cases the
// workload drainer treats differently (persist, retry, count as lost).
func TestRingReadStates(t *testing.T) {
	r := NewRing(2, 3)
	r.Push(1, 2, 3)
	var w [3]int64
	if got := r.Read(0, w[:]); got != 0 || w != [3]int64{1, 2, 3} {
		t.Fatalf("Read(0) = %d, %v; want 0, [1 2 3]", got, w)
	}
	if got := r.Read(1, w[:]); got >= 0 {
		t.Fatalf("Read of an unclaimed record = %d, want < 0", got)
	}
	r.Push(4, 5, 6)
	r.Push(7, 8, 9) // laps record 0
	if got := r.Read(0, w[:]); got <= 0 {
		t.Fatalf("Read of an overwritten record = %d, want > 0", got)
	}
	if lo, hi := r.Window(); lo != 1 || hi != 3 {
		t.Fatalf("Window = [%d, %d), want [1, 3)", lo, hi)
	}
	if got := r.Read(2, w[:]); got != 0 || w != [3]int64{7, 8, 9} {
		t.Fatalf("Read(2) = %d, %v; want 0, [7 8 9]", got, w)
	}
}

// TestRingLappedWriterKeepsSlot: a writer preempted mid-record for a
// whole lap still owns its slot; the writer of the next lap gives its
// record up instead of interleaving stores with it, so the slot never
// holds a mix of the two records.
func TestRingLappedWriterKeepsSlot(t *testing.T) {
	r := NewRing(2, 2)
	stale := r.slot(r.next.Add(1) - 1) // seq 0, claimed
	stale[0].Store(1)                  // ... and taken, then preempted
	stale[1].Store(5)
	r.Push(10, 11) // seq 1
	r.Push(20, 21) // seq 2: slot 0 is still being written, gives up
	stale[2].Store(6)
	stale[0].Store(2) // seq 0 published at last
	var w [2]int64
	if got := r.Read(2, w[:]); got >= 0 {
		t.Fatalf("Read of the given-up record = %d, %v; want < 0", got, w)
	}
	if got := r.Read(0, w[:]); got != 0 || w != [2]int64{5, 6} {
		t.Fatalf("Read(0) = %d, %v; want 0, [5 6]", got, w)
	}
	r.Push(30, 31) // seq 3: slot 1, undisturbed
	r.Push(40, 41) // seq 4: slot 0 holds an older record again
	if got := r.Read(4, w[:]); got != 0 || w != [2]int64{40, 41} {
		t.Fatalf("Read(4) = %d, %v; want 0, [40 41]", got, w)
	}
}
