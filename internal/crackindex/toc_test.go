package crackindex

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptix/internal/directory"
	"adaptix/internal/latch"
	"adaptix/internal/workload"
)

// TestConvergedReadTakesNoStructureLatch: with the publishers' mutex
// held by someone else — a crack mid-publish, at worst — a Count or Sum
// whose bounds are boundaries, and every inspection of the table of
// contents, still return. (Behind an AVL tree under that mutex they all
// queued on it.)
func TestConvergedReadTakesNoStructureLatch(t *testing.T) {
	d := workload.NewUniqueUniform(1<<16, 21)
	ix := New(d.Values, Options{Latching: LatchPiece})
	ix.Sum(1000, 2000)
	ix.Count(30000, 40000)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, st := ix.Count(1000, 40000); n != 39000 || st.Touched != 0 {
			t.Errorf("Count = %d (touched %d)", n, st.Touched)
		}
		if s, _ := ix.Sum(2000, 30000); s != uniqueSum(d.Domain, 2000, 30000) {
			t.Errorf("Sum = %d", s)
		}
		if n, s, ok := ix.Peek(1000, 2000); !ok || n != 1000 || s != uniqueSum(d.Domain, 1000, 2000) {
			t.Errorf("Peek = %d, %d, %t", n, s, ok)
		}
		if _, _, ok := ix.Peek(1000, 2001); ok {
			t.Error("Peek answered a range whose upper bound is no boundary")
		}
		if pr := ix.Profile(); pr.Pieces != ix.NumPieces() || pr.Pieces != len(ix.Boundaries())+1 || pr.Pieces != len(ix.BoundaryPositions())+1 {
			t.Errorf("Profile counts %d pieces, NumPieces %d, %d boundaries", pr.Pieces, ix.NumPieces(), len(ix.Boundaries()))
		}
		if ix.Lifecycle() != StateAdaptive || !ix.Initialized() {
			t.Error("Lifecycle / Initialized")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a converged read or an inspection blocked on the structure mutex")
	}
}

// TestFirstLatchersMeetOnOneLatch: a piece's latch is created on first
// use, and whoever asks — with whatever stale view of the table — gets
// the same one: two queries race to first-latch each piece while a third
// keeps publishing cuts into the very chunk those pieces live in.
func TestFirstLatchersMeetOnOneLatch(t *testing.T) {
	const n, gap = 40, 1000
	vals := make([]int64, n*gap)
	var seeds []BoundaryPosition
	for i := range vals {
		vals[i] = int64(i)
		if i > 0 && i%gap == 0 {
			seeds = append(seeds, BoundaryPosition{Value: int64(i), Pos: i})
		}
	}
	ix := NewOwned(vals, summed(vals, seeds), Options{Latching: LatchPiece})
	stale := make([]directory.Ref, n)
	for i := range stale {
		stale[i] = ix.dir.Floor(int64(i) * gap) // all taken before any publish
		if stale[i].Latch() != nil {
			t.Fatalf("piece %d has a latch before anyone latched it", i)
		}
	}
	got := make([][2]*latch.Latch, n)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range stale {
				got[i][g] = ix.latchOf(p)
			}
		}()
	}
	wg.Add(1)
	go func() { // cracks [i*gap, (i+1)*gap) just above its start: same chunk, and splits it along the way
		defer wg.Done()
		for i := 0; i < n; i++ {
			for k := int64(1); k <= 3; k++ {
				v := int64(i)*gap + k
				ix.Count(v, v+1)
			}
		}
	}()
	wg.Wait()
	for i, p := range stale {
		cur := ix.dir.Floor(p.Key()).Latch()
		if cur == nil || got[i][0] != cur || got[i][1] != cur {
			t.Fatalf("piece %d: racers got %p and %p, the table now holds %p", i, got[i][0], got[i][1], cur)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateChecksTheTable: beyond prefix sums (prefix_test.go),
// Validate rejects a table of contents whose sentinels, positions or
// chunk structure are off.
func TestValidateChecksTheTable(t *testing.T) {
	d := workload.NewUniqueUniform(4096, 5)
	ix := New(d.Values, Options{})
	for v := int64(100); v < 4000; v += 100 {
		ix.Count(v, v+50)
	}
	good := slices.Collect(ix.dir.Ascend)
	for _, c := range []struct {
		name, want string
		corrupt    func(e []directory.Entry) []directory.Entry
	}{
		{"no maxKey sentinel", "sentinel", func(e []directory.Entry) []directory.Entry { return e[:len(e)-1] }},
		{"no minKey sentinel", "sentinel", func(e []directory.Entry) []directory.Entry { return e[1:] }},
		{"positions decrease", "at pos", func(e []directory.Entry) []directory.Entry { e[5].Pos = e[4].Pos - 1; return e }},
		{"boundary misplaced", "outside piece", func(e []directory.Entry) []directory.Entry { e[5].Pos++; return e }},
	} {
		ix.dir.Build(c.corrupt(slices.Clone(good)))
		if err := ix.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	ix.dir.Build(good)
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
