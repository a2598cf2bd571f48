package engine

import (
	"context"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/workload"
)

func TestCrackAdapter(t *testing.T) {
	d := workload.NewUniqueUniform(5000, 3)
	ix := crackindex.New(d.Values, crackindex.Options{Latching: crackindex.LatchPiece})
	e := Named(SourceFromIndex(ix), "crack")
	if e.Name() != "crack" {
		t.Fatalf("Name = %q", e.Name())
	}
	n, st, err := e.Count(context.Background(), 100, 600)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("Count = %d", n)
	}
	if st.Refine == 0 {
		t.Fatal("first query should report refinement time")
	}
	s, _, _ := e.Sum(context.Background(), 100, 600)
	if want := int64((100 + 599) * 500 / 2); s != want {
		t.Fatalf("Sum = %d, want %d", s, want)
	}
	if ix.NumPieces() < 3 {
		t.Fatalf("the adapter did not reach the index: %d pieces", ix.NumPieces())
	}
}

func TestNamedAdapter(t *testing.T) {
	d := workload.NewUniqueUniform(100, 5)
	ix := crackindex.New(d.Values, crackindex.Options{})
	e := Named(SourceFromIndex(ix), "crack-fifo")
	if e.Name() != "crack-fifo" {
		t.Fatalf("Name = %q", e.Name())
	}
}

func TestResultCarriesBreakdown(t *testing.T) {
	d := workload.NewUniqueUniform(1000, 7)
	ix := crackindex.New(d.Values, crackindex.Options{
		Latching:   crackindex.LatchPiece,
		OnConflict: crackindex.Skip,
	})
	e := Named(SourceFromIndex(ix), "crack")
	// Without contention nothing is skipped and conflicts are zero.
	_, st, _ := e.Count(context.Background(), 10, 500)
	if st.Skipped || st.Conflicts != 0 {
		t.Fatalf("unexpected contention markers: %+v", st)
	}
	// A cancelled context returns its error and no work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st, err := e.Sum(ctx, 600, 700); err != context.Canceled || st.Refine != 0 {
		t.Fatalf("cancelled Sum: err %v, cost %+v", err, st)
	}
}
