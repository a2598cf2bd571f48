package shard

import (
	"context"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/workload"
)

// TestQueryCancelledBeforeDispatch: a context cancelled before Count
// is called returns ctx.Err() without dispatching a single sub-query —
// no shard initializes, cracks, or records any refinement.
func TestQueryCancelledBeforeDispatch(t *testing.T) {
	d := workload.NewUniqueUniform(1<<14, 3)
	c := New(d.Values, Options{Shards: 4, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Count(ctx, 100, int64(1<<14-100)); err != context.Canceled {
		t.Fatalf("Count = %v, want Canceled", err)
	}
	for _, st := range c.Snapshot() {
		if st.Cracks != 0 {
			t.Fatalf("shard %d refined by a cancelled query: %+v", st.Shard, st)
		}
	}
}

// TestFanOutCancelSkipsRemainingSubQueries: a query cancelled while
// its first (caller-run) sub-query executes must return
// context.Canceled without running the remaining per-shard sub-query,
// asserted through the ShardStat deltas: the far fringe shard keeps
// zero cracks and zero pieces.
//
// The schedule is deterministic: the test holds every fan-out worker
// slot of the column, so the second sub-query cannot start before the
// cancellation (triggered from inside the first sub-query's crack via
// the tracer hook) is observed.
func TestFanOutCancelSkipsRemainingSubQueries(t *testing.T) {
	const rows = 1 << 14
	d := workload.NewUniqueUniform(rows, 7)
	ctx, cancel := context.WithCancel(context.Background())
	c := New(d.Values, Options{
		Shards: 2, Seed: 5,
		Index: crackindex.Options{
			Latching: crackindex.LatchPiece,
			Tracer: func(e crackindex.TraceEvent) {
				if e.Kind == crackindex.TraceCracked {
					cancel() // first physical crack cancels the query
				}
			},
		},
	})
	if c.NumShards() != 2 {
		t.Skipf("quantile cuts collapsed to %d shards", c.NumShards())
	}

	// Occupy every worker slot so the second sub-query cannot start
	// until after the cancellation.
	for range cap(c.sem) {
		c.sem <- struct{}{}
	}
	done := make(chan error, 1)
	go func() {
		// Clip both ends so each fringe shard is only partially covered
		// and must run a real sub-query (no aggregate fast path).
		_, _, err := c.Count(ctx, 1, rows-1)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fan-out query never returned")
	}
	for range cap(c.sem) { // release the stolen slots
		<-c.sem
	}
	if err != context.Canceled {
		t.Fatalf("Count = %v, want Canceled", err)
	}

	stats := c.Snapshot()
	if stats[0].Cracks == 0 {
		t.Fatal("first sub-query never cracked; the schedule broke")
	}
	if stats[1].Cracks != 0 {
		t.Fatalf("remaining sub-query ran after cancellation: %+v", stats[1])
	}

	// The column answers exactly once the context pressure is gone.
	if n, _, err := c.Count(context.Background(), 1, rows-1); err != nil || n != rows-2 {
		t.Fatalf("post-cancel Count = (%d, %v), want %d", n, err, rows-2)
	}
}

// TestDeleteProbeHonoursContext: the delete-existence probe is a query
// like any other — a cancelled context aborts the delete with the
// write not applied instead of running (or parking in) the probe.
func TestDeleteProbeHonoursContext(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 11)
	c := New(d.Values, Options{Shards: 2, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if deleted, err := c.DeleteValue(ctx, d.Values[0]); err != context.Canceled || deleted {
		t.Fatalf("cancelled DeleteValue = (%v, %v), want Canceled", deleted, err)
	}
	if n, _, err := c.Count(context.Background(), -1<<40, 1<<40); err != nil || n != 1<<12 {
		t.Fatalf("cancelled delete leaked: Count = (%d, %v)", n, err)
	}
}

// TestWriteParkUnparksOnCancel: a writer parked behind a structural
// seal unparks with ctx.Err() when cancelled instead of waiting for
// the successor map.
func TestWriteParkUnparksOnCancel(t *testing.T) {
	d := workload.NewUniqueUniform(1<<12, 9)
	c := New(d.Values, Options{Shards: 2, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	m := c.m.Load()
	p := m.shards[0]
	p.seal() // structural reroute in progress, no successor published

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Insert(ctx, p.loVal+1)
	if err != context.DeadlineExceeded {
		t.Fatalf("Insert = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("parked writer waited %v past a 20ms deadline", waited)
	}
	p.unseal()
	if err := c.Insert(context.Background(), p.loVal+1); err != nil {
		t.Fatalf("post-unseal Insert: %v", err)
	}
}
