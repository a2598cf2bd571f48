package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

var errSink = errors.New("sink failed")

// memLog is an in-memory WriteLog: it keeps every logged write, in
// order, and its Sync does nothing.
type memLog struct {
	mu     sync.Mutex
	writes []wal.TailWrite
}

func (l *memLog) LogWrite(v, epoch int64, del bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writes = append(l.writes, wal.TailWrite{Value: v, Delete: del, Epoch: epoch})
	return nil
}

func (l *memLog) Sync() error { return nil }

// logged returns a copy of the writes logged so far.
func (l *memLog) logged() []wal.TailWrite {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wal.TailWrite(nil), l.writes...)
}

// countingSink is a write log that counts every logged write and every
// fsync, so the tests can assert the group-commit policy's bounded
// loss window: the number of records appended after the last fsync is
// the data at risk in a crash. It fails every write from the failAt-th
// on (never, when 0), and every fsync when failSync is set.
type countingSink struct {
	mu            sync.Mutex
	writes        int
	syncs         int
	unsyncedRuns  []int // records between consecutive fsyncs
	sinceLastSync int
	failAt        int
	failSync      bool
}

func (s *countingSink) LogWrite(int64, int64, bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writes++; s.failAt > 0 && s.writes >= s.failAt {
		return errSink
	}
	s.sinceLastSync++
	return nil
}

func (s *countingSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failSync {
		return errSink
	}
	s.syncs++
	s.unsyncedRuns = append(s.unsyncedRuns, s.sinceLastSync)
	s.sinceLastSync = 0
	return nil
}

func (s *countingSink) snapshot() (syncs int, runs []int, tail int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs, append([]int(nil), s.unsyncedRuns...), s.sinceLastSync
}

// TestGroupCommitSyncEvery: with SyncEvery = N, the log is fsynced at
// least every N logical records, so a crash can lose at most N-1 of
// the newest writes — the bounded loss window, asserted as "no fsync
// gap ever exceeds N records". SyncEvery left at zero means N =
// ApplyThreshold, so the default window is bounded too.
func TestGroupCommitSyncEvery(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		syncEvery, applyThreshold int
		bound                     int
	}{
		{"SyncEvery", 4, 1 << 20, 4},
		{"default is ApplyThreshold", 0, 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := workload.NewUniqueUniform(1<<10, 3)
			col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5,
				Index: crackindex.Options{Latching: crackindex.LatchPiece}})
			sink := &countingSink{}
			g := New(col, Options{
				Log: sink, SyncEvery: tc.syncEvery,
				ApplyThreshold: tc.applyThreshold, CheckEvery: 1 << 20,
			})

			const writes = 21
			for i := 0; i < writes; i++ {
				if err := g.Insert(qctx, d.Domain+int64(i)); err != nil {
					t.Fatal(err)
				}
			}

			syncs, runs, tail := sink.snapshot()
			if syncs != writes/tc.bound || g.Stats().GroupSyncs != int64(writes/tc.bound) {
				t.Errorf("fsyncs = %d, Stats.GroupSyncs = %d, want %d", syncs, g.Stats().GroupSyncs, writes/tc.bound)
			}
			// The loss window: no gap between fsyncs may exceed the
			// bound, every write reached the log, and the unsynced tail
			// is at most bound-1.
			logged := tail
			for i, run := range runs {
				logged += run
				if run > tc.bound {
					t.Errorf("fsync gap %d carried %d records, want <= %d", i, run, tc.bound)
				}
			}
			if logged != writes || tail >= tc.bound {
				t.Errorf("logged %d records with %d unsynced, want %d and < %d", logged, tail, writes, tc.bound)
			}
		})
	}
}

// TestGroupCommitElectsOneSyncer: writers that cross the SyncEvery
// threshold together elect one syncer, so N logged writes cost at most
// N/SyncEvery group fsyncs — neither a batch synced twice nor an
// increment wiped by a concurrent reset. The NoSync file sink is the
// durable store's write path; over the in-memory log a write takes
// even less time, so writers cross the threshold together often
// enough for a few rounds to catch a double election.
func TestGroupCommitElectsOneSyncer(t *testing.T) {
	const writers, perWriter, syncEvery = 8, 2000, 2
	d := workload.NewUniqueUniform(1<<10, 9)
	sink, err := wal.NewFileSink(t.TempDir(), wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	run := func(log WriteLog) {
		col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5,
			Index: crackindex.Options{Latching: crackindex.LatchPiece}})
		g := New(col, Options{
			Log: log, SyncEvery: syncEvery,
			ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
		})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := g.Insert(qctx, d.Domain+int64(w*perWriter+i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := g.Stats()
		if st.LoggedWrites != writers*perWriter {
			t.Fatalf("LoggedWrites = %d, want %d", st.LoggedWrites, writers*perWriter)
		}
		if bound := st.LoggedWrites / syncEvery; st.GroupSyncs > bound {
			t.Fatalf("GroupSyncs = %d for %d writes at SyncEvery %d, want <= %d",
				st.GroupSyncs, st.LoggedWrites, syncEvery, bound)
		}
	}
	run(sink)
	for range 8 {
		run(&memLog{})
	}
}

// TestGroupCommitSyncInterval: unsynced logical records are fsynced by
// the background ticker even when the record-count bound (here the
// default, ApplyThreshold) never triggers.
func TestGroupCommitSyncInterval(t *testing.T) {
	d := workload.NewUniqueUniform(1<<10, 5)
	col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	sink := &countingSink{}
	g := New(col, Options{
		Log:            sink,
		SyncInterval:   5 * time.Millisecond,
		ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
	})
	g.Start()
	defer g.Close()

	if err := g.Insert(qctx, d.Domain+1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().GroupSyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval ticker never fsynced the unsynced record")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogIsFailStop: a logged write is acknowledged only if its record
// reached the log. The write whose append or group fsync fails returns
// the error, and so does every later insert, delete and batch, none of
// which routes.
func TestLogIsFailStop(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sink      *countingSink
		syncEvery int
		acked     int // inserts acknowledged before the failing one
	}{
		{"append", &countingSink{failAt: 3}, 1 << 20, 2},
		{"fsync", &countingSink{failSync: true}, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := workload.NewUniqueUniform(1<<10, 3)
			col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5})
			g := New(col, Options{
				Log: tc.sink, SyncEvery: tc.syncEvery,
				ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
			})
			for i := range 5 {
				err := g.Insert(qctx, d.Domain+int64(i))
				if i < tc.acked && err != nil || i >= tc.acked && !errors.Is(err, errSink) {
					t.Fatalf("Insert #%d = %v, want %d acknowledged, then the sink's error", i, err, tc.acked)
				}
			}
			if _, err := g.DeleteValue(qctx, 0); !errors.Is(err, errSink) {
				t.Errorf("DeleteValue after the failure = %v, want the sink's error", err)
			}
			if _, err := g.Apply(qctx, []Op{{Value: -1}}); !errors.Is(err, errSink) {
				t.Errorf("Apply after the failure = %v, want the sink's error", err)
			}
			// The failing insert routed before its record failed; the
			// refused writes never routed.
			if got, want := col.Rows(), len(d.Values)+tc.acked+1; got != want {
				t.Errorf("Rows = %d, want %d", got, want)
			}
			if st := g.Stats(); st.LoggedWrites != 2 || st.GroupSyncs != 0 {
				t.Errorf("LoggedWrites %d, GroupSyncs %d, want 2 and 0", st.LoggedWrites, st.GroupSyncs)
			}
		})
	}
}

// parkingSink is a write log whose first fsync parks: it reports that it
// started on entered, then waits for release to close.
type parkingSink struct {
	once             sync.Once
	entered, release chan struct{}
}

func (s *parkingSink) LogWrite(int64, int64, bool) error { return nil }

func (s *parkingSink) Sync() error {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return nil
}

// TestGroupCommitLostElectionWaitsForFsync: a writer whose count
// reaches SyncEvery but loses the syncer election — to a writer whose
// count went past the threshold, or to the interval ticker — returns
// only once the winner's fsync, which covers its record, has completed.
// The syncElect seam holds the writer between its count and its
// election while the winner resets the counter and parks in the sink's
// fsync.
func TestGroupCommitLostElectionWaitsForFsync(t *testing.T) {
	for _, tc := range []struct {
		name string
		win  func(g *Coordinator) error
	}{
		{"writer", func(g *Coordinator) error { return g.Insert(qctx, -2) }},
		{"ticker", func(g *Coordinator) error { g.groupSyncTick(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := shard.New(workload.NewUniqueUniform(1<<10, 3).Values, shard.Options{Shards: 2, Seed: 5})
			sink := &parkingSink{entered: make(chan struct{}), release: make(chan struct{})}
			g := New(col, Options{
				Log: sink, SyncEvery: 2,
				ApplyThreshold: 1 << 20, CheckEvery: 1 << 20,
			})
			held, elect := make(chan struct{}), make(chan struct{})
			var hold atomic.Bool
			syncElect = func() {
				if hold.CompareAndSwap(false, true) { // the first writer only
					close(held)
					<-elect
				}
			}
			defer func() { syncElect = func() {} }()

			if err := g.Insert(qctx, -1); err != nil { // count 1: no fsync due
				t.Fatal(err)
			}
			acked := make(chan error, 1)
			go func() { acked <- g.Insert(qctx, -3) }() // count 2: held before its election
			<-held
			won := make(chan error, 1)
			go func() { won <- tc.win(g) }()
			<-sink.entered // the winner reset the counter and its fsync is parked
			close(elect)   // the held writer now loses its election
			select {
			case err := <-acked:
				t.Fatalf("the writer that lost the election was acknowledged (%v) while the fsync covering its record was still running", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(sink.release)
			if err := <-acked; err != nil {
				t.Fatalf("held writer: %v", err)
			}
			if err := <-won; err != nil {
				t.Fatalf("winner: %v", err)
			}
			if st := g.Stats(); st.GroupSyncs != 1 {
				t.Errorf("GroupSyncs = %d, want 1: the held writer must wait for the winner's fsync, not run its own", st.GroupSyncs)
			}
		})
	}
}

// TestLoggedWriteZeroAlloc is the allocation gate of the product's
// logged write: an insert and a delete routed through a coordinator
// logging into a file sink — epoch append, compact record framed into
// the segment's mapping, group-commit count and fsync election —
// allocate nothing.
func TestLoggedWriteZeroAlloc(t *testing.T) {
	d := workload.NewUniqueUniform(1<<10, 3)
	col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 5})
	sink, err := wal.NewFileSink(t.TempDir(), wal.SinkOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	g := New(col, Options{Log: sink, SyncEvery: 16, ApplyThreshold: 1 << 20, CheckEvery: 1 << 20})
	v := d.Domain + 1
	allocs := testing.AllocsPerRun(1000, func() {
		if err := g.Insert(qctx, v); err != nil {
			t.Fatal(err)
		}
		if ok, err := g.DeleteValue(qctx, v); !ok || err != nil {
			t.Fatalf("DeleteValue = %v, %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("logged insert + delete: %v allocs/op, want 0", allocs)
	}
	if st := g.Stats(); st.LoggedWrites < 2000 || st.GroupSyncs == 0 {
		t.Fatalf("LoggedWrites %d, GroupSyncs %d: the writes were not logged", st.LoggedWrites, st.GroupSyncs)
	}
}
