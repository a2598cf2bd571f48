package serve

import (
	"bufio"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// newTestServer builds a 4-shard cracked column with an active ingest
// coordinator behind a server on a loopback listener, returning the
// server and a cleanup.
func newTestServer(t *testing.T, rows int, o Options) (*Server, *workload.Dataset) {
	t.Helper()
	d := workload.NewUniqueUniform(rows, 7)
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: 3,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	g := ingest.New(col, ingest.Options{
		ApplyThreshold: 256, MinShardRows: 512, CheckEvery: 128,
	})
	g.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Backend{Col: col, Ing: g}, ln, o)
	t.Cleanup(func() {
		s.Close()
		g.Close()
	})
	return s, d
}

func dialT(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// hold occupies the lane of the shard owning v as if an executor were
// running a batch there: queries to that shard park behind it, without a
// timer, until release. release then serves what queued, as a real
// executor does when its batch finishes.
func (s *scheduler) hold(v int64) (release func()) {
	s.mu.Lock()
	l := s.lane(s.col.Home(v))
	l.running++
	l.started = time.Now()
	s.mu.Unlock()
	return sync.OnceFunc(func() { s.drain(l) })
}

// parked returns the number of queries waiting in the scheduler.
func (s *scheduler) parked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// waitParked waits until n queries are parked in s's scheduler.
func waitParked(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; s.sc.parked() < n; i++ {
		if i > 5000 {
			t.Fatalf("%d of %d queries parked", s.sc.parked(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWireBasicOps(t *testing.T) {
	const rows = 1 << 12
	s, d := newTestServer(t, rows, Options{})
	c := dialT(t, s)
	ctx := context.Background()

	if n, err := c.Count(ctx, 100, 200); err != nil || n != d.TrueCount(100, 200) {
		t.Fatalf("Count = %d, %v; want %d", n, err, d.TrueCount(100, 200))
	}
	if v, err := c.Sum(ctx, 100, 200); err != nil || v != d.TrueSum(100, 200) {
		t.Fatalf("Sum = %d, %v; want %d", v, err, d.TrueSum(100, 200))
	}
	if err := c.Insert(ctx, 150); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if n, err := c.Count(ctx, 100, 200); err != nil || n != d.TrueCount(100, 200)+1 {
		t.Fatalf("Count after insert = %d, %v; want %d", n, err, d.TrueCount(100, 200)+1)
	}
	if ok, err := c.Delete(ctx, 150); err != nil || !ok {
		t.Fatalf("Delete(150) = %v, %v; want found", ok, err)
	}
	if ok, err := c.Delete(ctx, int64(rows)+99); err != nil || ok {
		t.Fatalf("Delete(absent) = %v, %v; want not found", ok, err)
	}
	nrows, shards, err := c.Stats(ctx)
	if err != nil || nrows != int64(rows) || shards < 1 {
		t.Fatalf("Stats = %d rows, %d shards, %v; want %d rows", nrows, shards, err, rows)
	}
	st := s.Stats()
	if st.Requests < 7 || st.Served < 7 {
		t.Fatalf("counters did not move: %+v", st)
	}
}

func TestBatchCoalesce(t *testing.T) {
	const rows = 1 << 12
	// Identical queries parked behind a held executor dispatch as one
	// batch when it finishes.
	s, d := newTestServer(t, rows, Options{Window: time.Hour})
	c := dialT(t, s)
	want := d.TrueCount(500, 900)
	release := s.sc.hold(500)
	t.Cleanup(release)

	const N = 32
	var wg sync.WaitGroup
	errs := make([]error, N)
	vals := make([]int64, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Count(context.Background(), 500, 900)
		}(i)
	}
	waitParked(t, s, N)
	release()
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil || vals[i] != want {
			t.Fatalf("waiter %d: got %d, %v; want %d", i, vals[i], errs[i], want)
		}
	}
	st := s.Stats()
	if st.Coalesced == 0 {
		t.Fatalf("no coalescing across %d identical concurrent queries: %+v", N, st)
	}
	if st.Batches >= st.Batched {
		t.Fatalf("batching had no effect: %d batches for %d batched requests", st.Batches, st.Batched)
	}
	if st.CoalesceRate <= 0 {
		t.Fatalf("coalesce rate not computed: %+v", st)
	}
}

func TestAdmissionFastReject(t *testing.T) {
	// Budget of 1: the first query parks behind a held executor; the
	// second must be rejected immediately — no queueing behind it.
	s, _ := newTestServer(t, 1<<10, Options{
		Window:      time.Hour,
		MaxInFlight: 1,
		ConnQuota:   8,
	})
	c := dialT(t, s)
	release := s.sc.hold(0)
	t.Cleanup(release)

	first := make(chan error, 1)
	go func() {
		_, err := c.Count(context.Background(), 0, 100)
		first <- err
	}()
	waitParked(t, s, 1)

	t0 := time.Now()
	r, err := c.Do(context.Background(), Request{Op: OpCount, Lo: 0, Hi: 100})
	rtt := time.Since(t0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if r.Status != StatusOverloaded {
		t.Fatalf("over-budget status = %s, want overloaded", r.Status)
	}
	if rtt >= 25*time.Millisecond {
		t.Fatalf("reject took %v; queued behind the parked query?", rtt)
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("reject counter did not move")
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first (admitted) request failed: %v", err)
	}
}

func TestConnQuotaReject(t *testing.T) {
	s, _ := newTestServer(t, 1<<10, Options{
		Window:      time.Hour,
		MaxInFlight: 1024,
		ConnQuota:   1,
	})
	c := dialT(t, s)
	t.Cleanup(s.sc.hold(0))
	go c.Count(context.Background(), 0, 100)
	waitParked(t, s, 1)
	r, err := c.Do(context.Background(), Request{Op: OpCount, Lo: 0, Hi: 100})
	if err != nil || r.Status != StatusOverloaded {
		t.Fatalf("over-quota: status %s, err %v; want overloaded", r.Status, err)
	}
	// A second connection has its own quota and must get through (to a
	// shard whose executor is free) while the first's is still full.
	bounds := s.b.Col.Bounds()
	lo := bounds[len(bounds)-1]
	c2 := dialT(t, s)
	if _, err := c2.Count(context.Background(), lo, lo+100); err != nil {
		t.Fatalf("fresh connection rejected: %v", err)
	}
}

func TestTTLExpiryAtDispatch(t *testing.T) {
	// A request whose TTL runs out while it waits behind a running batch
	// must get StatusDeadline without touching the engine.
	s, _ := newTestServer(t, 1<<10, Options{Window: time.Hour})
	c := dialT(t, s)
	release := s.sc.hold(0)
	t.Cleanup(release)
	res := make(chan Response, 1)
	go func() {
		r, err := c.Do(context.Background(), Request{Op: OpCount, TTLus: 50, Lo: 0, Hi: 100})
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		res <- r
	}()
	waitParked(t, s, 1)
	time.Sleep(time.Millisecond) // well past the 50 µs TTL
	release()
	if r := <-res; r.Status != StatusDeadline {
		t.Fatalf("expired-while-parked status = %s, want deadline", r.Status)
	}
}

// blockingCol parks every query until release is closed or the
// query's context ends, then answers from the wrapped column.
type blockingCol struct {
	*shard.Column
	entered chan struct{}
	release chan struct{}
}

func (b *blockingCol) Count(ctx context.Context, lo, hi int64) (int64, crackindex.OpStats, error) {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return 0, crackindex.OpStats{}, ctx.Err()
	}
	return b.Column.Count(ctx, lo, hi)
}

// TestNoTTLRequestInheritsNoDeadline: a request without a TTL batched
// with one that has a TTL is not bounded by that TTL. The batch's one
// execution blocks until well past the TTL; the no-TTL request still
// gets its answer. A batch whose every request has a TTL stays bounded.
func TestNoTTLRequestInheritsNoDeadline(t *testing.T) {
	d := workload.NewUniqueUniform(1<<10, 7)
	col := shard.New(d.Values, shard.Options{Shards: 2, Seed: 3,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	run := func(withoutTTL bool) [2]Response {
		bc := &blockingCol{Column: col, entered: make(chan struct{}, 1), release: make(chan struct{})}
		sc := &scheduler{col: bc, window: time.Hour,
			batchSize: &metrics.Histogram{}, queueDepth: &metrics.Histogram{},
			batches: new(atomic.Int64), batchedReq: new(atomic.Int64), coalesced: new(atomic.Int64)}
		deadline := time.Now().Add(time.Millisecond)
		var got [2]Response
		var wg sync.WaitGroup
		batch := make([]pendReq, 2)
		for i := range batch {
			wg.Add(1)
			batch[i] = pendReq{id: uint64(i), op: OpCount, lo: 100, hi: 300, deadline: deadline,
				finish: func(r Response) { got[i] = r; wg.Done() }}
		}
		if withoutTTL {
			batch[1].deadline = time.Time{}
		}
		go sc.exec(batch, 0)
		<-bc.entered
		time.Sleep(time.Until(deadline) + 2*time.Millisecond)
		close(bc.release)
		wg.Wait()
		return got
	}
	want := d.TrueCount(100, 300)
	got := run(true)
	if r := got[1]; r.Status != StatusOK || r.Value != want {
		t.Fatalf("no-TTL request batched with a 1 ms TTL = %s %d, want ok %d", r.Status, r.Value, want)
	}
	got = run(false)
	for i, r := range got {
		if r.Status != StatusDeadline {
			t.Fatalf("TTL request %d past its deadline = %s, want deadline", i, r.Status)
		}
	}
}

func TestBadOpRejected(t *testing.T) {
	s, _ := newTestServer(t, 1<<10, Options{})
	c := dialT(t, s)
	r, err := c.Do(context.Background(), Request{Op: 99, Lo: 1})
	if err != nil || r.Status != StatusBadRequest {
		t.Fatalf("unknown op: status %s, err %v; want bad-request", r.Status, err)
	}
}

func TestDrainGraceful(t *testing.T) {
	s, d := newTestServer(t, 1<<12, Options{Window: time.Hour})
	c := dialT(t, s)

	// Park requests behind an executor that never finishes on its own,
	// then drain: every request must still be answered (flush gives the
	// pending batch an executor of its own), and drain must return clean.
	t.Cleanup(s.sc.hold(10))
	const N = 8
	res := make(chan error, N)
	for i := 0; i < N; i++ {
		go func(hi int64) {
			n, err := c.Count(context.Background(), 10, hi)
			if err == nil && n != d.TrueCount(10, hi) {
				err = errors.New("wrong count through drain flush")
			}
			res <- err
		}(int64(100 + 50*i))
	}
	waitParked(t, s, N)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < N; i++ {
		if err := <-res; err != nil {
			t.Fatalf("in-flight request through drain: %v", err)
		}
	}
	if !s.Stats().Draining {
		t.Fatal("Draining flag not set")
	}
	// New connections must be refused after drain.
	if _, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestIdleShardDispatchesAtOnce: a query to a shard with no batch
// running waits for nothing, however long the window.
func TestIdleShardDispatchesAtOnce(t *testing.T) {
	s, d := newTestServer(t, 1<<12, Options{Window: 200 * time.Millisecond})
	c := dialT(t, s)
	t0 := time.Now()
	n, err := c.Count(context.Background(), 100, 200)
	if rtt := time.Since(t0); rtt >= 50*time.Millisecond {
		t.Fatalf("lone Count took %v: it waited for the window", rtt)
	}
	if err != nil || n != d.TrueCount(100, 200) {
		t.Fatalf("Count = %d, %v; want %d", n, err, d.TrueCount(100, 200))
	}
}

// TestWindowCapsWaiting: once the running batch has outlived the window,
// the next query to its shard hands the pending batch to a second
// executor, so both are answered while the first executor is still busy.
func TestWindowCapsWaiting(t *testing.T) {
	s, d := newTestServer(t, 1<<12, Options{Window: time.Minute})
	c := dialT(t, s)
	t.Cleanup(s.sc.hold(100))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	first := make(chan error, 1)
	go func() {
		n, err := c.Count(ctx, 100, 200)
		if err == nil && n != d.TrueCount(100, 200) {
			err = errors.New("wrong count")
		}
		first <- err
	}()
	waitParked(t, s, 1)
	s.sc.mu.Lock()
	s.sc.lanes[s.b.Col.Home(100)].started = time.Now().Add(-time.Hour) // the held batch is now older than the window
	s.sc.mu.Unlock()

	if n, err := c.Count(ctx, 150, 300); err != nil || n != d.TrueCount(150, 300) {
		t.Fatalf("second query behind a batch past the window: %d, %v; want %d", n, err, d.TrueCount(150, 300))
	}
	if err := <-first; err != nil {
		t.Fatalf("parked query handed over with the pending batch: %v", err)
	}
}

// TestSchedulerStress drives the scheduler from 32 goroutines with random
// bounds (some already expired) while shards split and merge under them:
// every request is answered exactly once and correctly, and the
// scheduler empties and retires its executors.
func TestSchedulerStress(t *testing.T) {
	const rows = 1 << 13
	s, d := newTestServer(t, rows, Options{})
	col := s.b.Col
	const senders, perSender = 32, 200
	answered := make([]atomic.Int32, senders*perSender)
	var wrong atomic.Int64
	var pending sync.WaitGroup
	pending.Add(senders * perSender)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	var splits, merges int
	churn.Add(1)
	go func() {
		defer churn.Done()
		r := rand.New(rand.NewPCG(1, 2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if n := col.NumShards(); n >= 8 || (n > 2 && i%2 == 1) {
				if _, ok := col.MergeShards(r.IntN(n - 1)); ok {
					merges++
				}
			} else if _, ok := col.SplitShard(r.IntN(n)); ok {
				splits++
			}
		}
	}()

	for g := 0; g < senders; g++ {
		go func(g int) {
			r := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < perSender; i++ {
				id := g*perSender + i
				q := pendReq{id: uint64(id), op: OpCount, lo: r.Int64N(rows)}
				q.hi = q.lo + 1 + r.Int64N(rows/8)
				want, status := d.TrueCount(q.lo, q.hi), StatusOK
				if r.IntN(2) == 0 {
					q.op, want = OpSum, d.TrueSum(q.lo, q.hi)
				}
				if i%16 == 0 {
					q.deadline, want, status = time.Now().Add(-time.Millisecond), 0, StatusDeadline
				}
				q.finish = func(resp Response) {
					if answered[id].Add(1) == 1 && (resp.ID != q.id || resp.Status != status || resp.Value != want) {
						wrong.Add(1)
					}
					pending.Done()
				}
				s.sc.enqueue(q)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		pending.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("requests unanswered after 60s; %d parked", s.sc.parked())
	}
	close(stop)
	churn.Wait()
	if splits == 0 || merges == 0 {
		t.Fatalf("no churn under the traffic: %d splits, %d merges", splits, merges)
	}

	for id := range answered {
		if n := answered[id].Load(); n != 1 {
			t.Fatalf("request %d answered %d times", id, n)
		}
	}
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d wrong answers", n)
	}
	if n := s.sc.parked(); n != 0 {
		t.Fatalf("scheduler depth %d after every answer", n)
	}
	for i := 0; ; i++ {
		s.sc.mu.Lock()
		running := 0
		for _, l := range s.sc.lanes {
			running += l.running
		}
		s.sc.mu.Unlock()
		if running == 0 {
			break
		}
		if i > 5000 {
			t.Fatalf("%d executors still running with nothing pending", running)
		}
		time.Sleep(time.Millisecond)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsNeverLagAnswers: by the time a client holds an answer, Stats
// already counts it as served and no longer in flight.
func TestStatsNeverLagAnswers(t *testing.T) {
	s, _ := newTestServer(t, 1<<10, Options{})
	c := dialT(t, s)
	ctx := context.Background()
	for i := 1; i <= 64; i++ {
		var err error
		switch i % 4 {
		case 0:
			_, err = c.Count(ctx, 0, 100)
		case 1:
			_, err = c.Sum(ctx, 0, 100)
		case 2:
			err = c.Insert(ctx, int64(1<<20+i))
		case 3:
			_, _, err = c.Stats(ctx)
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if st := s.Stats(); st.Served < int64(i) || st.InFlight != 0 {
			t.Fatalf("after answer %d: served %d, in flight %d", i, st.Served, st.InFlight)
		}
	}
}

func TestSlowLorisPartialFrameTimesOut(t *testing.T) {
	s, _ := newTestServer(t, 1<<10, Options{FrameTimeout: 100 * time.Millisecond})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Send half a frame and stall: the server must cut the connection
	// once FrameTimeout elapses, not hold the goroutine forever.
	frame := AppendRequestFrame(nil, Request{ID: 1, Op: OpCount, Lo: 0, Hi: 10})
	if _, err := nc.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	t0 := time.Now()
	_, err = nc.Read(buf)
	if err == nil {
		t.Fatal("server replied to half a frame")
	}
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatalf("server did not close the stalled connection within %v", 5*time.Second)
	}
	if waited := time.Since(t0); waited < 50*time.Millisecond {
		t.Logf("connection closed after %v (frame already rejected)", waited)
	}

	// An idle connection with NO partial frame must NOT be cut: only
	// started frames are on the clock.
	nc2, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	time.Sleep(250 * time.Millisecond) // > FrameTimeout, zero bytes sent
	full := AppendRequestFrame(nil, Request{ID: 2, Op: OpStats})
	if _, err := nc2.Write(full); err != nil {
		t.Fatalf("idle connection was cut: %v", err)
	}
	p, err := ReadFrame(bufio.NewReader(nc2), nil)
	if err != nil {
		t.Fatalf("idle-then-request got no answer: %v", err)
	}
	r, err := DecodeResponse(p)
	if err != nil || r.ID != 2 || r.Status != StatusOK {
		t.Fatalf("idle-then-request response %+v, %v", r, err)
	}
}
