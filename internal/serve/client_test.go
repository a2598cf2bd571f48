package serve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the writes and the bytes a client sends.
type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestClientCoalescesFrames drives one client from many goroutines:
// every answer must be right, and frames that were ready together must
// have shared writes.
func TestClientCoalescesFrames(t *testing.T) {
	const (
		callers = 64
		each    = 50
	)
	s, d := newTestServer(t, 1<<12, Options{})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := newClient(cc)
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				lo := int64((g*each + i) % 4000)
				hi := lo + int64(i%64) + 1
				n, err := c.Count(ctx, lo, hi)
				if err == nil && n != d.TrueCount(lo, hi) {
					err = errors.New("wrong count")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	frames := int64(callers * each)
	if got := cc.bytes.Load(); got != frames*(FrameHeader+RequestLen) {
		t.Fatalf("sent %d bytes, want %d frames of %d", got, frames, FrameHeader+RequestLen)
	}
	w := cc.writes.Load()
	t.Logf("%d frames in %d writes (%.2f per write)", frames, w, float64(frames)/float64(w))
	if w >= frames {
		t.Fatalf("%d writes for %d frames: no write carried two", w, frames)
	}
}

// stallConn is a connection whose first Write blocks until release.
// With fail set, that write then fails without sending anything;
// otherwise every write passes through.
type stallConn struct {
	net.Conn
	fail    bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

var errStalled = errors.New("write failed after a stall")

func (c *stallConn) Write(p []byte) (int, error) {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	if c.fail {
		return 0, errStalled
	}
	return c.Conn.Write(p)
}

// queueBehindStall starts one Count that becomes the writer and stalls
// in its first write, then `queued` more whose frames wait behind it.
// Each caller sends its error on the returned channel.
func queueBehindStall(t *testing.T, s *Server, fail bool, queued int) (*Client, *stallConn, chan error) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := &stallConn{Conn: nc, fail: fail, entered: make(chan struct{}), release: make(chan struct{})}
	c := newClient(sc)
	errs := make(chan error, queued+1)
	call := func() {
		n, err := c.Count(context.Background(), 0, 10)
		if err == nil && n != 10 {
			err = errors.New("wrong count")
		}
		errs <- err
	}
	go call()
	<-sc.entered
	for range queued {
		go call()
	}
	for i := 0; ; i++ {
		c.wmu.Lock()
		n := len(c.pending)
		c.wmu.Unlock()
		if n == queued*(FrameHeader+RequestLen) {
			return c, sc, errs
		}
		if i > 5000 {
			t.Fatalf("%d bytes pending, want %d queued frames", n, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientSendsFramesQueuedDuringWrite stalls the writer's write
// while other callers queue, and issues nothing after: the writer must
// send what queued during its write, so every caller is answered.
func TestClientSendsFramesQueuedDuringWrite(t *testing.T) {
	const queued = 16
	s, _ := newTestServer(t, 1<<10, Options{})
	c, sc, errs := queueBehindStall(t, s, false, queued)
	defer c.Close()
	close(sc.release)
	timeout := time.After(5 * time.Second)
	for range queued + 1 {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("a frame queued during the write was never sent")
		}
	}
}

// TestClientWriteFailureFailsQueuedCallers fails the writer's write
// while other callers' frames wait behind it: every caller must return
// an error, and no goroutine may outlive Close.
func TestClientWriteFailureFailsQueuedCallers(t *testing.T) {
	const queued = 16
	s, _ := newTestServer(t, 1<<10, Options{})
	start := runtime.NumGoroutine()
	c, sc, errs := queueBehindStall(t, s, true, queued)
	close(sc.release)
	timeout := time.After(5 * time.Second)
	for range queued + 1 {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a caller succeeded over a failed write")
			}
		case <-timeout:
			t.Fatal("a caller hung after the write failed")
		}
	}
	if _, err := c.Count(context.Background(), 0, 10); err == nil {
		t.Fatal("a failed client accepted a new request")
	}
	c.Close()
	for i := 0; runtime.NumGoroutine() > start; i++ {
		if i > 5000 {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialSecondFrameTimesOut sends a whole frame and half of the
// next in one write, then stalls: the whole frame is answered, and the
// connection is cut once the half frame has waited FrameTimeout.
func TestPartialSecondFrameTimesOut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	s, _ := newTestServer(t, 1<<10, Options{FrameTimeout: timeout})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	buf := AppendRequestFrame(nil, Request{ID: 1, Op: OpStats})
	second := AppendRequestFrame(nil, Request{ID: 2, Op: OpStats})
	buf = append(buf, second[:len(second)/2]...)
	t0 := time.Now()
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	p, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("whole frame got no answer: %v", err)
	}
	if r, err := DecodeResponse(p); err != nil || r.ID != 1 || r.Status != StatusOK {
		t.Fatalf("whole frame's response %+v, %v", r, err)
	}
	if _, err := ReadFrame(br, nil); err == nil {
		t.Fatal("server answered half a frame")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server did not cut the stalled connection within 5s")
	}
	if waited := time.Since(t0); waited < timeout {
		t.Fatalf("connection cut after %v, before FrameTimeout %v", waited, timeout)
	}
}

// TestIdleAfterSplitFrameIsNotCut sends one frame in two writes, which
// arms the frame deadline, then idles past FrameTimeout: the deadline
// must be cleared before the wait for the next frame, so the idle
// connection still answers.
func TestIdleAfterSplitFrameIsNotCut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	s, _ := newTestServer(t, 1<<10, Options{FrameTimeout: timeout})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	send := func(b []byte) {
		t.Helper()
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	answer := func(id uint64) {
		t.Helper()
		p, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("request %d got no answer: %v", id, err)
		}
		if r, err := DecodeResponse(p); err != nil || r.ID != id || r.Status != StatusOK {
			t.Fatalf("request %d's response %+v, %v", id, r, err)
		}
	}

	frame := AppendRequestFrame(nil, Request{ID: 1, Op: OpStats})
	send(frame[:FrameHeader])
	time.Sleep(timeout / 4) // the server reads the header alone
	send(frame[FrameHeader:])
	answer(1)
	time.Sleep(3 * timeout) // idle, no partial frame: not on the clock
	send(AppendRequestFrame(nil, Request{ID: 2, Op: OpStats}))
	answer(2)
}
