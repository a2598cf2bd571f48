package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Client-side errors.
var (
	// ErrClientClosed means the client (or its connection) is gone.
	ErrClientClosed = errors.New("serve: client closed")
	// ErrDraining means the server refused the request because it is
	// shutting down gracefully.
	ErrDraining = errors.New("serve: server draining")
	// ErrInternal is a server-side execution failure.
	ErrInternal = errors.New("serve: internal server error")
	// ErrBadRequest means the server deemed the request structurally
	// invalid.
	ErrBadRequest = errors.New("serve: bad request")
)

// Client is a pipelined protocol client: any number of goroutines may
// issue requests concurrently over one connection; a single reader
// goroutine dispatches the out-of-order responses by correlation id.
//
// Frames that are ready together leave in one write: a caller queues
// its frame in pending, and whichever caller finds no write under way
// becomes the writer and sends everything queued, looping until
// nothing is.
type Client struct {
	nc net.Conn

	wmu     sync.Mutex // guards pending, spare and writing
	pending []byte     // frames queued for the next write
	spare   []byte     // the buffer the last write sent, reused as pending
	writing bool       // a caller is sending; stays set after a write fails

	nextID atomic.Uint64

	mu      sync.Mutex
	pend    map[uint64]chan Response
	closed  bool
	lastErr error

	done chan struct{}
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc), nil
}

// newClient starts a client over an established connection.
func newClient(nc net.Conn) *Client {
	c := &Client{
		nc:   nc,
		pend: make(map[uint64]chan Response),
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop dispatches responses to their waiters until the connection
// dies, then fails every outstanding request.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.nc)
	var buf []byte
	var err error
	for {
		var p []byte
		p, err = ReadFrame(br, buf)
		if err != nil {
			break
		}
		buf = p[:0]
		var r Response
		r, err = DecodeResponse(p)
		if err != nil {
			break
		}
		c.mu.Lock()
		ch := c.pend[r.ID]
		delete(c.pend, r.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
	if errors.Is(err, io.EOF) {
		err = ErrClientClosed
	}
	c.fail(err)
}

// fail marks the client dead and unblocks every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.lastErr = err
		close(c.done)
	}
	c.mu.Unlock()
	c.nc.Close()
}

// Close tears the connection down; outstanding requests fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// Do sends one request and waits for its response. The correlation id
// is assigned by the client (q.ID is ignored); if q.TTLus is zero and
// ctx carries a deadline, the remaining budget is sent as the TTL so
// the server can shed the request when the caller stops caring. Do
// reports transport-level failure; protocol-level outcomes come back
// in the Response status.
func (c *Client) Do(ctx context.Context, q Request) (Response, error) {
	q.ID = c.nextID.Add(1)
	if q.TTLus == 0 {
		if dl, ok := ctx.Deadline(); ok {
			us := time.Until(dl).Microseconds()
			if us <= 0 {
				return Response{}, context.DeadlineExceeded
			}
			if us > int64(^uint32(0)) {
				us = int64(^uint32(0))
			}
			q.TTLus = uint32(us)
		}
	}
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.closed {
		err := c.lastErr
		c.mu.Unlock()
		return Response{}, err
	}
	c.pend[q.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.pending = AppendRequestFrame(c.pending, q)
	lead := !c.writing
	c.writing = true
	c.wmu.Unlock()
	if lead {
		if err := c.send(); err != nil {
			c.forget(q.ID)
			c.fail(err)
			return Response{}, err
		}
	}

	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		c.forget(q.ID)
		return Response{}, ctx.Err()
	case <-c.done:
		c.forget(q.ID)
		return Response{}, c.lastErr
	}
}

// send is the writer's loop. It yields once first, so callers that the
// same response burst made runnable queue their frames behind its own;
// then it writes everything pending outside wmu until nothing is. A
// failed write leaves writing set and drops what is queued: the caller
// fails the client, and every queued caller returns through done.
func (c *Client) send() error {
	runtime.Gosched()
	c.wmu.Lock()
	for len(c.pending) > 0 {
		buf := c.pending
		c.pending = c.spare[:0]
		c.wmu.Unlock()
		_, err := c.nc.Write(buf)
		c.wmu.Lock()
		if err != nil {
			c.pending = c.pending[:0]
			c.wmu.Unlock()
			return err
		}
		c.spare = buf
	}
	c.writing = false
	c.wmu.Unlock()
	return nil
}

// forget abandons a pending request (its late response, if any, is
// dropped by the reader).
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pend, id)
	c.mu.Unlock()
}

// statusErr maps a protocol status to a client error (nil for OK).
func statusErr(s Status) error {
	switch s {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return ErrOverloaded
	case StatusDeadline:
		return context.DeadlineExceeded
	case StatusBadRequest:
		return ErrBadRequest
	case StatusDraining:
		return ErrDraining
	default:
		return fmt.Errorf("%w: status %s", ErrInternal, s)
	}
}

// Count evaluates count(*) where lo <= A < hi over the wire.
func (c *Client) Count(ctx context.Context, lo, hi int64) (int64, error) {
	r, err := c.Do(ctx, Request{Op: OpCount, Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	return r.Value, statusErr(r.Status)
}

// Sum evaluates sum(A) where lo <= A < hi over the wire.
func (c *Client) Sum(ctx context.Context, lo, hi int64) (int64, error) {
	r, err := c.Do(ctx, Request{Op: OpSum, Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	return r.Value, statusErr(r.Status)
}

// Insert adds one instance of v over the wire.
func (c *Client) Insert(ctx context.Context, v int64) error {
	r, err := c.Do(ctx, Request{Op: OpInsert, Lo: v})
	if err != nil {
		return err
	}
	return statusErr(r.Status)
}

// Delete removes one instance of v over the wire, reporting whether
// one existed.
func (c *Client) Delete(ctx context.Context, v int64) (bool, error) {
	r, err := c.Do(ctx, Request{Op: OpDelete, Lo: v})
	if err != nil {
		return false, err
	}
	return r.Value == 1, statusErr(r.Status)
}

// Stats returns the server's row and shard counts over the wire.
func (c *Client) Stats(ctx context.Context) (rows, shards int64, err error) {
	r, err := c.Do(ctx, Request{Op: OpStats})
	if err != nil {
		return 0, 0, err
	}
	return r.Value, r.Aux, statusErr(r.Status)
}
