package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
)

// Tunable defaults.
const (
	// DefaultMaxInFlight is the default global in-flight request budget.
	DefaultMaxInFlight = 1024
	// DefaultConnQuota is the default per-connection in-flight quota.
	DefaultConnQuota = 256
	// DefaultFrameTimeout is the default budget for finishing a frame
	// once its first byte has arrived (slow-loris defense; waiting for a
	// frame to START is unbounded — an idle pipelined connection is
	// legitimate).
	DefaultFrameTimeout = 10 * time.Second
)

// ErrOverloaded is the admission-control fast reject: the global
// in-flight budget or a connection quota is exhausted. The wire
// carries it as StatusOverloaded.
var ErrOverloaded = errors.New("serve: overloaded")

// Backend is the engine surface the server fronts. Col and Ing are
// required; Obs may be nil (instruments fall back to private,
// unexported histograms so the scheduler never branches).
type Backend struct {
	// Col executes queries (with fan-out, covered aggregates, and crack
	// refinement).
	Col *shard.Column
	// Ing routes writes into per-shard differential epochs.
	Ing *ingest.Coordinator
	// Obs, when non-nil, receives the serving instruments in its
	// registry (adaptix_serve_* series on /metrics).
	Obs *metrics.Observer
}

// Options tunes the server. The zero value gives the defaults.
type Options struct {
	// Window caps how long a query waits behind its home shard's running
	// batch; none waits for a batch to fill. 0 means DefaultWindow;
	// negative disables batching (every query dispatches on its own
	// goroutine — the unbatched baseline ServeBatching compares against).
	Window time.Duration
	// MaxInFlight is the global admitted-but-unanswered request budget
	// (0 = DefaultMaxInFlight). Requests beyond it are rejected with
	// StatusOverloaded without queueing.
	MaxInFlight int
	// ConnQuota is the per-connection in-flight cap (0 =
	// DefaultConnQuota): one greedy pipelined connection cannot consume
	// the whole global budget.
	ConnQuota int
	// FrameTimeout bounds how long a started frame may take to finish
	// arriving (0 = DefaultFrameTimeout). Connections that exceed it
	// are closed (slow-loris defense).
	FrameTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.ConnQuota == 0 {
		o.ConnQuota = DefaultConnQuota
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = DefaultFrameTimeout
	}
	return o
}

// Server is the serving front: it owns a listener, speaks the frame
// protocol with any number of pipelined connections, batches queries
// through the per-shard scheduler, and enforces the admission budget.
// Create one with New; stop it with Drain (graceful) or Close (abrupt).
type Server struct {
	b  Backend
	o  Options
	ln net.Listener
	sc *scheduler

	start    time.Time
	inflight atomic.Int64 // admitted and not yet answered
	draining atomic.Bool

	reqWG  sync.WaitGroup // admitted requests
	connWG sync.WaitGroup // accept loop + connection goroutines

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	// Serving counters (cache-local atomics exposed as CounterFuncs).
	requests atomic.Int64 // frames decoded into requests
	served   atomic.Int64 // responses written with any status
	rejects  atomic.Int64 // StatusOverloaded fast rejects
	batches  atomic.Int64 // scheduler dispatches
	batched  atomic.Int64 // requests that went through a batch
	coal     atomic.Int64 // requests answered by a batch-mate's execution

	batchSize  *metrics.Histogram
	queueDepth *metrics.Histogram
}

// New starts a server over ln. It takes ownership of the listener and
// begins accepting immediately; callers that need the bound address
// (e.g. ":0" listeners in tests) read it from Addr.
func New(b Backend, ln net.Listener, o Options) *Server {
	o = o.withDefaults()
	s := &Server{
		b:     b,
		o:     o,
		ln:    ln,
		start: time.Now(),
		conns: make(map[*conn]struct{}),
	}
	if reg := b.Obs.Registry(); reg != nil {
		s.batchSize = reg.Histogram("adaptix_serve_batch_size",
			"Requests per batch-scheduler dispatch.")
		s.queueDepth = reg.Histogram("adaptix_serve_queue_depth",
			"Queries parked in the batch scheduler after a dispatch.")
		reg.CounterFunc("adaptix_serve_requests_total",
			"Requests decoded off the wire.", s.requests.Load)
		reg.CounterFunc("adaptix_serve_served_total",
			"Responses written, any status (the served-qps source).", s.served.Load)
		reg.CounterFunc("adaptix_serve_rejects_total",
			"Admission-control fast rejects (StatusOverloaded).", s.rejects.Load)
		reg.CounterFunc("adaptix_serve_batches_total",
			"Batch-scheduler dispatches.", s.batches.Load)
		reg.CounterFunc("adaptix_serve_coalesced_total",
			"Requests answered by a batch-mate's execution (exact-duplicate bounds).", s.coal.Load)
		reg.CounterFunc("adaptix_serve_inflight",
			"Requests admitted and not yet answered.", s.inflight.Load)
	} else {
		s.batchSize = &metrics.Histogram{}
		s.queueDepth = &metrics.Histogram{}
	}
	if o.Window > 0 {
		s.sc = &scheduler{
			col:        b.Col,
			window:     o.Window,
			batchSize:  s.batchSize,
			queueDepth: s.queueDepth,
			batches:    &s.batches,
			batchedReq: &s.batched,
			coalesced:  &s.coal,
		}
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats is the server's live serving readout (the `serve` block of the
// /snapshot document, and what cmd/adaptixstat renders as the serving
// panel).
type Stats struct {
	// Addr is the listener's bound address.
	Addr string `json:"addr"`
	// WindowUS is the batching cap in microseconds (0 = batching
	// disabled).
	WindowUS int64 `json:"window_us"`
	// Conns is the number of live connections.
	Conns int `json:"conns"`
	// InFlight is the number of admitted, unanswered requests.
	InFlight int64 `json:"in_flight"`
	// Requests, Served, and Rejected count requests decoded, responses
	// written (any status), and admission fast rejects.
	Requests int64 `json:"requests"`
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	// QPS is responses written per second of server uptime.
	QPS float64 `json:"qps"`
	// Batches and Batched count scheduler dispatches and the requests
	// they carried; Coalesced of those were answered by a batch-mate's
	// execution (exact-duplicate bounds). CoalesceRate is
	// Coalesced/Batched.
	Batches      int64   `json:"batches"`
	Batched      int64   `json:"batched"`
	Coalesced    int64   `json:"coalesced"`
	CoalesceRate float64 `json:"coalesce_rate"`
	// BatchP50 and BatchP99 are batch-size quantiles; QueueP50 and
	// QueueP99 are scheduler queue-depth quantiles.
	BatchP50 int64 `json:"batch_p50"`
	BatchP99 int64 `json:"batch_p99"`
	QueueP50 int64 `json:"queue_p50"`
	QueueP99 int64 `json:"queue_p99"`
	// Draining reports whether the server has begun graceful drain.
	Draining bool `json:"draining"`
}

// Stats returns the live serving readout.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	bs := s.batchSize.Snapshot()
	qd := s.queueDepth.Snapshot()
	st := Stats{
		Addr:      s.ln.Addr().String(),
		WindowUS:  0,
		Conns:     conns,
		InFlight:  s.inflight.Load(),
		Requests:  s.requests.Load(),
		Served:    s.served.Load(),
		Rejected:  s.rejects.Load(),
		Batches:   s.batches.Load(),
		Batched:   s.batched.Load(),
		Coalesced: s.coal.Load(),
		BatchP50:  bs.Quantile(0.50),
		BatchP99:  bs.Quantile(0.99),
		QueueP50:  qd.Quantile(0.50),
		QueueP99:  qd.Quantile(0.99),
		Draining:  s.draining.Load(),
	}
	if s.o.Window > 0 {
		st.WindowUS = s.o.Window.Microseconds()
	}
	if up := time.Since(s.start).Seconds(); up > 0 {
		st.QPS = float64(st.Served) / up
	}
	if st.Batched > 0 {
		st.CoalesceRate = float64(st.Coalesced) / float64(st.Batched)
	}
	return st
}

// Drain shuts the server down gracefully: stop accepting, reject new
// requests with StatusDraining, flush pending batches, wait for
// admitted requests to finish (bounded by ctx), then close all
// connections. It returns ctx.Err() if in-flight work outlived the
// context, nil otherwise. Final durability (checkpointing) is the
// owner's job — the facade layers it on top.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close() // unblocks the accept loop
	if s.sc != nil {
		s.sc.flush()
	}
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeConns(true)
	s.connWG.Wait()
	return err
}

// Close shuts the server down abruptly: the listener and every
// connection close now; in-flight requests are abandoned mid-frame.
func (s *Server) Close() error {
	s.draining.Store(true)
	err := s.ln.Close()
	s.closeConns(false)
	s.connWG.Wait()
	return err
}

// closeConns closes every live connection; graceful lets each writer
// flush its queued responses first (drained requests get their
// answers), abrupt cuts the sockets now.
func (s *Server) closeConns(graceful bool) {
	s.mu.Lock()
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		if graceful {
			c.shutdown()
		} else {
			c.kill()
		}
	}
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Drain/Close)
		}
		c := &conn{
			s:    s,
			nc:   nc,
			out:  make(chan Response, 64),
			dead: make(chan struct{}),
			clsq: make(chan struct{}),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// conn is the per-connection state: the response channel feeding the
// writer goroutine, the quota, and the dead signal that unblocks
// anyone trying to reply after the connection failed.
type conn struct {
	s       *Server
	nc      net.Conn
	out     chan Response
	dead    chan struct{} // closed by kill: connection is gone
	clsq    chan struct{} // closed by shutdown: flush queued responses, then die
	killOn  sync.Once
	closeOn sync.Once
	quota   atomic.Int64
}

func (s *Server) serveConn(c *conn) {
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.kill()
	wwg.Wait()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connWG.Done()
}

// kill marks the connection dead: repliers stop blocking, the writer
// exits, and the socket closes.
func (c *conn) kill() {
	c.killOn.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

// shutdown asks the writer to flush everything already queued and then
// close the socket (graceful drain: answered requests reach the wire).
func (c *conn) shutdown() {
	c.closeOn.Do(func() { close(c.clsq) })
}

// writeLoop is the connection's single writer: it encodes responses
// off the channel, coalescing everything already queued into one
// buffered write (pipelined clients get one syscall per burst, not per
// response). Once the channel is empty it yields once, so repliers the
// same batch made runnable can queue theirs into the same write.
func (c *conn) writeLoop() {
	bw := bufio.NewWriter(c.nc)
	buf := make([]byte, 0, FrameHeader+ResponseLen)
	for {
		var r Response
		select {
		case r = <-c.out:
		case <-c.dead:
			return
		case <-c.clsq:
			// Graceful close: everything already queued goes out, then
			// the socket closes.
			for r, ok := c.poll(); ok; r, ok = c.poll() {
				buf = AppendResponseFrame(buf[:0], r)
				if _, err := bw.Write(buf); err != nil {
					c.kill()
					return
				}
			}
			bw.Flush()
			c.kill()
			return
		}
		for more, yielded := true, false; more; {
			buf = AppendResponseFrame(buf[:0], r)
			if _, err := bw.Write(buf); err != nil {
				c.kill()
				return
			}
			if r, more = c.poll(); !more && !yielded {
				yielded = true
				runtime.Gosched()
				r, more = c.poll()
			}
		}
		if err := bw.Flush(); err != nil {
			c.kill()
			return
		}
	}
}

// poll takes a queued response without blocking.
func (c *conn) poll() (Response, bool) {
	select {
	case r := <-c.out:
		return r, true
	default:
		return Response{}, false
	}
}

// reply queues r for the writer, dropping it if the connection died
// (the client is gone; nobody is owed the answer).
func (c *conn) reply(r Response) {
	select {
	case c.out <- r:
	case <-c.dead:
	}
}

// readLoop decodes frames and admits requests until the connection
// errors, times out mid-frame, or the server shuts down.
//
// Waiting for a frame to start is unbounded (idle pipelined connections
// are legitimate); once its first byte has arrived, the rest of the
// frame must land within FrameTimeout. A frame already whole in the
// buffer reads no socket, so it sets no deadline; the deadline is
// cleared only before a blocking wait on an empty buffer, and only
// while one is armed.
func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	buf := make([]byte, 0, RequestLen)
	armed := false
	for {
		if br.Buffered() == 0 {
			if armed {
				c.nc.SetReadDeadline(time.Time{})
				armed = false
			}
			// Peek blocks for the first byte without consuming it.
			if _, err := br.Peek(1); err != nil {
				return
			}
		}
		if !frameBuffered(br) {
			c.nc.SetReadDeadline(time.Now().Add(c.s.o.FrameTimeout))
			armed = true
		}
		p, err := ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = p[:0]
		q, err := DecodeRequest(p)
		if err != nil {
			return
		}
		c.s.handle(c, q)
	}
}

// frameBuffered reports whether br already holds a whole frame: its
// header and the payload the header declares.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < FrameHeader {
		return false
	}
	hdr, _ := br.Peek(FrameHeader) // buffered: reads nothing
	return br.Buffered() >= FrameHeader+int(binary.LittleEndian.Uint32(hdr))
}

// handle admits one decoded request and routes it: fast path rejects
// (draining, over budget, bad op) answer inline; queries go through
// the batch scheduler; writes and stats execute on their own
// goroutine.
func (s *Server) handle(c *conn, q Request) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.served.Add(1)
		c.reply(Response{ID: q.ID, Op: q.Op, Status: StatusDraining})
		return
	}
	if q.Op < OpCount || q.Op > OpStats {
		s.served.Add(1)
		c.reply(Response{ID: q.ID, Op: q.Op, Status: StatusBadRequest})
		return
	}
	// Admission: per-connection quota first, then the global budget,
	// with rollback on the half-admitted path. Rejects must stay fast —
	// no queueing, no engine work.
	if c.quota.Add(1) > int64(s.o.ConnQuota) {
		c.quota.Add(-1)
		s.rejects.Add(1)
		s.served.Add(1)
		c.reply(Response{ID: q.ID, Op: q.Op, Status: StatusOverloaded})
		return
	}
	if s.inflight.Add(1) > int64(s.o.MaxInFlight) {
		s.inflight.Add(-1)
		c.quota.Add(-1)
		s.rejects.Add(1)
		s.served.Add(1)
		c.reply(Response{ID: q.ID, Op: q.Op, Status: StatusOverloaded})
		return
	}
	s.reqWG.Add(1)
	var deadline time.Time
	if q.TTLus > 0 {
		deadline = time.Now().Add(time.Duration(q.TTLus) * time.Microsecond)
	}
	// Counters before the reply (Stats never lags a client), reqWG after
	// it (Drain never closes the connection ahead of the answer).
	finish := func(r Response) {
		s.served.Add(1)
		s.inflight.Add(-1)
		c.quota.Add(-1)
		c.reply(r)
		s.reqWG.Done()
	}
	if q.Op.batchable() && s.sc != nil {
		s.sc.enqueue(pendReq{
			id: q.ID, op: q.Op, lo: q.Lo, hi: q.Hi,
			deadline: deadline, finish: finish,
		})
		return
	}
	go s.execDirect(q, deadline, finish)
}

// execDirect serves one request outside the batch scheduler: writes,
// stats, and — when batching is disabled — queries too.
func (s *Server) execDirect(q Request, deadline time.Time, finish func(Response)) {
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	r := Response{ID: q.ID, Op: q.Op, Status: StatusOK}
	var err error
	switch q.Op {
	case OpCount:
		r.Value, _, err = s.b.Col.Count(ctx, q.Lo, q.Hi)
	case OpSum:
		r.Value, _, err = s.b.Col.Sum(ctx, q.Lo, q.Hi)
	case OpInsert:
		err = s.b.Ing.Insert(ctx, q.Lo)
	case OpDelete:
		var found bool
		found, err = s.b.Ing.DeleteValue(ctx, q.Lo)
		if found {
			r.Value = 1
		}
	case OpStats:
		r.Value = int64(s.b.Col.Rows())
		r.Aux = int64(s.b.Col.NumShards())
	}
	if err != nil {
		r.Status = StatusInternal
		r.Value, r.Aux = 0, 0
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || ctx.Err() != nil {
			r.Status = StatusDeadline
		}
	}
	finish(r)
}
