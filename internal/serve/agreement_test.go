package serve_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/serve"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

var qctx = context.Background()

// wireEngine is the query/write surface the agreement test drives —
// implemented by the in-process scan baseline and by a protocol
// client talking to a live server.
type wireEngine interface {
	Insert(v int64)
	DeleteValue(v int64) bool
	Count(lo, hi int64) int64
	Sum(lo, hi int64) int64
}

type scanEng struct{ m *baseline.Mutable }

func (e scanEng) Insert(v int64)           { e.m.Insert(v) }
func (e scanEng) DeleteValue(v int64) bool { return e.m.DeleteValue(v) }
func (e scanEng) Count(lo, hi int64) int64 {
	n, _, _ := e.m.Count(qctx, lo, hi)
	return n
}
func (e scanEng) Sum(lo, hi int64) int64 {
	s, _, _ := e.m.Sum(qctx, lo, hi)
	return s
}

// clientEng drives one protocol connection; errors panic because the
// agreement run admits everything (budget sized above the offered
// concurrency).
type clientEng struct{ c *serve.Client }

func (e clientEng) Insert(v int64) {
	if err := e.c.Insert(qctx, v); err != nil {
		panic(err)
	}
}
func (e clientEng) DeleteValue(v int64) bool {
	ok, err := e.c.Delete(qctx, v)
	if err != nil {
		panic(err)
	}
	return ok
}
func (e clientEng) Count(lo, hi int64) int64 {
	n, err := e.c.Count(qctx, lo, hi)
	if err != nil {
		panic(err)
	}
	return n
}
func (e clientEng) Sum(lo, hi int64) int64 {
	s, err := e.c.Sum(qctx, lo, hi)
	if err != nil {
		panic(err)
	}
	return s
}

// driveMixedWire runs the deterministic interleaving-independent
// read/write mix (the ingest agreement tests' discipline: each client
// inserts its own fresh values and deletes its own residue class, so
// the final logical contents are schedule-independent) with one engine
// handle per client.
func driveMixedWire(engines []wireEngine, rows, opsPerClient int, writeFrac float64) {
	var sink atomic.Int64
	var wg sync.WaitGroup
	domain := int64(rows)
	clients := len(engines)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := engines[c]
			r := workload.NewRNG(uint64(1000 + c))
			gen := workload.NewUniform(workload.Sum, domain, 0.01, uint64(500+c))
			inserts, deletes := 0, 0
			for i := 0; i < opsPerClient; i++ {
				if float64(r.Intn(1000))/1000 < writeFrac {
					if i%2 == 0 {
						e.Insert(domain + int64(c*opsPerClient+inserts))
						inserts++
					} else {
						v := int64(deletes*clients + c)
						if v < domain {
							e.DeleteValue(v)
						}
						deletes++
					}
					continue
				}
				q := gen.Next()
				if q.Kind == workload.Count {
					sink.Add(e.Count(q.Lo, q.Hi))
				} else {
					sink.Add(e.Sum(q.Lo, q.Hi))
				}
			}
		}(c)
	}
	wg.Wait()
}

// checksumWire folds the quiesced contents over the full range plus a
// deterministic sample of sub-ranges.
func checksumWire(e wireEngine, rows int) int64 {
	domain := int64(2 * rows)
	var sum int64
	sum += e.Count(-1<<40, 1<<40)
	sum += 3 * e.Sum(-1<<40, 1<<40)
	r := workload.NewRNG(4242)
	for i := 0; i < 64; i++ {
		lo := r.Int64n(domain)
		hi := lo + 1 + r.Int64n(domain-lo)
		sum += e.Count(lo, hi)
		sum += 3 * e.Sum(lo, hi)
	}
	return sum
}

// TestWireAgreement runs the deterministic concurrent read/write mix
// through N protocol connections against a live batched server —
// ingest coordinator applying and rebalancing underneath, so splits
// and merges happen mid-run — and asserts the quiesced final checksum
// matches the in-process scan baseline exactly, at 1, 4, and 16
// clients. The serving layer (framing, pipelining, batch coalescing,
// deadline plumbing) must never change an answer. Run under -race by
// CI.
func TestWireAgreement(t *testing.T) {
	const rows = 1 << 13
	const opsPerClient = 800
	d := workload.NewUniqueUniform(rows, 11)
	for _, clients := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			// Baseline: the same mix against the mutable scan, same
			// client count (the write set is interleaving-independent).
			scan := scanEng{baseline.NewMutable(d.Values)}
			scanHandles := make([]wireEngine, clients)
			for i := range scanHandles {
				scanHandles[i] = scan
			}
			driveMixedWire(scanHandles, rows, opsPerClient, 0.5)

			// Server under test: aggressive apply/rebalance thresholds
			// force structural churn while the wire traffic runs.
			col := shard.New(d.Values, shard.Options{
				Shards: 4, Seed: 5,
				Index: crackindex.Options{Latching: crackindex.LatchPiece},
			})
			g := ingest.New(col, ingest.Options{
				ApplyThreshold: 128, MinShardRows: 512, CheckEvery: 64,
			})
			g.Start()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(serve.Backend{Col: col, Ing: g}, ln, serve.Options{
				MaxInFlight: 1 << 16, ConnQuota: 1 << 12,
			})

			conns := make([]wireEngine, clients)
			for i := range conns {
				cl, err := serve.Dial(srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				conns[i] = clientEng{cl}
			}
			driveMixedWire(conns, rows, opsPerClient, 0.5)

			want := checksumWire(scan, rows)
			got := checksumWire(conns[0], rows)
			if got != want {
				t.Errorf("wire final checksum %d, scan baseline %d", got, want)
			}

			// Clean drain, then validate structure and confirm the run
			// exercised batching.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			cancel()
			g.Close()
			if err := col.Validate(); err != nil {
				t.Error(err)
			}
			st := srv.Stats()
			if clients > 1 && st.Batches == 0 {
				t.Errorf("no batches dispatched at %d clients: %+v", clients, st)
			}
		})
	}
}
