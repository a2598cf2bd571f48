package ingest_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adaptix/internal/baseline"
	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// qctx is the uncancellable context the tests drive queries with.
var qctx = context.Background()

// mutableEngine is the common surface of the write-capable engines
// compared by the agreement tests.
type mutableEngine interface {
	Insert(v int64)
	DeleteValue(v int64) bool
	Count(lo, hi int64) int64
	Sum(lo, hi int64) int64
}

type scanAdapter struct{ *baseline.Mutable }

func (a scanAdapter) Count(lo, hi int64) int64 {
	n, _, _ := a.Mutable.Count(qctx, lo, hi)
	return n
}

func (a scanAdapter) Sum(lo, hi int64) int64 {
	s, _, _ := a.Mutable.Sum(qctx, lo, hi)
	return s
}

type ingestAdapter struct{ g *ingest.Coordinator }

func (a ingestAdapter) Insert(v int64) {
	if err := a.g.Insert(qctx, v); err != nil {
		panic(err)
	}
}
func (a ingestAdapter) DeleteValue(v int64) bool {
	ok, err := a.g.DeleteValue(qctx, v)
	if err != nil {
		panic(err)
	}
	return ok
}
func (a ingestAdapter) Count(lo, hi int64) int64 {
	n, _, _ := a.g.Column().Count(qctx, lo, hi)
	return n
}
func (a ingestAdapter) Sum(lo, hi int64) int64 {
	s, _, _ := a.g.Column().Sum(qctx, lo, hi)
	return s
}

// driveMixed runs the deterministic read/write mix against e with the
// given client count. The write set is interleaving-independent: each
// client inserts its own distinct fresh values (>= domain) and deletes
// its own distinct subset of the initial values, so the final logical
// contents are identical for every engine and every schedule. The
// in-flight query answers are timing-dependent and are discarded into
// a sink only to keep the reads real.
func driveMixed(e mutableEngine, rows int, clients, opsPerClient int, writeFrac float64) int64 {
	var sink atomic.Int64
	var wg sync.WaitGroup
	domain := int64(rows)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(1000 + c))
			gen := workload.NewUniform(workload.Sum, domain, 0.01, uint64(500+c))
			inserts, deletes := 0, 0
			for i := 0; i < opsPerClient; i++ {
				if float64(r.Intn(1000))/1000 < writeFrac {
					if i%2 == 0 {
						// Fresh value no other client touches.
						e.Insert(domain + int64(c*opsPerClient+inserts))
						inserts++
					} else {
						// Initial value owned by this client alone
						// (clients delete disjoint residue classes),
						// each deleted at most once.
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
	return sink.Load()
}

// finalChecksum folds the quiesced engine state over a fixed set of
// ranges (full range plus a deterministic sample of sub-ranges).
func finalChecksum(e mutableEngine, rows int) int64 {
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

// TestReadWriteMixAgreement runs the same deterministic concurrent
// read/write mix (50% writes) through the mutable scan baseline and the
// sharded column behind an active ingest coordinator (group applies and rebalancing running in the
// background), at 1/4/8 clients, and asserts that the quiesced final
// checksums are identical: concurrency, differential updates, group
// applies, and shard splits must never change the logical contents.
// Run under -race by CI.
func TestReadWriteMixAgreement(t *testing.T) {
	const rows = 1 << 13
	const opsPerClient = 1500
	d := workload.NewUniqueUniform(rows, 11)
	for _, clients := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			scan := scanAdapter{baseline.NewMutable(d.Values)}
			col := shard.New(d.Values, shard.Options{
				Shards: 4, Seed: 5,
				Index: crackindex.Options{Latching: crackindex.LatchPiece},
			})
			g := ingest.New(col, ingest.Options{
				ApplyThreshold: 128, MinShardRows: 512, CheckEvery: 64,
			})
			g.Start()

			driveMixed(scan, rows, clients, opsPerClient, 0.5)
			driveMixed(ingestAdapter{g}, rows, clients, opsPerClient, 0.5)
			g.Close()

			want := finalChecksum(scan, rows)
			if got := finalChecksum(ingestAdapter{g}, rows); got != want {
				t.Errorf("sharded+ingest final checksum %d, scan baseline %d", got, want)
			}
			if err := col.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSkewedInsertStormSplitsOnline is the acceptance scenario: under
// a concurrent skewed insert storm the rebalancer must perform at
// least one observable shard split while readers keep receiving exact
// answers (they query a range the writers never touch) without ever
// blocking on the rebalance.
func TestSkewedInsertStormSplitsOnline(t *testing.T) {
	const rows = 1 << 14
	d := workload.NewUniqueUniform(rows, 21)
	col := shard.New(d.Values, shard.Options{
		Shards: 4, Seed: 7,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	g := ingest.New(col, ingest.Options{
		ApplyThreshold: 256, MinShardRows: 512, SplitFactor: 1.5, CheckEvery: 128,
	})
	g.Start()
	before := col.NumShards()

	// The quiet range [rows/2, rows/2+1024) is never written; its
	// count and sum are invariants readers can assert mid-storm.
	qlo, qhi := int64(rows/2), int64(rows/2+1024)
	wantCount := d.TrueCount(qlo, qhi)
	wantSum := d.TrueSum(qlo, qhi)

	var readers, writers sync.WaitGroup
	stopReaders := make(chan struct{})
	for rdr := 0; rdr < 4; rdr++ {
		readers.Add(1)
		go func(rdr int) {
			defer readers.Done()
			r := workload.NewRNG(uint64(900 + rdr))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if n, _, _ := col.Count(qctx, qlo, qhi); n != wantCount {
					t.Errorf("mid-storm Count[%d,%d) = %d, want %d", qlo, qhi, n, wantCount)
					return
				}
				if s, _, _ := col.Sum(qctx, qlo, qhi); s != wantSum {
					t.Errorf("mid-storm Sum[%d,%d) = %d, want %d", qlo, qhi, s, wantSum)
					return
				}
				// A roaming broad query keeps the fan-out path hot.
				lo := r.Int64n(int64(rows))
				col.Sum(qctx, lo, lo+int64(rows/8))
			}
		}(rdr)
	}

	// 8 writers hammer one narrow value band far from the quiet range.
	var inserted atomic.Int64
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 4000; i++ {
				if err := g.Insert(qctx, int64(i%97)); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}

	writers.Wait()
	close(stopReaders)
	readers.Wait()
	g.Close()

	if g.Stats().Splits == 0 {
		t.Fatalf("no shard split observed (shards %d -> %d, stats %+v)",
			before, col.NumShards(), g.Stats())
	}
	if col.NumShards() <= before {
		t.Errorf("shard count %d did not grow from %d", col.NumShards(), before)
	}
	// Quiesced exactness: storm values plus untouched initial data.
	if n, _, _ := col.Count(qctx, -1<<40, 1<<40); n != int64(rows)+inserted.Load() {
		t.Errorf("final Count = %d, want %d", n, int64(rows)+inserted.Load())
	}
	if n, _, _ := col.Count(qctx, qlo, qhi); n != wantCount {
		t.Errorf("final quiet-range Count = %d, want %d", n, wantCount)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}
