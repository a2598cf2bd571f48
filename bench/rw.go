package main

import (
	"sync"

	"adaptix"
	"adaptix/internal/workload"
)

// rwStream is the read/write op stream mixed_rw and durable_rw share.
// It is a pure function of (seed, client, op index), so the parent of
// the durable_rw child, the oracle replay and the crash check can all
// regenerate it.
//
// Each client owns a contiguous key partition: it reads only there and
// writes only there, and its ops are sequential. Every read's answer
// therefore depends only on the client's own earlier writes — exactly
// checkable however the clients interleave — and the final multiset is
// interleaving-independent. (Partitions interleaved across the domain
// were tried: every client then meets every other on every shard, and
// throughput varied twice as much from run to run.)
//
// Writes cycle over a small fixed key set, one key in the middle of
// each read range, so they land inside the queried domain. The set is
// small on purpose: a delete must count its key's base instances,
// which cracks the shard at that key, and a group-apply replays every
// crack boundary of the shard it rebuilds one by one (about half a
// partition pass each). Distinct delete keys would grow that replay
// without bound over a run; a cycling set keeps it fixed, so the run
// can quiesce in bounded time.
type rwStream struct {
	domain int64
	pools  [][]workload.Query // per client: rwKeys narrow reads, one per slot it owns
}

const (
	rwKeys        = 256                   // read bounds, and cycle keys, per client
	rwRepeat      = 4                     // consecutive pairs that insert into the same cycle key
	rwLag         = 32                    // the delete of pair p removes the instance pair p-rwLag inserted
	rwPeriod      = 2 * rwRepeat * rwKeys // writes after which the cycle keys' counts repeat
	rwSelectivity = 0.0001                // 0.01% of the domain per read
)

func newRWStream(cfg *runConfig) *rwStream {
	domain := int64(cfg.rows)
	s := &rwStream{domain: domain}
	width := max(int64(rwSelectivity*float64(domain)), 2)
	slot := domain / int64(rwKeys*cfg.clients)
	// One read range per slot, in random order, each holding exactly
	// one cycle key; client c's slots are the c-th run of rwKeys.
	for c := range cfg.clients {
		rng := workload.NewRNG(cfg.seed + 4 + uint64(c)<<32)
		qs := make([]workload.Query, rwKeys)
		order := make([]int64, rwKeys)
		rng.Perm(order)
		for i, at := range order {
			lo := int64(c*rwKeys+i)*slot + rng.Int64n(slot-width)
			qs[at] = workload.Query{Kind: workload.QueryKind(at % 2), Lo: lo, Hi: lo + width}
		}
		s.pools = append(s.pools, qs)
	}
	return s
}

// kindAt is the op mix: of every ten ops, eight reads, one insert, one
// delete. write is the op's number among the client's writes. (The
// first rwLag deletes have nothing to remove yet and are reads.)
func (s *rwStream) kindAt(i int) (kind opKind, write int) {
	switch pair := i / 10; {
	case i%10 == 4:
		return kindInsert, 2 * pair
	case i%10 == 9 && pair >= rwLag:
		return kindDelete, 2*pair + 1
	}
	return kindCount, -1
}

// cycleSlot is the cycle key pair p inserts into.
func cycleSlot(p int) int { return p / rwRepeat % rwKeys }

// writeKey is the key of client c's j-th write. Writes come in pairs:
// pair p inserts one more instance of its cycle key, and deletes the
// instance pair p-rwLag inserted. So every delete finds an instance,
// every key holds between 1 and 1+rwRepeat, and the keys currently
// holding extra instances tell how far the stream has got, up to a
// multiple of rwPeriod.
func (s *rwStream) writeKey(c, j int) int64 {
	p := j / 2
	if j%2 == 1 {
		p -= rwLag
	}
	q := s.pools[c][cycleSlot(p)]
	return (q.Lo + q.Hi) / 2
}

// deltaAfter is the net instance-count change, per cycle key slot, of
// a client's first r writes: the inserts not yet deleted.
func (s *rwStream) deltaAfter(r int) [rwKeys]int8 {
	var d [rwKeys]int8
	inserted, deleted := (r+1)/2, max(r/2-rwLag, 0)
	for p := deleted; p < inserted; p++ {
		d[cycleSlot(p)]++
	}
	return d
}

func (s *rwStream) readAt(c, i int) workload.Query {
	p := s.pools[c]
	return p[i%len(p)]
}

// op issues client c's i-th op against ix; acked, when non-nil, is
// called after each write the index acknowledged.
func (s *rwStream) op(ix *adaptix.Index, acked func(c, writes int)) opFunc {
	return func(c, i int) (opKind, int64, adaptix.Result, error) {
		kind, j := s.kindAt(i)
		switch kind {
		case kindInsert:
			err := ix.Insert(bg, s.writeKey(c, j))
			if err == nil && acked != nil {
				acked(c, j+1)
			}
			return kind, 1, adaptix.Result{}, err
		case kindDelete:
			found, err := ix.Delete(bg, s.writeKey(c, j))
			if err == nil && acked != nil {
				acked(c, j+1)
			}
			var ans int64
			if found {
				ans = 1
			}
			return kind, ans, adaptix.Result{}, err
		}
		q := s.readAt(c, i)
		res, err := runQuery(ix, q)
		return queryKind(q), res.Value, res, err
	}
}

// converge cracks every client's read bounds (set-up).
func (s *rwStream) converge(cfg *runConfig, ix *adaptix.Index) error {
	for _, p := range s.pools {
		if err := converge(cfg, ix, p); err != nil {
			return err
		}
	}
	return nil
}

// verifyReplay replays each client's recorded ops against the oracle:
// a read must equal the base answer adjusted by the client's own
// earlier writes; a write must have been accepted (a delete must have
// found its key). It returns the per-key net adjustment the acknowledged
// writes leave behind.
func (s *rwStream) verifyReplay(out *outcome, base *oracle, logs []*clientLog) []int8 {
	delta := make([]int8, s.domain)
	wrong := make([]int64, len(logs))
	var wg sync.WaitGroup
	for c, lg := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := base.answers(s.pools[c])
			for i, got := range lg.ans {
				kind, j := s.kindAt(i)
				if got == errAnswer {
					continue
				}
				switch kind {
				case kindInsert:
					delta[s.writeKey(c, j)]++
				case kindDelete:
					if got != 1 {
						wrong[c]++
					}
					delta[s.writeKey(c, j)]--
				default:
					q := s.readAt(c, i)
					w := want[i%len(want)]
					for k := q.Lo; k < q.Hi; k++ {
						if d := int64(delta[k]); d != 0 {
							if q.Kind == workload.Sum {
								d *= k
							}
							w += d
						}
					}
					if got != w {
						wrong[c]++
					}
				}
			}
		}()
	}
	wg.Wait()
	var n int64
	for _, w := range wrong {
		n += w
	}
	out.failWrong(n, "%d ops disagree with the oracle replay", n)
	return delta
}

// finalOracle is the multiset the writes leave behind.
func finalOracle(base []int64, delta []int8) *oracle {
	final := make([]int64, 0, len(base))
	for _, v := range base {
		for n := 1 + delta[v]; n > 0; n-- {
			final = append(final, v)
		}
	}
	return newOracle(final)
}

// quiesce runs maintenance until nothing is left to group-apply.
func quiesce(ix *adaptix.Index) {
	for range 64 {
		if ix.Maintain() == 0 {
			return
		}
	}
}

func runMixedRW(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	s := newRWStream(cfg)
	fx, err := setUp(cfg, out,
		func(values []int64) (*adaptix.Index, error) { return adaptix.New(values, adaptix.WithShards(shards)) },
		func(ix *adaptix.Index) error { return s.converge(cfg, ix) }, nil)
	if err != nil {
		return nil, err
	}
	defer fx.ix.Close()

	logs, err := timedPhase(cfg, out, fx.ix, 4<<20, s.op(fx.ix, nil))
	if err != nil {
		return nil, err
	}
	quiesce(fx.ix)
	delta := s.verifyReplay(out, newOracle(fx.ds.Values), logs)
	verifyFinal(out, fx.ix, finalOracle(fx.ds.Values, delta), fx.ds.Domain, cfg.seed)
	logs, delta = nil, nil
	fx.heapPerRow(out)
	return out, nil
}
