package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"adaptix"
	"adaptix/internal/cracker"
	"adaptix/internal/crackindex"
	"adaptix/internal/durable"
	"adaptix/internal/epoch"
	"adaptix/internal/ingest"
	"adaptix/internal/kernel"
	"adaptix/internal/latch"
	"adaptix/internal/serve"
	"adaptix/internal/shard"
	"adaptix/internal/wal"
	"adaptix/internal/workload"
)

// The ladder: one rung per layer, each timing the layer's exported
// functions in isolation on fixed inputs, from outside the program.
// Every traced run climbs the whole ladder, whatever its workload, so
// an end-to-end number can be set against the rungs measured beside
// it. Rungs are sized to finish in a few seconds together; a rung's
// value is the median of its repetitions.

// sink keeps the compiler from discarding a rung's result.
var sink int64

// ladder is the rungs' shared input.
type ladder struct {
	cfg    *runConfig
	out    *outcome
	values []int64 // the workload's full column
	small  []int64 // the first rungRows values: unique keys spread over [0, domain)
	domain int64
	dir    string
}

func runLadder(cfg *runConfig, out *outcome) error {
	ds := workload.NewUniqueUniform(cfg.rows, cfg.seed)
	rungRows := 1 << 20
	if cfg.quick {
		rungRows = 1 << 16
	}
	dir, err := os.MkdirTemp(cfg.dir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := &ladder{cfg: cfg, out: out, values: ds.Values, small: ds.Values[:min(rungRows, len(ds.Values))], domain: ds.Domain, dir: dir}

	began := time.Now()
	l.kernelRungs()
	l.crackerRungs()
	l.latchRungs()
	l.crackindexRungs()
	l.shardRungs()
	l.epochRungs()
	if err := l.ingestRungs(); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if err := l.walRungs(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.durableRungs(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := l.serveRungs(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := l.metricsRung(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	out.note("ladder: %d-row column for kernel and shard.new rungs, %d rows for the others, %.1fs", len(l.values), len(l.small), time.Since(began).Seconds())
	return nil
}

// reps times f reps times and returns the median duration.
func reps(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		f()
		d[i] = float64(time.Since(t))
	}
	return time.Duration(median(d))
}

// repsFresh is reps for a rung that consumes its input: prepare runs
// outside the clock before every repetition.
func repsFresh[T any](n int, prepare func() T, f func(T)) time.Duration {
	d := make([]float64, n)
	for i := range d {
		in := prepare()
		t := time.Now()
		f(in)
		d[i] = float64(time.Since(t))
	}
	return time.Duration(median(d))
}

func perOp(d time.Duration, n int) float64 { return float64(d) / float64(n) }

func (l *ladder) set(name string, v float64) { l.out.metrics[name] = v }

// The kernel rungs take the median of nine passes: the first three
// or so run at half speed until the column has settled in the cache.
func (l *ladder) kernelRungs() {
	v := l.values
	gbps := func(d time.Duration) float64 { return float64(len(v)) * 8 / 1e9 / d.Seconds() }
	lo, hi := l.domain/4, 3*l.domain/4
	l.set("kernel.count_range_gbps", gbps(reps(9, func() { sink += kernel.CountRange(v, lo, hi) })))
	l.set("kernel.sum_range_gbps", gbps(reps(9, func() { sink += kernel.SumRange(v, lo, hi) })))
	l.set("kernel.sum_gbps", gbps(reps(9, func() { sink += kernel.Sum(v) })))
	dst := make([]int64, len(v))
	l.set("kernel.memcpy_gbps", gbps(reps(9, func() { copy(dst, v) })))
}

func (l *ladder) crackerRungs() {
	v := l.small
	mrows := func(d time.Duration) float64 { return float64(len(v)) / 1e6 / d.Seconds() }
	fresh := func() *cracker.Array { return cracker.New(v, cracker.LayoutSplit) }
	l.set("cracker.new_mrows_s", mrows(reps(3, func() { sink += int64(fresh().Len()) })))
	l.set("cracker.crack_in_two_mrows_s", mrows(repsFresh(3, fresh, func(a *cracker.Array) {
		sink += int64(a.CrackInTwo(0, a.Len(), l.domain/2))
	})))
	l.set("cracker.crack_in_three_mrows_s", mrows(repsFresh(3, fresh, func(a *cracker.Array) {
		p, _ := a.CrackInThree(0, a.Len(), l.domain/4, 3*l.domain/4)
		sink += int64(p)
	})))
	l.set("cracker.sort_mrows_s", mrows(repsFresh(3, fresh, func(a *cracker.Array) { a.Sort(0, a.Len()) })))
}

func (l *ladder) latchRungs() {
	const n = 200000
	lt := latch.New(latch.MiddleFirst)
	l.set("latch.lock_unlock_ns", perOp(reps(3, func() {
		for range n {
			lt.Lock(0)
			lt.Unlock()
		}
	}), n))
	l.set("latch.rlock_runlock_ns", perOp(reps(3, func() {
		for range n {
			lt.RLock()
			lt.RUnlock()
		}
	}), n))
	// C goroutines hammer one latch: the cost of a hand-off.
	c := l.cfg.clients
	l.set("latch.contended_handoff_ns", perOp(reps(3, func() {
		var wg sync.WaitGroup
		for g := range c {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n / 4 {
					lt.Lock(int64(g))
					lt.Unlock()
				}
			}()
		}
		wg.Wait()
	}), c*(n/4)))
}

// narrowPool draws n narrow queries (about 40 rows each) over the
// small rung column.
func (l *ladder) narrowPool(n int, seed uint64) []workload.Query {
	return alternating(workload.NewUniform(workload.Count, l.domain, 40/float64(len(l.small)), l.cfg.seed+seed), n)
}

func (l *ladder) crackindexRungs() {
	cold := alternating(workload.NewUniform(workload.Count, l.domain, 0.01, l.cfg.seed+6), coldQueries)
	fresh := func() *crackindex.Index { return crackindex.New(l.small, crackindex.Options{}) }
	l.set("crackindex.cold_first_query_ms", ms(repsFresh(3, fresh, func(ix *crackindex.Index) {
		n, _ := ix.Count(cold[0].Lo, cold[0].Hi)
		sink += n
	})))
	ix := fresh()
	for _, q := range cold {
		n, _ := ix.Count(q.Lo, q.Hi)
		sink += n
	}
	l.set("crackindex.pieces_after_1024", float64(ix.NumPieces()))

	pool := l.narrowPool(8192, 7)
	for _, q := range pool {
		ix.Count(q.Lo, q.Hi)
	}
	l.set("crackindex.converged_count_ns", perOp(reps(3, func() {
		for _, q := range pool {
			n, _ := ix.Count(q.Lo, q.Hi)
			sink += n
		}
	}), len(pool)))
	l.set("crackindex.converged_sum_ns", perOp(reps(3, func() {
		for _, q := range pool {
			n, _ := ix.Sum(q.Lo, q.Hi)
			sink += n
		}
	}), len(pool)))
}

func (l *ladder) shardRungs() {
	l.set("shard.new_ms", ms(reps(3, func() {
		sink += int64(shard.New(l.values, shard.Options{Shards: shards}).NumShards())
	})))
	// Converged columns, queries spanning every shard: s4 minus s1 is
	// the fan-out overhead.
	rng := workload.NewRNG(l.cfg.seed + 8)
	pool := make([]workload.Query, 256)
	for i := range pool {
		pool[i] = workload.Query{Lo: rng.Int64n(l.domain / 8), Hi: l.domain - rng.Int64n(l.domain/8)}
	}
	for _, n := range []int{1, shards} {
		col := shard.New(l.small, shard.Options{Shards: n})
		for _, q := range pool {
			col.Count(bg, q.Lo, q.Hi)
		}
		l.set(fmt.Sprintf("shard.count_ns.s%d", n), perOp(reps(5, func() {
			for _, q := range pool {
				v, _, _ := col.Count(bg, q.Lo, q.Hi)
				sink += v
			}
		}), len(pool)))
	}
}

func (l *ladder) epochRungs() {
	const entries = 1024 // per epoch file
	rng := workload.NewRNG(l.cfg.seed + 9)
	keys := make([]int64, entries)
	for i := range keys {
		keys[i] = rng.Int64n(l.domain)
	}
	var id int64
	next := func() int64 { id++; return id }
	l.set("epoch.insert_ns", perOp(reps(9, func() {
		ch := epoch.NewChain(next)
		for _, k := range keys {
			ch.Insert(k)
		}
	}), entries))
	for _, depth := range []int{0, 4, 16} {
		ch := epoch.NewChain(next)
		for range depth {
			for _, k := range keys {
				ch.Insert(k)
			}
			ch.Seal()
		}
		const probes = 20000
		width := l.domain / 1000
		l.set(fmt.Sprintf("epoch.count_adj_ns.d%d", depth), perOp(reps(3, func() {
			for i := range probes {
				lo := keys[i%entries]
				adj, _ := ch.CountAdj(lo, lo+width)
				sink += adj
			}
		}), probes))
	}
}

func (l *ladder) ingestRungs() error {
	// No Start: the rungs time the router alone, then one explicit
	// group-apply pass.
	fresh := func() *ingest.Coordinator {
		return ingest.New(shard.New(l.small, shard.Options{Shards: shards}), ingest.Options{})
	}
	rng := workload.NewRNG(l.cfg.seed + 10)
	const n = 16384
	keys := make([]int64, 4*n)
	for i := range keys {
		keys[i] = rng.Int64n(l.domain)
	}
	var err error
	g := fresh()
	l.set("ingest.insert_ns", perOp(reps(1, func() {
		for _, k := range keys[:n] {
			if e := g.Insert(bg, k); e != nil {
				err = e
			}
		}
	}), n))
	batch := make([]ingest.Op, 256)
	l.set("ingest.apply_batch_ns_per_op", perOp(reps(1, func() {
		for b := 0; b < n/len(batch); b++ {
			for i := range batch {
				batch[i] = ingest.Op{Value: keys[n+b*len(batch)+i]}
			}
			if _, e := g.Apply(bg, batch); e != nil {
				err = e
			}
		}
	}), n))
	// 64 Ki pending writes on a column holding about 1 Ki crack
	// boundaries, then one Maintain: seal, merge, rebuild, and replay
	// every boundary into the rebuilt shards.
	g = fresh()
	for _, q := range l.narrowPool(512, 14) {
		if _, _, e := g.Column().Count(bg, q.Lo, q.Hi); e != nil {
			err = e
		}
	}
	for _, k := range keys {
		if e := g.Insert(bg, k); e != nil {
			err = e
		}
	}
	l.set("ingest.group_apply_ms", ms(reps(1, func() { sink += int64(g.Maintain()) })))
	return err
}

func (l *ladder) walRungs() error {
	rec := wal.Record{Txn: 1, Kind: wal.LogicalWrite, Object: "sharded", A: 12345, B: 7, C: 0}
	const n = 100000
	l.set("wal.encode_ns", perOp(reps(3, func() {
		for i := range n {
			rec.A = int64(i)
			sink += int64(len(wal.Encode(rec)))
		}
	}), n))

	nosync, err := wal.NewFileSink(filepath.Join(l.dir, "wal-nosync"), wal.SinkOptions{NoSync: true})
	if err != nil {
		return err
	}
	log := wal.New(nosync)
	l.set("wal.append_nosync_ns", perOp(reps(1, func() {
		for i := range n {
			rec.A = int64(i)
			if _, e := log.Append(rec); e != nil {
				err = e
			}
		}
	}), n))
	if e := nosync.Close(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}

	synced, err := wal.NewFileSink(filepath.Join(l.dir, "wal-sync"), wal.SinkOptions{})
	if err != nil {
		return err
	}
	log = wal.New(synced)
	const syncs = 40
	appendSync := make([]float64, syncs)
	fsync := make([]float64, syncs)
	for i := range syncs {
		t := time.Now()
		if _, e := log.Append(rec); e != nil {
			err = e
		}
		mid := time.Now()
		if e := log.Sync(); e != nil {
			err = e
		}
		end := time.Now()
		appendSync[i] = float64(end.Sub(t)) / 1e3
		fsync[i] = float64(end.Sub(mid)) / 1e3
	}
	l.set("wal.append_sync_us", median(appendSync))
	l.set("wal.fsync_us_p50", median(fsync))
	if e := synced.Close(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}

	// Recovery scan of a 16 MiB log of committed system transactions.
	logBytes := 16 << 20
	if l.cfg.quick {
		logBytes = 1 << 20
	}
	recDir := filepath.Join(l.dir, "wal-recover")
	big, err := wal.NewFileSink(recDir, wal.SinkOptions{NoSync: true})
	if err != nil {
		return err
	}
	log = wal.New(big)
	frame := len(wal.Encode(rec)) + 8
	for i := 0; i < logBytes/frame; i++ {
		rec.A = int64(i)
		if _, e := log.Append(rec); e != nil {
			err = e
		}
	}
	if e := big.Close(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	raw, err := wal.ReadDir(recDir)
	if err != nil {
		return err
	}
	d := reps(1, func() {
		if _, e := wal.Recover(raw); e != nil {
			err = e
		}
	})
	l.set("wal.recover_mb_s", float64(len(raw))/1e6/d.Seconds())
	return err
}

func (l *ladder) durableRungs() error {
	// No automatic checkpoints: one would release log segments under the
	// copy below. The rung takes its own, between the writes.
	opts := durable.Options{Values: l.small, Shard: shard.Options{Shards: shards}, LogWrites: true, SyncEvery: syncEvery, CheckpointEvery: 1 << 30}
	store := filepath.Join(l.dir, "store")
	t := time.Now()
	col, err := durable.Open(store, opts)
	if err != nil {
		return err
	}
	l.set("durable.open_fresh_ms", ms(time.Since(t)))
	defer col.Close()

	rng := workload.NewRNG(l.cfg.seed + 11)
	write := func(n int) error {
		for range n {
			if err := col.Insert(bg, rng.Int64n(l.domain)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(10000); err != nil {
		return err
	}
	t = time.Now()
	if !col.Checkpoint() {
		return fmt.Errorf("checkpoint not written")
	}
	l.set("durable.checkpoint_ms", ms(time.Since(t)))

	// A logged tail past the checkpoint, then recover a copy of the
	// live directory.
	if err := write(10000); err != nil {
		return err
	}
	img := filepath.Join(l.dir, "store-image")
	if err := os.CopyFS(img, os.DirFS(store)); err != nil {
		return err
	}
	opts.Values = nil
	rec, err := durable.Open(img, opts)
	if err != nil {
		return err
	}
	defer rec.Close()
	rb := rec.Recovery()
	l.set("durable.recovery.checkpoint_load_ms", ms(rb.CheckpointLoad))
	l.set("durable.recovery.wal_scan_ms", ms(rb.WALScan))
	l.set("durable.recovery.replay_ms", ms(rb.Replay))
	return nil
}

func (l *ladder) serveRungs() error {
	req := serve.Request{ID: 1, Op: serve.OpCount, Lo: 100, Hi: 200}
	const n = 200000
	var buf []byte
	l.set("serve.frame_encode_ns", perOp(reps(3, func() {
		for i := range n {
			req.ID = uint64(i)
			buf = serve.AppendRequestFrame(buf[:0], req)
		}
	}), n))
	var stream []byte
	for i := range n {
		req.ID = uint64(i)
		stream = serve.AppendRequestFrame(stream, req)
	}
	var err error
	l.set("serve.frame_decode_ns", perOp(reps(3, func() {
		br := bufio.NewReader(bytes.NewReader(stream))
		var scratch []byte
		for range n {
			p, e := serve.ReadFrame(br, scratch)
			if e != nil {
				err = e
				return
			}
			scratch = p[:0]
			q, e := serve.DecodeRequest(p)
			if e != nil {
				err = e
				return
			}
			sink += int64(q.ID)
		}
	}), n))
	if err != nil {
		return err
	}

	// Round trip: closed loop, one connection, one request outstanding,
	// on converged hot bounds; and the same bounds in process.
	ix, err := adaptix.New(l.small, adaptix.WithShards(shards))
	if err != nil {
		return err
	}
	defer ix.Close()
	hot := l.narrowPool(hotBounds, 12)
	for _, q := range hot {
		if _, err := runQuery(ix, q); err != nil {
			return err
		}
	}
	const trips = 2000
	lat := make([]uint32, trips)
	for i := range lat {
		t := time.Now()
		res, err := runQuery(ix, hot[i%len(hot)])
		if err != nil {
			return err
		}
		lat[i] = sat32(time.Since(t))
		sink += res.Value
	}
	inProcess := us(quantile(lat, 0.50))
	rtt := map[string]float64{}
	for name, window := range map[string]time.Duration{"window_default": 0, "window_off": -1} {
		srv, err := ix.ServeAddr("127.0.0.1:0", adaptix.ServeOptions{Window: window})
		if err != nil {
			return err
		}
		cl, err := adaptix.DialServe(srv.Addr().String())
		if err != nil {
			srv.Close()
			return err
		}
		for i := range lat {
			q := hot[i%len(hot)]
			t := time.Now()
			var v int64
			if q.Kind == workload.Sum {
				v, err = cl.Sum(bg, q.Lo, q.Hi)
			} else {
				v, err = cl.Count(bg, q.Lo, q.Hi)
			}
			if err != nil {
				break
			}
			lat[i] = sat32(time.Since(t))
			sink += v
		}
		cl.Close()
		srv.Close()
		if err != nil {
			return err
		}
		rtt[name] = us(quantile(lat, 0.50))
		l.set("serve.rtt_p50_us."+name, rtt[name])
	}
	// The wire alone: round trip with the batch window off, minus the
	// same queries in process.
	l.set("serve.wire_overhead_us_p50", rtt["window_off"]-inProcess)
	return nil
}

// metricsRung measures what sampled tracing (WithObservability,
// SampleEvery 16) costs a converged narrow-query loop, alternating the
// two indexes so machine drift cancels.
func (l *ladder) metricsRung() error {
	plain, err := adaptix.New(l.small, adaptix.WithShards(shards))
	if err != nil {
		return err
	}
	defer plain.Close()
	sampled, err := adaptix.New(l.small, adaptix.WithShards(shards), adaptix.WithObservability(adaptix.ObsOptions{SampleEvery: 16}))
	if err != nil {
		return err
	}
	defer sampled.Close()
	pool := l.narrowPool(8192, 13)
	for _, ix := range []*adaptix.Index{plain, sampled} {
		for _, q := range pool {
			if _, err := runQuery(ix, q); err != nil {
				return err
			}
		}
	}
	pass := func(ix *adaptix.Index) func() {
		return func() {
			for _, q := range pool {
				res, _ := runQuery(ix, q)
				sink += res.Value
			}
		}
	}
	runtime.GC()
	var a, b []float64
	for range 5 {
		a = append(a, float64(reps(1, pass(plain))))
		b = append(b, float64(reps(1, pass(sampled))))
	}
	l.set("metrics.sampled_tracing_overhead_pct", 100*(median(b)/median(a)-1))
	return nil
}
