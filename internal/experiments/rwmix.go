package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"adaptix/internal/crackindex"
	"adaptix/internal/ingest"
	"adaptix/internal/metrics"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// RWMixCell is one (write fraction, clients) cell of the read/write
// mix ablation.
type RWMixCell struct {
	// WriteFraction is the fraction of operations that are writes
	// (alternating inserts and deletes).
	WriteFraction float64
	// Clients is the number of concurrent clients.
	Clients int
	// Elapsed is the wall-clock time for all clients to finish.
	Elapsed time.Duration
	// Ops is the total number of operations executed.
	Ops int
	// Throughput is operations per second.
	Throughput float64
	// ShardsBefore and ShardsAfter are the shard counts around the run.
	ShardsBefore, ShardsAfter int
	// Applied, Splits and Merges count the coordinator's structural
	// operations during the run.
	Applied, Splits, Merges int64
	// Critical is the summed fan-out critical-path time of the read
	// queries (the latency-oriented view; Wait/Refine sum total work).
	Critical time.Duration
	// WriterP99 is the 99th-percentile routed-write latency: a
	// group-apply seals only the current epoch, so writers roll over
	// instead of parking and the tail stays at the cost of an epoch
	// append. Zero for read-only cells (nothing to measure).
	WriterP99 time.Duration
}

// RWMixReport is the outcome of the read/write mix ablation.
type RWMixReport struct {
	Cells []RWMixCell
}

// ReadWriteMix measures the sharded column behind an active ingest
// coordinator under mixed workloads: write fractions {0, 0.1, 0.5}
// crossed with client counts {1, 4, 16}. Writes route through the
// epoch chains; the coordinator group-applies and rebalances in the
// background, so the cells quantify how much a live write path costs
// the read side (the paper's §4.2 differential-file claim, measured).
// Write cells report the writer-stall p99: the epoch path's whole point
// is that it stays near an epoch append however long a rebuild takes.
func ReadWriteMix(cfg Config, w io.Writer) *RWMixReport {
	cfg = cfg.Defaults()
	d := cfg.dataset()
	rep := &RWMixReport{}
	for _, frac := range []float64{0, 0.1, 0.5} {
		for _, clients := range []int{1, 4, 16} {
			rep.Cells = append(rep.Cells, runRWMixCell(cfg, d, frac, clients))
		}
	}
	if w != nil {
		t := &metrics.Table{Header: []string{
			"write%", "clients", "total time", "ops/s", "shards", "applies", "splits", "merges", "critical", "stall p99",
		}}
		for _, c := range rep.Cells {
			t.Add(
				fmt.Sprintf("%.0f%%", c.WriteFraction*100),
				fmt.Sprint(c.Clients),
				metrics.FormatDuration(c.Elapsed),
				fmt.Sprintf("%.0f", c.Throughput),
				fmt.Sprintf("%d->%d", c.ShardsBefore, c.ShardsAfter),
				fmt.Sprint(c.Applied),
				fmt.Sprint(c.Splits),
				fmt.Sprint(c.Merges),
				metrics.FormatDuration(c.Critical),
				metrics.FormatDuration(c.WriterP99),
			)
		}
		fmt.Fprintf(w, "Read/write mix: %d ops per client, %d rows, sharded+ingest\n%s\n",
			cfg.Queries, cfg.Rows, t)
	}
	return rep
}

func runRWMixCell(cfg Config, d *workload.Dataset, frac float64, clients int) RWMixCell {
	col := shard.New(d.Values, shard.Options{
		Shards: 8, Seed: cfg.Seed,
		Index: crackindex.Options{Latching: crackindex.LatchPiece},
	})
	// A low apply threshold keeps group-apply merges colliding with the
	// write stream — the stall scenario the WriterP99 columns measure.
	g := ingest.New(col, ingest.Options{
		ApplyThreshold: 64, CheckEvery: 32, MinShardRows: 1 << 12,
	})
	g.Start()
	cell := RWMixCell{
		WriteFraction: frac, Clients: clients,
		ShardsBefore: col.NumShards(),
	}

	var critical int64 // nanoseconds, accumulated across clients
	var stalls []time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := workload.NewRNG(cfg.Seed + uint64(100+c))
			gen := workload.NewUniform(workload.Sum, d.Domain, 0.001, cfg.Seed+uint64(200+c))
			var localCrit time.Duration
			var localStalls []time.Duration
			for i := 0; i < cfg.Queries; i++ {
				if float64(r.Intn(1000))/1000 < frac {
					// Inserts and deletes spread over the whole domain,
					// so every shard's differential keeps crossing the
					// apply threshold and merges collide with writers.
					t0 := time.Now()
					if i%2 == 0 {
						_ = g.Insert(context.Background(), r.Int64n(d.Domain))
					} else {
						_, _ = g.DeleteValue(context.Background(), r.Int64n(d.Domain))
					}
					localStalls = append(localStalls, time.Since(t0))
					continue
				}
				q := gen.Next()
				_, st, _ := col.Sum(context.Background(), q.Lo, q.Hi)
				localCrit += st.Critical
			}
			mu.Lock()
			critical += int64(localCrit)
			stalls = append(stalls, localStalls...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	cell.Elapsed = time.Since(start)
	g.Close()

	st := g.Stats()
	cell.Ops = clients * cfg.Queries
	if cell.Elapsed > 0 {
		cell.Throughput = float64(cell.Ops) / cell.Elapsed.Seconds()
	}
	cell.ShardsAfter = col.NumShards()
	cell.Applied, cell.Splits, cell.Merges = st.Applied, st.Splits, st.Merges
	cell.Critical = time.Duration(critical)
	cell.WriterP99 = percentile(stalls, 0.99)
	return cell
}

// percentile returns the p-quantile of the given durations (0 when
// none were collected). Sorts in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}
