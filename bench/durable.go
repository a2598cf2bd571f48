package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adaptix"
	"adaptix/internal/workload"
)

// The durable_rw flush policy, fixed and stated: every routed write is
// logged, and the log is group-fsynced every syncEvery records, so a
// crash may lose at most syncEvery-1 of the newest acknowledged writes.
// (At 64 records a group the workload spends its time in the sandbox's
// fsync, whose cost swings with the neighbours: ops_per_s spread 9-18%
// over ten runs, against 4% at 256.)
//
// Automatic checkpoints are off: one that races the writers double-
// applies writes after recovery (README, Findings). The run takes its
// one checkpoint itself, at the quiesced point between the timed phase
// and the stream the kill lands in, so the crash image is a checkpoint
// plus a logged tail.
const (
	syncEvery = 256
	ackEvery  = 64 // a client reports its acknowledged writes every ackEvery writes
)

func durableOptions(values []int64) []adaptix.Option {
	opts := []adaptix.Option{adaptix.WithShards(shards), adaptix.WithLogWrites(), adaptix.WithSyncEvery(syncEvery), adaptix.WithCheckpointEvery(1 << 30)}
	if values != nil {
		opts = append(opts, adaptix.WithValues(values))
	}
	return opts
}

// childEnv carries the child's configuration; its presence selects
// child mode.
const childEnv = "ADAPTIX_BENCH_CHILD"

// childConfig is what the parent hands the child.
type childConfig struct {
	Rows    int
	Seed    uint64
	Seconds float64
	Trace   bool
	Quick   bool
	Clients int
	Dir     string // span dumps
	Store   string // the store directory the parent will take the crash image of
}

// childReport is the child's summary line.
type childReport struct {
	Attempted, Failed, Wrong int64
	Metrics, Spread          map[string]float64
	Notes                    []string
}

func isChild() bool { return os.Getenv(childEnv) != "" }

// childMain is the durable_rw workload proper, run in a process of its
// own so the parent can kill it. It prints to standard output:
//
//	A <c> <n>   client c has n writes acknowledged (every ackEvery writes)
//	S <json>    the timed phase's summary (childReport)
//
// and after S keeps the same stream running until it is killed, so
// the kill lands while writes are in flight.
func childMain() int {
	var cc childConfig
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &cc); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 2
	}
	cfg := &runConfig{workload: "durable_rw", rows: cc.Rows, seed: cc.Seed, seconds: cc.Seconds,
		trace: cc.Trace, quick: cc.Quick, clients: cc.Clients, dir: cc.Dir}
	if err := durableChild(cfg, cc.Store); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}

func durableChild(cfg *runConfig, store string) error {
	out := newOutcome()
	s := newRWStream(cfg)
	fx, err := setUp(cfg, out,
		func(values []int64) (*adaptix.Index, error) {
			// Every set-up opens a fresh store.
			if err := os.RemoveAll(store); err != nil {
				return nil, err
			}
			return adaptix.Open(store, durableOptions(values)...)
		},
		func(ix *adaptix.Index) error { return s.converge(cfg, ix) }, nil)
	if err != nil {
		return err
	}

	// Each client streams its own acknowledgements, synchronously, so the
	// parent's count trails the truth by less than ackEvery writes. A
	// reporter goroutine would not do: on two busy cores it can fall a
	// thousand writes behind, and the cycle keys repeat every rwPeriod
	// writes, so the parent's prefix search would read a recovered state
	// that far ahead of the last report as one behind it: as loss.
	var stdout sync.Mutex // the S line is longer than a pipe's atomic write
	op := s.op(fx.ix, func(c, writes int) {
		if writes%ackEvery == 0 {
			stdout.Lock()
			fmt.Printf("A %d %d\n", c, writes)
			stdout.Unlock()
		}
	})

	logBefore := dirBytes(store)
	logs, err := timedPhase(cfg, out, fx.ix, 4<<20, op)
	if err != nil {
		return err
	}
	// Nothing is truncated before the checkpoint below, so the store
	// grew by exactly what the phase logged: writes, seals and applies.
	out.metrics["wal.bytes_per_write"] = float64(dirBytes(store)-logBefore) / max(out.metrics["wal.logged_writes"], 1)
	s.verifyReplay(out, newOracle(fx.ds.Values), logs)
	done := make([]int, len(logs))
	for c, lg := range logs {
		done[c] = len(lg.lat)
	}
	logs = nil
	quiesce(fx.ix) // pending epochs and replaced parts would make the heap reading a matter of timing
	fx.heapPerRow(out)
	t0 := time.Now()
	if !fx.ix.Checkpoint() {
		return errors.New("the checkpoint after the timed phase was not written")
	}
	out.metrics["durable.checkpoints"]++
	out.note("one checkpoint between the timed phase and the killed stream: %.1f ms", ms(time.Since(t0)))

	b, err := json.Marshal(childReport{out.attempted, out.failed, out.wrong, out.metrics, out.spread, out.notes})
	if err != nil {
		return err
	}
	// Resume the stream first, then tell the parent: its kill must find
	// writes in flight.
	tcfg := *cfg
	tcfg.trace = false
	go closedLoop(&tcfg, 1, time.Hour, 1<<20, func(c, i int) (opKind, int64, adaptix.Result, error) {
		return op(c, done[c]+i)
	})
	time.Sleep(20 * time.Millisecond)
	stdout.Lock()
	fmt.Printf("S %s\n", b)
	stdout.Unlock()
	select {} // the parent kills this process
}

func runDurableRW(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	root, err := os.MkdirTemp(cfg.dir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	store := filepath.Join(root, "store")

	acked, err := runChild(cfg, out, store)
	if err != nil {
		return nil, err
	}
	var ackedTotal int64
	for _, a := range acked {
		ackedTotal += a
	}

	// Recovery: Open on copies of the crash image.
	copies := 3
	if cfg.quick {
		copies = 2
	}
	var recoveryMS []float64
	var ix *adaptix.Index
	for i := range copies {
		img := filepath.Join(root, fmt.Sprintf("image-%d", i))
		if err := os.CopyFS(img, os.DirFS(store)); err != nil {
			return nil, err
		}
		if ix != nil {
			ix.Close()
		}
		t0 := time.Now()
		ix, err = adaptix.Open(img, durableOptions(nil)...)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recoveryMS = append(recoveryMS, ms(time.Since(t0)))
		if !ix.Recovered() {
			ix.Close()
			return nil, errors.New("recovery: Open found no store in the crash image")
		}
	}
	defer ix.Close()
	out.set("durable.recovery_ms", recoveryMS)

	// Every acknowledged write must have survived, up to the documented
	// window. The log is sequential and each client waits for one write
	// before issuing the next, so a client's recovered writes are a
	// prefix of its stream; the counts of its cycle keys say which
	// (rwStream.writeKey), searched for around the acknowledged count.
	s := newRWStream(cfg)
	ds := workload.NewUniqueUniform(cfg.rows, cfg.seed)
	delta := make([]int8, s.domain)
	var lost int64
	var ahead []int64 // per client: recovered prefix minus acknowledged count
	for c := range acked {
		var got [rwKeys]int8
		for m, q := range s.pools[c] {
			key := (q.Lo + q.Hi) / 2
			res, err := ix.Count(bg, key, key+1)
			out.attempted++
			if err != nil {
				return nil, fmt.Errorf("recovered index: %w", err)
			}
			got[m] = int8(res.Value - 1)
		}
		// The child may have finished up to ackEvery writes after its
		// last report; look ahead of the acknowledged count first. The
		// counts repeat every rwPeriod writes, so look no wider.
		recovered := -1
		for r := int(acked[c]) + ackEvery; r > max(int(acked[c])+ackEvery-rwPeriod, -1); r-- {
			if s.deltaAfter(r) == got {
				recovered = r
				break
			}
		}
		if recovered < 0 {
			out.failWrong(1, "client %d: the recovered cycle keys match no prefix of its writes near the %d acknowledged", c, acked[c])
			continue
		}
		lost += max(acked[c]-int64(recovered), 0)
		ahead = append(ahead, int64(recovered)-acked[c])
		for m, q := range s.pools[c] {
			delta[(q.Lo+q.Hi)/2] = got[m]
		}
	}
	// Acknowledged writes lost beyond the documented window are failed
	// ops (reported in fail_ratio, not a wrong answer). Each client's
	// count is short by less than ackEvery, so this is a lower bound.
	out.metrics["durable.lost_acked_writes"] = float64(lost)
	if over := lost - (syncEvery - 1); over > 0 {
		out.failed += over
		out.note("LOST: %d acknowledged writes missing after recovery, %d beyond the documented window of %d", lost, over, syncEvery-1)
	}
	out.note("killed with %d writes acknowledged; %d missing after recovery (window %d; recovered minus acknowledged per client %v); flush policy: log every write, group fsync every %d",
		ackedTotal, lost, syncEvery-1, ahead, syncEvery)
	verifyFinal(out, ix, finalOracle(ds.Values, delta), ds.Domain, cfg.seed)
	return out, nil
}

// runChild runs the child to the end of its timed phase, kills it, and
// returns the per-client count of writes it had acknowledged by then.
func runChild(cfg *runConfig, out *outcome, store string) ([]int64, error) {
	cc, err := json.Marshal(childConfig{cfg.rows, cfg.seed, cfg.seconds, cfg.trace, cfg.quick, cfg.clients, cfg.dir, store})
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(cc))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child never exits by itself; make sure it is gone on every
	// path, and bound how long a stuck one may take.
	watchdog := time.AfterFunc(time.Duration(cfg.seconds*float64(time.Second))+90*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	acked := make([]int64, cfg.clients)
	var report *childReport
	rd := bufio.NewReader(stdout)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				cmd.Process.Kill()
			}
			break
		}
		switch {
		case strings.HasPrefix(line, "A "):
			var c int
			var n int64
			if _, err := fmt.Sscanf(line, "A %d %d", &c, &n); err == nil && c >= 0 && c < len(acked) {
				acked[c] = n
			}
		case strings.HasPrefix(line, "S "):
			report = new(childReport)
			if err := json.Unmarshal([]byte(line[2:]), report); err != nil {
				cmd.Process.Kill()
				cmd.Wait()
				return nil, fmt.Errorf("child summary: %w", err)
			}
			// The stream is running again; crash it mid-write.
			time.AfterFunc(100*time.Millisecond, func() { cmd.Process.Kill() })
		}
	}
	cmd.Wait() // "signal: killed" is the expected end
	if report == nil {
		return nil, errors.New("child ended before its summary")
	}
	out.attempted += report.Attempted
	out.failed += report.Failed
	out.wrong += report.Wrong
	for k, v := range report.Metrics {
		out.metrics[k] = v
	}
	for k, v := range report.Spread {
		out.spread[k] = v
	}
	out.notes = append(out.notes, report.Notes...)
	return acked, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
