package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestServeBatchingShapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	eventually(t, 3, func() error {
		buf.Reset()
		rep := ServeBatching(cfg, &buf)
		if rep.Clients != 16 {
			t.Fatalf("sweep point = %d clients, want 16", rep.Clients)
		}
		// The small-scale shape bar: batching must win (the acceptance
		// run at full scale demands >= 1.5x; at test scale we assert a
		// strict win so CPU-starved CI runners don't flake).
		if rep.Speedup <= 1.0 {
			return fmt.Errorf("batched %.0f qps not faster than unbatched %.0f qps",
				rep.QPSBatched, rep.QPSUnbatched)
		}
		// Exact-duplicate bounds must actually coalesce.
		if rep.CoalesceRate <= 0 {
			return fmt.Errorf("coalesce rate %.3f, want > 0", rep.CoalesceRate)
		}
		// Multi-request batches must form.
		if rep.BatchP99 < 2 {
			return fmt.Errorf("batch p99 %d, want >= 2", rep.BatchP99)
		}
		// Fast reject: over-budget answers must never queue behind the
		// request parked in the engine (acceptance: < 1ms).
		if rep.RejectP99 >= time.Millisecond {
			return fmt.Errorf("reject p99 %v, want < 1ms", rep.RejectP99)
		}
		return nil
	})
	if !strings.Contains(buf.String(), "Serving front") {
		t.Fatal("report text missing")
	}
}
