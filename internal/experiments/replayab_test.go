package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestReplayABShapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := testCfg()
	rep := ReplayAB(cfg, &buf)

	if rep.Signature.Captured != int64(cfg.Queries) || rep.Signature.Dropped != 0 {
		t.Fatalf("capture leg: captured %d dropped %d, want %d / 0",
			rep.Signature.Captured, rep.Signature.Dropped, cfg.Queries)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Records != cfg.Queries {
			t.Fatalf("%s replayed %d of %d records", c.Name, c.Records, cfg.Queries)
		}
		// The determinism contract: every variant reproduces the capture
		// run's checksums on the identical trace.
		if c.Mismatches != 0 {
			t.Fatalf("%s: %d checksum mismatches", c.Name, c.Mismatches)
		}
		if c.Throughput <= 0 {
			t.Fatalf("%s: throughput %v", c.Name, c.Throughput)
		}
		if c.Reads+c.Writes != c.Records {
			t.Fatalf("%s: reads %d + writes %d != records %d", c.Name, c.Reads, c.Writes, c.Records)
		}
	}
	if !strings.Contains(buf.String(), "Replay A/B") {
		t.Fatalf("report text missing header:\n%s", buf.String())
	}
}
