package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("Load = %d", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("Load = %d", c.Load())
	}
}

func TestDurationCounter(t *testing.T) {
	var d DurationCounter
	d.Add(time.Second)
	d.Add(500 * time.Millisecond)
	if d.Load() != 1500*time.Millisecond {
		t.Fatalf("Load = %v", d.Load())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.Add("scan", "3.8s")
	tab.Add("crack-with-long-name", "75ms")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
	// All rows padded to the same width.
	if len(lines[2]) > len(lines[3])+1 && len(lines[3]) > len(lines[2])+1 {
		t.Fatal("column alignment broken")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2500 * time.Millisecond, "2.500s"},
		{12 * time.Millisecond, "12.000ms"},
		{3400 * time.Nanosecond, "3.400us"},
		{999 * time.Nanosecond, "999ns"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
