package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestFlightDumpOrder(t *testing.T) {
	f := NewFlight(16)
	for i := 0; i < 10; i++ {
		f.Record(EvSeal, int32(i), time.Duration(i), int64(i), 0)
	}
	evs := f.Dump()
	if len(evs) != 10 {
		t.Fatalf("Dump returned %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Shard != int32(i) || ev.A != int64(i) {
			t.Fatalf("event %d = %+v, want seq/shard/a = %d", i, ev, i)
		}
		if ev.Kind != EvSeal || ev.KindName != "seal" {
			t.Fatalf("event %d kind = %v/%q", i, ev.Kind, ev.KindName)
		}
	}
}

func TestFlightWrap(t *testing.T) {
	f := NewFlight(16)
	for i := 0; i < 100; i++ {
		f.Record(EvApply, 0, 0, int64(i), 0)
	}
	evs := f.Dump()
	if len(evs) != 16 {
		t.Fatalf("Dump after wrap returned %d events, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := int64(84 + i); ev.A != want {
			t.Fatalf("event %d payload = %d, want %d (oldest-first after wrap)", i, ev.A, want)
		}
	}
	if f.Len() != 16 {
		t.Fatalf("Len = %d, want 16", f.Len())
	}
}

// Concurrent recording and dumping must be race-free and never yield a
// torn event: any dumped event's payload fields must be mutually
// consistent (we encode the same value in Shard, Dur, and A).
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(w*1_000_000 + i)
				f.Record(EvQuery, int32(v%1000), time.Duration(v), v, v)
			}
		}(w)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, ev := range f.Dump() {
			if int64(ev.Dur) != ev.A || ev.A != ev.B || ev.Shard != int32(ev.A%1000) {
				t.Errorf("torn event: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A latch wait or writer park over the stall threshold must surface in
// the flight-recorder dump (the ISSUE's forced-stall test, unit
// level; the facade-level version lives in the root package).
func TestObserverStallLandsInFlight(t *testing.T) {
	ob := NewObserver(ObserverOptions{StallThreshold: time.Microsecond})
	ob.RecordLatchWait(50*time.Microsecond, true)
	ob.RecordWriterPark(3, 2*time.Millisecond)
	ob.RecordLatchWait(time.Nanosecond, false) // under threshold: histogram only

	var latch, writer int
	for _, ev := range ob.Flight().Dump() {
		switch ev.Kind {
		case EvLatchStall:
			latch++
			if ev.Dur != 50*time.Microsecond || ev.A != 1 {
				t.Fatalf("latch stall event = %+v", ev)
			}
		case EvWriterStall:
			writer++
			if ev.Shard != 3 || ev.Dur != 2*time.Millisecond {
				t.Fatalf("writer stall event = %+v", ev)
			}
		}
	}
	if latch != 1 || writer != 1 {
		t.Fatalf("stall events in dump: latch=%d writer=%d, want 1/1", latch, writer)
	}
	if got := ob.Registry().Counter("adaptix_latch_stalls_total", "").Load(); got != 1 {
		t.Fatalf("latch stall counter = %d, want 1", got)
	}
	if got := ob.Registry().Counter("adaptix_writer_stalls_total", "").Load(); got != 1 {
		t.Fatalf("writer stall counter = %d, want 1", got)
	}
	// The sub-threshold wait still recorded in the histogram.
	var snap HistSnapshot
	ob.Registry().VisitHistograms(func(name string, s HistSnapshot) {
		if name == "adaptix_latch_wait_ns" {
			snap = s
		}
	})
	if got := snap.Count(); got != 2 {
		t.Fatalf("latch wait histogram count = %d, want 2", got)
	}
}

func TestObserverSampling(t *testing.T) {
	if !NewObserver(ObserverOptions{SampleEvery: 4}).QueryStart().IsZero() {
		t.Fatal("QueryStart should be zero while tracing is disabled")
	}
	ob := NewObserver(ObserverOptions{Tracing: true, SampleEvery: 4})
	var sampled int
	for i := 0; i < 100; i++ {
		start := ob.QueryStart()
		if !start.IsZero() {
			sampled++
		}
		ob.RecordQuery(start, time.Microsecond, time.Microsecond, time.Microsecond)
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 queries at SampleEvery=4, want 25", sampled)
	}
	if got := ob.Registry().Counter("adaptix_queries_total", "").Load(); got != 100 {
		t.Fatalf("queries counter = %d, want 100 (core histograms record every query)", got)
	}
	var spans HistSnapshot
	ob.Registry().VisitHistograms(func(name string, s HistSnapshot) {
		if name == "adaptix_query_latency_ns" {
			spans = s
		}
	})
	if got := spans.Count(); got != int64(sampled) {
		t.Fatalf("query latency histogram count = %d, want %d sampled spans", got, sampled)
	}
}

func TestRegistryVisit(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Inc()
	r.Gauge("depth", "queue depth").Set(7)
	r.Histogram("lat_ns", "latency").Record(100)
	if r.Counter("a_total", "ignored duplicate help") != r.Counter("a_total", "") {
		t.Fatal("Counter not idempotent per name")
	}
	if r.Help("a_total") != "first" {
		t.Fatalf("Help = %q, want first registration to win", r.Help("a_total"))
	}

	var names []string
	r.VisitCounters(func(name string, v int64) { names = append(names, name) })
	if len(names) != 2 || names[0] != "a_total" || names[1] != "b_total" {
		t.Fatalf("VisitCounters order = %v, want sorted", names)
	}
	r.VisitGauges(func(name string, v int64) {
		if name != "depth" || v != 7 {
			t.Fatalf("gauge %s = %d", name, v)
		}
	})
	r.VisitHistograms(func(name string, s HistSnapshot) {
		if name != "lat_ns" || s.Count() != 1 {
			t.Fatalf("histogram %s count = %d", name, s.Count())
		}
	})
}
