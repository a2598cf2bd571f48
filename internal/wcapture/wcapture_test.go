// Unit tests of the capture core: record codec, ring-overflow drop
// accounting with the edge-triggered flight event, sink rotation,
// sampling, the streaming signature's pattern discrimination, and the
// replayer's verification and pacing.
package wcapture

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"adaptix/internal/metrics"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: RecCount, Method: 2, Epochs: 7, Tag: 0xdeadbeef, T: 1234567, Lo: -5, Hi: 1 << 40, Result: -99, Touched: 42},
		{Kind: RecSum, T: -1, Lo: -(1 << 60), Hi: 1 << 60, Result: 1 << 62},
		{Kind: RecInsert, Method: 255, Epochs: 0xffff, Lo: 77},
		{Kind: RecDelete, Lo: 3, Result: 1},
	}
	var buf [recordSize]byte
	for i, want := range recs {
		want.encode(&buf)
		if got := decodeRecord(buf[:]); got != want {
			t.Fatalf("record %d: decode = %+v, want %+v", i, got, want)
		}
	}
}

func TestDisabledRecorderIsInert(t *testing.T) {
	r, err := New(Options{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Active() {
		t.Fatal("disabled recorder reports Active")
	}
	r.RecordRead("tag", false, 1, 2, 3, 4, 5)
	r.RecordWrite(9, true, true)
	if got := r.Retained(); got != nil {
		t.Fatalf("disabled Retained = %v, want nil", got)
	}
	if sig := r.Signature(); sig != (Signature{}) {
		t.Fatalf("disabled Signature = %+v, want zero", sig)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var nilRec *Recorder
	nilRec.RecordRead("", true, 0, 1, 0, 0, 0) // nil-safety
	nilRec.RecordWrite(0, false, false)
	if nilRec.Active() || nilRec.Signature() != (Signature{}) || nilRec.Close() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestSamplingAndRetention(t *testing.T) {
	r, err := New(Options{SampleEvery: 4, Ring: 64}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := int64(0); i < 400; i++ {
		r.RecordRead("", false, i, i+10, 1, 0, 0)
	}
	sig := r.Signature()
	if sig.Reads != 100 {
		t.Fatalf("SampleEvery 4 captured %d of 400 reads, want 100", sig.Reads)
	}
	got := r.Retained()
	if len(got) != 64 {
		t.Fatalf("retention holds %d records, want ring capacity 64", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Lo <= got[i-1].Lo {
			t.Fatalf("retention out of order at %d: %d after %d", i, got[i].Lo, got[i-1].Lo)
		}
	}
}

// TestRingOverflowDropAccounting pushes far more records than a tiny
// ring can hold between two drain passes, twice: every record must be
// accounted — persisted or counted dropped — and each loss burst must
// leave exactly one edge-triggered flight event, however many records
// it lost. The test drains, not the ticker: with the ticker, how many
// passes a burst spans (each re-arming and re-firing the trigger)
// depends on how fast the loop runs, which -race slows.
func TestRingOverflowDropAccounting(t *testing.T) {
	defer func(d time.Duration) { drainInterval = d }(drainInterval)
	drainInterval = time.Hour
	ob := metrics.NewObserver(metrics.ObserverOptions{})
	path := filepath.Join(t.TempDir(), "t.trace")
	r, err := New(Options{Ring: 64, Sink: path}, true, ob)
	if err != nil {
		t.Fatal(err)
	}
	const burst, calm = 10000, 10
	push := func(n int) {
		for i := int64(0); i < int64(n); i++ {
			r.RecordRead("", false, i, i+1, 0, 0, 0)
		}
	}
	drops := func() (n int) {
		for _, ev := range ob.Flight().Dump() {
			if ev.Kind == metrics.EvCaptureDrop {
				n++
				if ev.A <= 0 || ev.B <= 0 {
					t.Fatalf("drop event payload %+v, want positive burst and total counts", ev)
				}
			}
		}
		return n
	}
	push(burst)
	r.drain() // the drainer goroutine never ticks: the test owns the sink
	if got := drops(); got != 1 || r.Dropped() == 0 {
		t.Fatalf("first burst: %d capture-drop events for %d lost records, want 1", got, r.Dropped())
	}
	push(calm)
	r.drain() // a clean pass re-arms the trigger
	if got := drops(); got != 1 {
		t.Fatalf("a clean pass raised %d capture-drop events, want none beyond the first", got-1)
	}
	push(burst)
	if err := r.Close(); err != nil { // its final pass drains the second burst
		t.Fatal(err)
	}
	if got := drops(); got != 2 {
		t.Fatalf("%d capture-drop events for two loss bursts (%d lost records), want 2", got, r.Dropped())
	}
	recs, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(recs)) + r.Dropped(); got != 2*burst+calm {
		t.Fatalf("persisted %d + dropped %d = %d, want every record accounted (%d)",
			len(recs), r.Dropped(), got, 2*burst+calm)
	}
}

// TestTraceRotation pins the size-rotation policy: one rotated
// predecessor is retained, so ReadTrace returns the newest records
// spanning the rotation boundary and disk stays bounded near twice
// MaxBytes.
func TestTraceRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	// Room for exactly 10 records per file.
	r, err := New(Options{Ring: 1024, Sink: path, MaxBytes: headerSize + 10*recordSize}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 25; i++ {
		r.RecordRead("", false, i, i+1, 0, 0, 0)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	// 25 records, rotations after 10 and 20: the first file's records
	// 0..9 were displaced by the second rotation; 10..24 survive.
	if len(recs) != 15 {
		t.Fatalf("ReadTrace returned %d records, want 15 (newest full rotation + current)", len(recs))
	}
	for i, rec := range recs {
		if rec.Lo != int64(10+i) {
			t.Fatalf("record %d Lo = %d, want %d (oldest-first across the rotation)", i, rec.Lo, 10+i)
		}
	}
	fi, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	if fi.Size() != headerSize+10*recordSize {
		t.Fatalf("rotated file size %d, want %d", fi.Size(), headerSize+10*recordSize)
	}
}

// TestSignatureDiscriminatesPatterns feeds the characterizer a
// sequential sweep and a pseudo-random roam: the sequentiality score
// must separate them decisively.
func TestSignatureDiscriminatesPatterns(t *testing.T) {
	seq, err := New(Options{Ring: 64}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	seq.SetDomain(0, 1<<20)
	for i := int64(0); i < 500; i++ {
		lo := i * 1000
		seq.RecordRead("", false, lo, lo+1000, 0, 0, 0)
	}
	if sig := seq.Signature(); sig.SeqScore < 0.95 || sig.Locality < 0.95 {
		t.Fatalf("sequential sweep: seq_score=%v locality=%v, want both near 1", sig.SeqScore, sig.Locality)
	}

	rnd, err := New(Options{Ring: 64}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rnd.Close()
	rnd.SetDomain(0, 1<<20)
	state := uint64(7)
	for i := 0; i < 500; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		lo := int64(state>>40) % (1 << 20)
		rnd.RecordRead("", false, lo, lo+1000, 0, 0, 0)
	}
	if sig := rnd.Signature(); sig.SeqScore > 0.2 {
		t.Fatalf("random roam: seq_score=%v, want near 0", sig.SeqScore)
	}
	if sig := rnd.Signature(); sig.SelectivityP50 <= 0 || sig.SelectivityP50 > 0.01 {
		t.Fatalf("random roam: selectivity_p50=%v, want ~1000/2^20", sig.SelectivityP50)
	}
}

// sliceTarget is a naive reference engine for replay tests.
type sliceTarget struct{ vals []int64 }

func (s *sliceTarget) Count(_ context.Context, lo, hi int64) (int64, error) {
	var n int64
	for _, v := range s.vals {
		if v >= lo && v < hi {
			n++
		}
	}
	return n, nil
}

func (s *sliceTarget) Sum(_ context.Context, lo, hi int64) (int64, error) {
	var n int64
	for _, v := range s.vals {
		if v >= lo && v < hi {
			n += v
		}
	}
	return n, nil
}

func (s *sliceTarget) Insert(_ context.Context, v int64) error {
	s.vals = append(s.vals, v)
	return nil
}

func (s *sliceTarget) Delete(_ context.Context, v int64) (bool, error) {
	for i, x := range s.vals {
		if x == v {
			s.vals = append(s.vals[:i], s.vals[i+1:]...)
			return true, nil
		}
	}
	return false, nil
}

func refValues(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	return vals
}

func TestReplayVerify(t *testing.T) {
	// Build a trace by executing ops against the reference engine and
	// recording its own answers as checksums.
	src := &sliceTarget{vals: refValues(500)}
	ctx := context.Background()
	var recs []Record
	for i := int64(0); i < 60; i++ {
		lo := (i * 37) % 1400
		switch i % 4 {
		case 0:
			n, _ := src.Count(ctx, lo, lo+100)
			recs = append(recs, Record{Kind: RecCount, Lo: lo, Hi: lo + 100, Result: n})
		case 1:
			n, _ := src.Sum(ctx, lo, lo+100)
			recs = append(recs, Record{Kind: RecSum, Lo: lo, Hi: lo + 100, Result: n})
		case 2:
			src.Insert(ctx, 5000+i)
			recs = append(recs, Record{Kind: RecInsert, Lo: 5000 + i})
		default:
			found, _ := src.Delete(ctx, lo)
			var res int64
			if found {
				res = 1
			}
			recs = append(recs, Record{Kind: RecDelete, Lo: lo, Result: res})
		}
	}

	rep, err := Replay(ctx, recs, &sliceTarget{vals: refValues(500)}, ReplayOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(recs) || rep.Mismatches != 0 {
		t.Fatalf("clean replay: %+v", rep)
	}
	if rep.Reads+rep.Writes != rep.Records {
		t.Fatalf("read/write split %d+%d != %d", rep.Reads, rep.Writes, rep.Records)
	}

	// Corrupt one read checksum: exactly one mismatch, pinned in First.
	bad := append([]Record(nil), recs...)
	bad[8].Result += 3
	rep, err = Replay(ctx, bad, &sliceTarget{vals: refValues(500)}, ReplayOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 1 || rep.First == nil || rep.First.Index != 8 {
		t.Fatalf("corrupted replay: %+v (first %+v)", rep, rep.First)
	}
}

func TestReplayPacing(t *testing.T) {
	// Three records 30ms apart in capture time.
	recs := []Record{
		{Kind: RecCount, T: 0, Lo: 0, Hi: 1},
		{Kind: RecCount, T: 30e6, Lo: 0, Hi: 1},
		{Kind: RecCount, T: 60e6, Lo: 0, Hi: 1},
	}
	tgt := &sliceTarget{}
	start := time.Now()
	if _, err := Replay(context.Background(), recs, tgt, ReplayOptions{Pace: 1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 55*time.Millisecond {
		t.Fatalf("Pace 1 replayed 60ms of capture time in %v", d)
	}
	start = time.Now()
	if _, err := Replay(context.Background(), recs, tgt, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("unpaced replay took %v", d)
	}
	// Cancellation interrupts a paced sleep promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := Replay(ctx, recs, tgt, ReplayOptions{Pace: 0.01}); err == nil {
		t.Fatal("cancelled paced replay returned nil error")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cancellation took %v to interrupt the pacing sleep", d)
	}
}

// TestTruncatedTailTolerated chops a trace mid-record: the reader must
// return every complete record and drop the torn tail.
func TestTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	r, err := New(Options{Ring: 64, Sink: path}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		r.RecordRead("", false, i, i+1, 0, 0, 0)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerSize+3*recordSize+17); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("truncated trace returned %d records, want 3", len(recs))
	}
	lows := []int{int(recs[0].Lo), int(recs[1].Lo), int(recs[2].Lo)}
	if !sort.IntsAreSorted(lows) {
		t.Fatalf("records out of order: %v", lows)
	}
}
