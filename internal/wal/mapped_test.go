package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestFileSinkPreallocatesAndTrims: the open segment is preallocated at
// SegmentBytes, a retired one is trimmed to its frames, and a segment
// whose sink never closed — a crashed incarnation's last — keeps a
// zero tail that reads as its clean end, also when newer segments
// follow it.
func TestFileSinkPreallocatesAndTrims(t *testing.T) {
	const frame = frameHeaderSize + recordFixed + len("col") + recordTrailer
	const segBytes = 16 * frame
	dir := t.TempDir()
	size := func(seg int) int {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, segmentName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	s1, err := NewFileSink(dir, SinkOptions{SegmentBytes: int64(segBytes), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, New(s1), 7, "col") // 21 records: segment 1 full, 5 in segment 2
	if got := size(1); got != 16*frame {
		t.Fatalf("rotated segment is %d bytes, want its 16 frames (%d)", got, 16*frame)
	}
	if got := size(2); got != segBytes {
		t.Fatalf("open segment is %d bytes, want it preallocated at %d", got, segBytes)
	}
	// s1 crashes: it never closes, and a second incarnation appends.
	s2, err := NewFileSink(dir, SinkOptions{SegmentBytes: int64(segBytes), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, New(s2), 1, "col")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := size(3); got != 3*frame {
		t.Fatalf("closed segment is %d bytes, want its 3 frames (%d)", got, 3*frame)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if p, intact := deframe(nil, raw); !intact || frameBytes(p) != 5*frame {
		t.Fatalf("crashed segment: intact %v, %d frame bytes; want its 5 records and a clean end", intact, frameBytes(p))
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Replay(img, func(Record) {}); err != nil || n != 24 {
		t.Fatalf("replayed %d records (%v), want 24 across both incarnations", n, err)
	}
	s1.Close()
}

// TestFileSinkOversizedRecord: a record larger than SegmentBytes gets a
// segment sized to hold it, and the records around it read back.
func TestFileSinkOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, SinkOptions{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New(s)
	big := Record{Kind: LogicalWrite, Object: string(bytes.Repeat([]byte{'x'}, 300)), A: 2}
	for _, r := range []Record{{Kind: LogicalWrite, Object: "col", A: 1}, big, {Kind: LogicalWrite, Object: "col", A: 3}} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	if _, err := Replay(img, func(r Record) { got = append(got, r.A) }); err != nil || len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("read back %v (%v), want the records 1, 2, 3", got, err)
	}
}

// killChildEnv names the log directory of the child process of
// TestKillLosesNoAcknowledgedRecord, and killModeEnv how it logs
// ("append" or "logwrite"); both are set only in the child.
const (
	killChildEnv = "WAL_KILL_CHILD_DIR"
	killModeEnv  = "WAL_KILL_CHILD_MODE"
)

// TestKillLosesNoAcknowledgedRecord re-runs the test binary as a child
// that logs records through a file sink — Records through Log.Append,
// or compact writes through LogWrite, the product's path — and prints
// each record's sequence number once its call has returned, then
// SIGKILLs it mid-stream. Every record the child acknowledged must read
// back, in order, and the newest segment must end cleanly: whole
// frames, then nothing but zeros.
func TestKillLosesNoAcknowledgedRecord(t *testing.T) {
	if dir := os.Getenv(killChildEnv); dir != "" {
		killChild(dir, os.Getenv(killModeEnv))
	}
	for _, mode := range []string{"append", "logwrite"} {
		t.Run(mode, func(t *testing.T) { killAndReadBack(t, mode) })
	}
}

// killAndReadBack runs one child that logs in mode, kills it, and
// checks what its directory holds.
func killAndReadBack(t *testing.T, mode string) {
	const kill = 3000
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillLosesNoAcknowledgedRecord$")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir, killModeEnv+"="+mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var acked int64
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		seq, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil || seq != acked+1 {
			cmd.Process.Kill()
			t.Fatalf("child printed %q after %d acknowledgements", sc.Text(), acked)
		}
		if acked = seq; acked == kill {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd.Wait()
	if acked < kill {
		t.Fatalf("child stopped after %d acknowledged records, before the kill", acked)
	}

	img, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if _, err := Replay(img, func(r Record) {
		if got++; r.A != got || mode == "logwrite" && (r.B != got || r.C != got&1) {
			t.Fatalf("record %d holds sequence %d, epoch %d, op %d", got, r.A, r.B, r.C)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got < acked {
		t.Fatalf("read back %d records, want every one of the %d acknowledged", got, acked)
	}
	segs, err := segmentIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}
	last, err := os.ReadFile(filepath.Join(dir, segmentName(segs[len(segs)-1])))
	if err != nil {
		t.Fatal(err)
	}
	p, intact := deframe(nil, last)
	end := frameBytes(p)
	if !intact || !bytes.Equal(last[end:], make([]byte, len(last)-end)) {
		t.Fatalf("newest segment: intact %v, %d bytes after its %d frame bytes not all zero", intact, len(last)-end, end)
	}
}

// killChild is the child of TestKillLosesNoAcknowledgedRecord: it logs
// records with sequence numbers 1, 2, ... into dir — as Records, or as
// compact writes of value and epoch seq, a delete when seq is odd —
// printing each one acknowledged, until it is killed.
func killChild(dir, mode string) {
	s, err := NewFileSink(dir, SinkOptions{SegmentBytes: 4 << 10, NoSync: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	l := New(s)
	for seq := int64(1); seq < 1<<24; seq++ {
		if mode == "logwrite" {
			err = s.LogWrite(seq, seq, seq&1 == 1)
		} else {
			_, err = l.Append(Record{Kind: LogicalWrite, Object: "kill", A: seq})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(seq)
	}
	os.Exit(0)
}

// FuzzDeframe checks the frame reader: arbitrary bytes never panic it;
// frames followed by a zero tail of any length read as the frames
// alone, intact; and one corrupted byte stops reading at the frame it
// hit — cleanly if it zeroed that frame's length word.
func FuzzDeframe(f *testing.F) {
	f.Add([]byte{3, 'a', 'b', 'c', 0, 'd'}, uint16(0), uint16(2), byte(0x01))
	f.Add([]byte{}, uint16(9), uint16(0), byte(0xff))
	f.Add([]byte{1, 7, 1, 8, 1, 9}, uint16(3), uint16(9), byte(0x02))
	f.Fuzz(func(t *testing.T, data []byte, tail, at uint16, flip byte) {
		if p, _ := deframe(nil, data[:len(data):len(data)]); len(p) > len(data) {
			t.Fatalf("%d image bytes out of %d input bytes", len(p), len(data))
		}

		// data read as payloads: a length byte (mod 16, plus one), then
		// that many bytes.
		var payloads [][]byte
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0])%16+1, len(rest)-1)
			if n == 0 {
				break
			}
			payloads = append(payloads, rest[1:1+n])
			rest = rest[1+n:]
		}
		var frames, want []byte
		var starts, ends []int // each frame's offset, and its entry's end in want
		for _, p := range payloads {
			starts = append(starts, len(frames))
			frames = append(frames, make([]byte, frameHeaderSize+len(p))...)
			putFrame(frames[starts[len(starts)-1]:], p)
			want = appendEntry(want, false, p)
			ends = append(ends, len(want))
		}
		for _, raw := range [][]byte{frames, append(bytes.Clone(frames), make([]byte, tail)...)} {
			if got, intact := deframe(nil, raw); !intact || !bytes.Equal(got, want) {
				t.Fatalf("%d frames + %d zero bytes: intact %v, %d image bytes; want %d, intact",
					len(payloads), len(raw)-len(frames), intact, len(got), len(want))
			}
		}

		if len(frames) == 0 || flip == 0 {
			return
		}
		i := int(at) % len(frames)
		k := len(starts) - 1
		for starts[k] > i {
			k--
		}
		bad := bytes.Clone(frames)
		bad[i] ^= flip
		h := bad[starts[k]:]
		n := int(binary.LittleEndian.Uint32(h))
		if n != 0 && frameHeaderSize+n <= len(h) &&
			crc32.ChecksumIEEE(h[frameHeaderSize:frameHeaderSize+n]) == binary.LittleEndian.Uint32(h[4:]) {
			t.Skip("the damaged length frames another payload with a matching CRC")
		}
		wantP := want[:append([]int{0}, ends...)[k]]
		if got, intact := deframe(nil, bad); intact != (n == 0) || !bytes.Equal(got, wantP) {
			t.Fatalf("byte %d of frame %d flipped: intact %v, %d image bytes; want %d, intact %v",
				i, k, intact, len(got), len(wantP), n == 0)
		}
	})
}
