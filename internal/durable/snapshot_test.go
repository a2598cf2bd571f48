package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"adaptix/internal/crackindex"
	"adaptix/internal/shard"
	"adaptix/internal/workload"
)

// snapshotBytes encodes img exactly as writeSnapshot writes it.
func snapshotBytes(t testing.TB, img shard.Image) []byte {
	var buf bytes.Buffer
	w := snapWriter{w: bufio.NewWriter(&buf)}
	w.encode(img)
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withCRC returns data with its last four bytes replaced by the CRC of
// the rest, so a mutation reaches the checks behind the checksum.
func withCRC(data []byte) []byte {
	out := bytes.Clone(data)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// sampleImage is a small column, refined by a few queries and holding
// pending writes, captured the way a checkpoint captures it.
func sampleImage(rows int) shard.Image {
	d := workload.NewUniqueUniform(rows, 3)
	c := shard.New(d.Values, shard.Options{Shards: 3, Seed: 2,
		Index: crackindex.Options{Latching: crackindex.LatchPiece}})
	for i := int64(0); i < 8; i++ {
		c.Count(qctx, i*d.Domain/8, i*d.Domain/8+d.Domain/20)
		c.Insert(qctx, d.Domain+i)
	}
	return c.ImageAt(c.SealAllEpochs())
}

func TestSnapshotRoundTrip(t *testing.T) {
	img := sampleImage(1 << 14)
	dir := t.TempDir()
	if err := writeSnapshot(dir, img, false); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("readSnapshot: %v %v", ok, err)
	}
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, img)) {
		t.Fatal("snapshot changed in a write/read round trip")
	}
	if err := shard.Restore(got, shard.Options{}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRejectsOldFormat(t *testing.T) {
	dir := t.TempDir()
	old := append([]byte("ADXSNAP1"), make([]byte, 12)...)
	if err := os.WriteFile(filepath.Join(dir, "base.snap"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions(nil)); !errors.Is(err, ErrOldSnapshot) {
		t.Fatalf("Open on an ADXSNAP1 store: %v, want ErrOldSnapshot", err)
	}
}

// FuzzSnapshotReader feeds the snapshot reader valid files, truncations
// and bit flips — with the checksum left wrong, or recomputed so the
// damage reaches the structural checks. The reader must never panic or
// allocate past what the input holds; whatever it accepts must encode
// back to the same bytes and restore without panicking.
func FuzzSnapshotReader(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new
	// coverage, and a long one would eat the whole fuzzing budget.
	valid := snapshotBytes(f, sampleImage(64))
	f.Add(valid, false)
	f.Add(snapshotBytes(f, shard.Image{Shards: []shard.ShardImage{{}}}), false)
	for _, n := range []int{0, 7, 8, 16, 24, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		f.Add(valid[:n], false)
	}
	for _, i := range []int{8, 16, 24, 40, len(valid) / 2, len(valid) - 30, len(valid) - 1} {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0x40
		f.Add(flipped, false)
		f.Add(flipped, true)
	}
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[16:], 1<<40) // declared shard count
	f.Add(huge, true)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			data = withCRC(data)
		}
		img, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if !bytes.Equal(snapshotBytes(t, img), data) {
			t.Fatal("an accepted snapshot does not encode back to its bytes")
		}
		c := shard.Restore(img, shard.Options{Index: crackindex.Options{Latching: crackindex.LatchPiece}})
		_ = c.Validate() // damaged values may break an invariant, never the process
	})
}
