package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
)

// spanRecordLen is the size of one dumped span: start(8) dur(4) wait(4)
// refine(4) critical(4) conflicts(2) epochs(1) kind(1), little-endian.
const spanRecordLen = 28

// dumpSpans writes the spans the recorder kept in memory during the
// run to <dir>/<workload>.spans.bin, after all timing is over. One fixed-width
// record per op: the parent span is the workload, the op span is the
// bench's clock around the public call, and wait/refine/critical are
// the child costs the call itself returned.
func dumpSpans(cfg *runConfig, spans []span) (err error) {
	f, err := os.Create(filepath.Join(cfg.dir, cfg.workload+".spans.bin"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [spanRecordLen]byte
	for i := range spans {
		sp := &spans[i]
		binary.LittleEndian.PutUint64(rec[0:], uint64(sp.start))
		binary.LittleEndian.PutUint32(rec[8:], sp.dur)
		binary.LittleEndian.PutUint32(rec[12:], sp.wait)
		binary.LittleEndian.PutUint32(rec[16:], sp.refine)
		binary.LittleEndian.PutUint32(rec[20:], sp.critical)
		binary.LittleEndian.PutUint16(rec[24:], sp.conflicts)
		rec[26] = sp.epochs
		rec[27] = byte(sp.kind)
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}
