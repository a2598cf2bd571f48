// The streaming workload characterizer's readout: the live signature
// of the query/write stream the recorder has sampled, cheap enough to
// serve on every Stats() call and stable enough to pin in a
// golden-schema test (/workload).
package wcapture

// Signature is the live workload signature: what kind of stream the
// index is facing, computed incrementally from the sampled records. A
// disabled recorder serves the schema-complete zero value.
type Signature struct {
	// Enabled reports whether capture is active (WithWorkloadCapture).
	Enabled bool `json:"enabled"`
	// Captured is the number of records captured (sampled in), reads
	// plus writes.
	Captured int64 `json:"captured"`
	// Dropped is the number of captured records lost to ring overflow
	// before the sink drained them (0 without a sink).
	Dropped int64 `json:"dropped"`
	// Reads and Writes split Captured by operation class.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// WriteFrac is Writes/Captured (0 before any capture).
	WriteFrac float64 `json:"write_frac"`
	// WidthP50 and WidthP99 are quantiles of the read predicate width
	// hi-lo in key units.
	WidthP50 int64 `json:"width_p50"`
	WidthP99 int64 `json:"width_p99"`
	// SelectivityP50 and SelectivityP99 are the width quantiles as a
	// fraction of the key domain (0 until SetDomain, i.e. on an index
	// created empty).
	SelectivityP50 float64 `json:"selectivity_p50"`
	SelectivityP99 float64 `json:"selectivity_p99"`
	// KeyJumpP50 and KeyJumpP99 are quantiles of the key-space
	// distance between consecutive reads' midpoints: small jumps mean
	// a focused scan, large ones a roaming workload.
	KeyJumpP50 int64 `json:"key_jump_p50"`
	KeyJumpP99 int64 `json:"key_jump_p99"`
	// Locality is the fraction of consecutive read pairs whose
	// midpoint jump stays within 1/64 of the key domain (0 until
	// SetDomain).
	Locality float64 `json:"locality"`
	// SeqScore is the sequentiality score: the fraction of consecutive
	// read pairs whose lower bound lands within one predicate width of
	// the previous read's upper bound. A sequential range sweep scores
	// near 1; uniform random scores near 0. (The sweep is the worst
	// case of cracking at the query bounds alone, and the reason every
	// crack of a large piece also cuts it at sampled quantiles: a high
	// score describes the workload, it does not call for a change of
	// policy.)
	SeqScore float64 `json:"seq_score"`
}

// Signature returns the live workload signature. Nil-safe: a nil or
// disabled recorder returns the zero value (Enabled false), so
// Stats().Workload and the /workload route are always schema-complete.
func (r *Recorder) Signature() Signature {
	if r == nil {
		return Signature{}
	}
	sig := Signature{
		Enabled: r.enabled.Load() || r.ring != nil,
		Reads:   r.reads.Load(),
		Writes:  r.writes.Load(),
		Dropped: r.dropped.Load(),
	}
	sig.Captured = sig.Reads + sig.Writes
	if sig.Captured > 0 {
		sig.WriteFrac = float64(sig.Writes) / float64(sig.Captured)
	}
	ws := r.widthH.Snapshot()
	sig.WidthP50 = ws.Quantile(0.50)
	sig.WidthP99 = ws.Quantile(0.99)
	if dw := r.domainW.Load(); dw > 0 && sig.Reads > 0 {
		sig.SelectivityP50 = float64(sig.WidthP50) / float64(dw)
		sig.SelectivityP99 = float64(sig.WidthP99) / float64(dw)
	}
	js := r.jumpH.Snapshot()
	sig.KeyJumpP50 = js.Quantile(0.50)
	sig.KeyJumpP99 = js.Quantile(0.99)
	if pairs := r.pairs.Load(); pairs > 0 {
		sig.SeqScore = float64(r.seqHits.Load()) / float64(pairs)
		if r.domainW.Load() > 0 {
			sig.Locality = float64(r.localHits.Load()) / float64(pairs)
		}
	}
	return sig
}
