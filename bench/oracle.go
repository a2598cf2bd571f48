package main

import (
	"fmt"
	"slices"
	"sort"

	"adaptix"
	"adaptix/internal/workload"
)

// oracle is the reference every answer is checked against: a sorted
// copy of the multiset plus prefix sums. It shares no code with the
// index under test.
type oracle struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum of sorted[:i]
}

func newOracle(values []int64) *oracle {
	s := slices.Clone(values)
	slices.Sort(s)
	p := make([]int64, len(s)+1)
	for i, v := range s {
		p[i+1] = p[i] + v
	}
	return &oracle{sorted: s, prefix: p}
}

func (o *oracle) span(lo, hi int64) (i, j int) {
	i = sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j = sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= hi })
	return i, max(i, j)
}

func (o *oracle) count(lo, hi int64) int64 {
	i, j := o.span(lo, hi)
	return int64(j - i)
}

func (o *oracle) sum(lo, hi int64) int64 {
	i, j := o.span(lo, hi)
	return o.prefix[j] - o.prefix[i]
}

func (o *oracle) answer(q workload.Query) int64 {
	if q.Kind == workload.Sum {
		return o.sum(q.Lo, q.Hi)
	}
	return o.count(q.Lo, q.Hi)
}

// answers precomputes the reference answer of each pool query.
func (o *oracle) answers(pool []workload.Query) []int64 {
	want := make([]int64, len(pool))
	for i, q := range pool {
		want[i] = o.answer(q)
	}
	return want
}

// verifyLogs checks every recorded answer against want(c, i) after the
// timed phase, so the check's cost stays out of the timing. Ops that
// returned an error are already counted as failed and are skipped.
func verifyLogs(out *outcome, logs []*clientLog, want func(c, i int) int64) {
	var wrong int64
	var first string
	for c, lg := range logs {
		for i, got := range lg.ans {
			if got == errAnswer {
				continue
			}
			if w := want(c, i); got != w {
				if wrong == 0 {
					first = fmt.Sprintf("client %d op %d: got %d want %d", c, i, got, w)
				}
				wrong++
			}
		}
	}
	out.failWrong(wrong, "%d wrong answers, first at %s", wrong, first)
}

// verifyFinal checks the quiesced index against the expected final
// multiset: whole-domain Count and Sum, 64 seeded random ranges of
// each, and the structural invariants. Every mismatch is one failed
// op.
func verifyFinal(out *outcome, ix *adaptix.Index, final *oracle, domain int64, seed uint64) {
	rng := workload.NewRNG(seed ^ 0x5eed0fac1e)
	ranges := []workload.Query{{Lo: -1 << 62, Hi: 1 << 62}}
	for range 64 {
		lo := rng.Int64n(domain)
		ranges = append(ranges, workload.Query{Lo: lo, Hi: lo + 1 + rng.Int64n(domain-lo)})
	}
	var wrong int64
	for _, r := range ranges {
		for _, kind := range []workload.QueryKind{workload.Count, workload.Sum} {
			q := workload.Query{Kind: kind, Lo: r.Lo, Hi: r.Hi}
			out.attempted++
			res, err := runQuery(ix, q)
			if err != nil {
				out.failed++
				out.note("final check %v[%d,%d): %v", kind, q.Lo, q.Hi, err)
			} else if w := final.answer(q); res.Value != w {
				wrong++
				out.note("final check %v[%d,%d): got %d want %d", kind, q.Lo, q.Hi, res.Value, w)
			}
		}
	}
	out.failWrong(wrong, "%d final-multiset checks disagree with the oracle", wrong)
	if err := ix.Validate(); err != nil {
		out.failWrong(1, "Validate: %v", err)
	}
}
