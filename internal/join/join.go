// Package join implements valid-time natural-join evaluation:
//
//   - Reference: the Section 2 calculus definition, evaluated literally
//     in memory (the correctness oracle for everything else);
//   - NestedLoop: block nested-loop over paged relations, with the
//     closed-form cost model the paper used analytically;
//   - SortMerge: external sort on valid-time start followed by a merge
//     with "backing up" over long-lived tuples;
//   - Partition: the paper's contribution — the valid-time partition
//     join of Section 3 with sampling-based interval selection, Grace
//     partitioning into last-overlap partitions, and backward tuple-
//     cache migration (Figure 9 / Appendix A.1).
//
// All disk-based algorithms take their inputs on the same simulated
// device, stay within an explicit page budget, share one Config, and
// report per-phase I/O through cost.Report. Run chooses among them.
package join

import (
	"fmt"
	"sort"

	"vtjoin/internal/chronon"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Predicate is a valid-time join predicate: a set of Allen relations
// that must hold between the outer and inner timestamps. The zero
// value means chronon.MaskIntersects — the natural join's "overlapping
// intervals" condition. Every supported predicate must imply interval
// intersection (chronon.Mask.ImpliesIntersection): the partition and
// merge frameworks rely on matching pairs co-existing in a partition
// or merge window, and the result timestamp overlap(x[V], y[V]) is
// only defined for intersecting pairs.
type Predicate = chronon.Mask

// normalizePredicate applies the zero-value default and validates.
func normalizePredicate(p Predicate) (Predicate, error) {
	if p == 0 {
		return chronon.MaskIntersects, nil
	}
	if !p.ImpliesIntersection() {
		return 0, fmt.Errorf("join: predicate %v matches disjoint intervals; only intersection-implying predicates are supported", p)
	}
	return p, nil
}

// Kernel is kept for the perfbench module, which passes KernelSweep to
// NewMatcher. There is one matching kernel; NewMatcher ignores the
// argument.
type Kernel uint8

// KernelSweep is the only Kernel value.
const KernelSweep Kernel = 1

// matcher joins a fixed batch of outer tuples against inner tuples.
// When the join has explicit attributes it hash-indexes the outer
// batch by join key; a degenerate pure time-join (no shared
// attributes) instead orders the batch by start time. Inner tuples
// arrive either one at a time (probeIdx, the hash path) or as a batch
// (probeBatch, which endpoint-sorts the batch and joins it by plane
// sweep unless the cost guard sends it to per-tuple probing).
type matcher struct {
	plan  *schema.JoinPlan
	pred  Predicate // non-zero, intersection-implying
	outer []tuple.Tuple
	// byKey indexes outer positions by join-key hash (non-empty key);
	// keys counts its non-empty buckets (distinct key hashes of the
	// current outer batch).
	byKey map[uint64][]int32
	keys  int
	// outerHash holds the per-position join-key hashes of the outer
	// batch (non-empty key), computed once per reset and reused by
	// both routes instead of re-hashing per probe.
	outerHash []uint64
	// byStart orders outer positions by V.Start (pure time-join, and
	// the sweep's outer event sequence). For keyed matchers it
	// is built lazily on the first batch the sweep accepts, so batches
	// the cost guard routes to hash probing never pay the sort.
	byStart      []int32
	byStartStale bool
	sorter       startSorter // reusable, allocation-free index sorter
	sw           sweepScratch
	// sweepBatches / probeBatches count probeBatch's kernel decisions
	// over the matcher's lifetime (across resets): batches handled by
	// the plane sweep vs. per-tuple hash probing. The trace layer
	// surfaces them so the sweepWorthKeyed cost guard is observable.
	sweepBatches int64
	probeBatches int64
}

func newPredMatcher(plan *schema.JoinPlan, pred Predicate, outer []tuple.Tuple) *matcher {
	m := &matcher{plan: plan, pred: pred}
	if len(plan.LeftJoinIdx) > 0 {
		m.byKey = make(map[uint64][]int32, len(outer))
		m.sw.init()
	}
	m.reset(outer)
	return m
}

// keyed reports whether the join has explicit join attributes.
func (m *matcher) keyed() bool { return m.byKey != nil }

// reset rebuilds the matcher over a new outer batch, reusing the hash
// buckets / index slices allocated by previous batches. The partition
// join rebuilds its two matchers once per partition, so the reuse keeps
// the per-partition allocation churn flat.
func (m *matcher) reset(outer []tuple.Tuple) {
	m.outer = outer
	if m.keyed() {
		// Truncate buckets in place instead of clearing the map: the
		// bucket slices (and the map's own buckets) are reused across
		// batches, so steady-state resets allocate almost nothing.
		for k := range m.byKey {
			m.byKey[k] = m.byKey[k][:0]
		}
		m.outerHash = m.outerHash[:0]
		m.keys = 0
		for i, x := range outer {
			h := tuple.HashAt(x, m.plan.LeftJoinIdx)
			m.outerHash = append(m.outerHash, h)
			b := m.byKey[h]
			if len(b) == 0 {
				m.keys++
			}
			m.byKey[h] = append(b, int32(i))
		}
		m.byStartStale = true
		return
	}
	m.buildByStart()
}

// buildByStart (re)builds the start-ordered outer event sequence.
func (m *matcher) buildByStart() {
	m.byStart = m.byStart[:0]
	for i := range m.outer {
		m.byStart = append(m.byStart, int32(i))
	}
	m.sorter.idx, m.sorter.ts = m.byStart, m.outer
	sort.Sort(&m.sorter)
	m.sorter.ts = nil
	m.byStartStale = false
}

// startSorter orders an index slice by the start chronon of the tuples
// it points into, breaking ties by position so the order is a
// deterministic function of the batch. It implements sort.Interface on
// a pointer receiver so sorting allocates nothing.
type startSorter struct {
	idx []int32
	ts  []tuple.Tuple
}

func (s *startSorter) Len() int { return len(s.idx) }
func (s *startSorter) Less(i, j int) bool {
	a, b := s.ts[s.idx[i]].V.Start, s.ts[s.idx[j]].V.Start
	if a != b {
		return a < b
	}
	return s.idx[i] < s.idx[j]
}
func (s *startSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }

// accepts applies the time predicate; the fast path skips Allen
// classification for the default intersection predicate (Combine
// re-checks intersection anyway).
func (m *matcher) accepts(x, y tuple.Tuple) bool {
	if m.pred == chronon.MaskIntersects {
		return true
	}
	return m.pred.Holds(x.V, y.V)
}

// probe joins inner tuple y against the outer batch, emitting every
// result tuple.
func (m *matcher) probe(y tuple.Tuple, emit func(tuple.Tuple) error) error {
	return m.probeIdx(y, func(_ int32, z tuple.Tuple) error { return emit(z) })
}

// probeBatch joins a batch of inner tuples (typically one page's
// worth) against the outer batch. It endpoint-sorts the batch and
// plane-sweeps it against the start-ordered outer batch, unless
// sweepWorthKeyed sends a keyed batch to per-tuple probing in batch
// order. Both routes emit exactly the pairs probeIdx would emit,
// possibly in a different order.
func (m *matcher) probeBatch(ys []tuple.Tuple, emit func(outerIdx int32, z tuple.Tuple) error) error {
	if !m.keyed() {
		m.sweepBatches++
		return m.sweepTime(ys, emit)
	}
	if m.sweepWorthKeyed(len(ys)) {
		m.sweepBatches++
		return m.sweepKeyed(ys, emit)
	}
	m.probeBatches++
	for i := range ys {
		if err := m.probeIdx(ys[i], emit); err != nil {
			return err
		}
	}
	return nil
}

// sweepWorthKeyed estimates whether a batch plane sweep beats
// per-tuple hash probing for a keyed join. The sweep walks every
// outer and inner event once: ~len(outer) + batch operations per
// batch. Hash probing walks the matching bucket per inner tuple:
// ~batch × len(outer)/keys. The sweep pays off only when the batch is
// large enough to amortize the outer event walk — roughly when the
// number of distinct keys is below the batch size. Without the guard,
// a sparse-keyed workload (where the hash probe is already O(1))
// would pay the full outer walk for every batch.
func (m *matcher) sweepWorthKeyed(batch int) bool {
	if m.keys == 0 {
		return false
	}
	return batch*len(m.outer) > (len(m.outer)+batch)*m.keys
}

// probeIdx is probe exposing which outer-batch position matched; the
// partition join's outer-coverage tracking (valid-time outer joins)
// needs it. This is the hash path: one in-place key hash per probe,
// zero allocations.
func (m *matcher) probeIdx(y tuple.Tuple, emit func(outerIdx int32, z tuple.Tuple) error) error {
	if m.byKey != nil {
		h := tuple.HashAt(y, m.plan.RightJoinIdx)
		for _, i := range m.byKey[h] {
			if !m.accepts(m.outer[i], y) {
				continue
			}
			if z, ok := tuple.Combine(m.plan, m.outer[i], y); ok {
				if err := emit(i, z); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Pure time-join: outer tuples ordered by start; every x with
	// x.Start > y.End cannot intersect y (and all predicates imply
	// intersection), so the scan stops there.
	for _, i := range m.byStart {
		x := m.outer[i]
		if x.V.Start > y.V.End {
			break
		}
		if !m.accepts(x, y) {
			continue
		}
		if z, ok := tuple.Combine(m.plan, x, y); ok {
			if err := emit(i, z); err != nil {
				return err
			}
		}
	}
	return nil
}

// PadLeft builds the outer-join padding tuple for left tuple x over
// the unmatched sub-interval iv: x's attributes in their output
// positions, nulls for the right side's non-shared columns.
func PadLeft(plan *schema.JoinPlan, x tuple.Tuple, iv chronon.Interval) tuple.Tuple {
	vals := make([]value.Value, plan.Output.Len())
	for i := range vals {
		vals[i] = value.Null()
	}
	for i, pos := range plan.LeftOut {
		vals[pos] = x.Values[i]
	}
	return tuple.Tuple{Values: vals, V: iv}
}

// Reference computes r ⋈V s by exhaustively instantiating the calculus
// definition of Section 2 over in-memory tuple slices. It is the
// correctness oracle: O(|r|·|s|) and proud of it.
func Reference(plan *schema.JoinPlan, r, s []tuple.Tuple) []tuple.Tuple {
	return ReferencePred(plan, chronon.MaskIntersects, r, s)
}

// ReferencePred is Reference under an arbitrary intersection-implying
// time predicate.
func ReferencePred(plan *schema.JoinPlan, pred Predicate, r, s []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, x := range r {
		for _, y := range s {
			if pred != chronon.MaskIntersects && !pred.Holds(x.V, y.V) {
				continue
			}
			if z, ok := tuple.Combine(plan, x, y); ok {
				out = append(out, z)
			}
		}
	}
	return out
}

// ReferenceLeftOuter is the in-memory oracle for the valid-time left
// outer join: the inner-join results plus, for every left tuple, one
// null-padded tuple per maximal sub-interval of its timestamp not
// covered by any matching right tuple (the valid-time analogue of the
// TE-outerjoin of Segev & Gunadhi).
func ReferenceLeftOuter(plan *schema.JoinPlan, pred Predicate, r, s []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, x := range r {
		cov := chronon.NewSet()
		for _, y := range s {
			if pred != chronon.MaskIntersects && !pred.Holds(x.V, y.V) {
				continue
			}
			if z, ok := tuple.Combine(plan, x, y); ok {
				out = append(out, z)
				cov = cov.Add(z.V)
			}
		}
		for _, frag := range chronon.NewSet(x.V).Subtract(cov).Intervals() {
			out = append(out, PadLeft(plan, x, frag))
		}
	}
	return out
}

// Canonicalize sorts a join result into the deterministic total order
// used to compare algorithm outputs in tests.
func Canonicalize(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// hullOf returns the minimal interval covering a batch of tuples.
func hullOf(ts []tuple.Tuple) chronon.Interval {
	h := chronon.Null()
	for _, t := range ts {
		h = chronon.Hull(h, t.V)
	}
	return h
}
