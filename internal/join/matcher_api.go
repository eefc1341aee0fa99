package join

import (
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
)

// Matcher exposes the in-memory matching kernel — the same machinery
// the partition and nested-loop algorithms match resident batches with
// — to other packages. The incremental view (internal/incremental)
// probes its delta tuples and partition pages through it, so delta
// folds share the plane sweep, the key-hash index and the adaptive
// cost guard instead of re-implementing an all-pairs loop.
//
// A Matcher holds a fixed outer batch of left-side tuples (replaceable
// with Reset, which reuses the index allocations) and joins inner
// batches of right-side tuples against it. Emitted tuples are freshly
// combined per pair and safe to retain.
type Matcher struct {
	m *matcher
}

// NewMatcher builds a matcher for the plan's left side over outer,
// validating the predicate (zero value: intersects). The Kernel
// argument is ignored; it stays so the perfbench module compiles.
func NewMatcher(plan *schema.JoinPlan, pred Predicate, _ Kernel, outer []tuple.Tuple) (*Matcher, error) {
	p, err := normalizePredicate(pred)
	if err != nil {
		return nil, err
	}
	return &Matcher{m: newPredMatcher(plan, p, outer)}, nil
}

// Reset rebuilds the matcher over a new outer batch, reusing the hash
// buckets and index slices of previous batches.
func (mt *Matcher) Reset(outer []tuple.Tuple) { mt.m.reset(outer) }

// ProbeBatch joins a batch of inner (right-side) tuples against the
// outer batch, emitting every combined result tuple. The batch is
// plane-swept when the cost guard deems it worthwhile; otherwise
// tuples probe the hash index one by one. Both emit exactly
// the same pairs, possibly in a different order.
func (mt *Matcher) ProbeBatch(ys []tuple.Tuple, emit func(z tuple.Tuple) error) error {
	return mt.m.probeBatch(ys, func(_ int32, z tuple.Tuple) error { return emit(z) })
}

// Probe joins a single inner tuple against the outer batch.
func (mt *Matcher) Probe(y tuple.Tuple, emit func(z tuple.Tuple) error) error {
	return mt.m.probe(y, emit)
}

// KernelDecisions returns how many inner batches the plane sweep
// handled versus per-tuple probing over the matcher's lifetime — the
// observable trace of the adaptive cost guard.
func (mt *Matcher) KernelDecisions() (sweep, perTuple int64) {
	return mt.m.sweepBatches, mt.m.probeBatches
}
