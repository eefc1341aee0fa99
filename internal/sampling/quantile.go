package sampling

import (
	"fmt"
	"slices"
	"sort"

	"vtjoin/internal/chronon"
)

// The paper's chooseIntervals (Appendix A.3) collects the multiset of
// every chronon covered by any sampled tuple, sorts it, and picks
// equi-depth positions as partitioning chronons. Materializing that
// multiset is infeasible for long-lived tuples (a single tuple may
// cover millions of chronons), so a CoverageIndex computes the same
// quantiles exactly from the sorted interval endpoints: between two
// consecutive endpoints the coverage count is constant, so the sorted
// multiset is a staircase whose ranks are walked in one linear merge
// of the start and end arrays. The endpoints are sorted once per
// sample, not once per question: determinePartIntervals asks for the
// quantiles of a growing sample at every candidate partition size.
// TestCoverageQuantilesMatchesNaive verifies equivalence against the
// literal materialization.

// maxCoverage bounds the covered-chronon multiset so that rank
// arithmetic stays inside int64.
const maxCoverage int64 = 1 << 62

var errCoverageOverflow = fmt.Errorf("sampling: coverage multiset exceeds 2^62 chronons")

// CoverageSize returns the size of the covered-chronon multiset, i.e.
// the sum of the durations of the given intervals (null intervals
// contribute nothing). It errors on overflow.
func CoverageSize(intervals []chronon.Interval) (int64, error) {
	var total int64
	for _, iv := range intervals {
		total = satAdd(total, iv.Duration())
	}
	if total > maxCoverage {
		return 0, errCoverageOverflow
	}
	return total, nil
}

// satAdd returns a+b for 0 <= a, b, saturating just past maxCoverage.
func satAdd(a, b int64) int64 {
	if b > maxCoverage+1-a {
		return maxCoverage + 1
	}
	return a + b
}

// boundOngoing clamps ongoing interval ends to the sampling horizon:
// the largest finite end or ongoing start present — a running maximum
// over both, so an ongoing tuple that starts after every finite end
// pushes the horizon to its own start. A cut chronon beyond the
// horizon cannot separate any two tuples — every ongoing tuple covers
// all of them alike — while counting the ~2^62 chronons up to the Now
// sentinel would overflow CoverageSize and push every equi-depth rank
// into empty space. Ongoing tuples are stored in the final partition
// whatever cuts are chosen, so clamping only affects where the
// boundaries land, never which partition holds a tuple. The input is
// returned unchanged when nothing is ongoing. CoverageIndex applies
// the same clamp without copying the sample.
func boundOngoing(intervals []chronon.Interval) []chronon.Interval {
	horizon := chronon.Beginning
	ongoing := 0
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		if iv.IsOngoing() {
			ongoing++
			if iv.Start > horizon {
				horizon = iv.Start
			}
		} else if iv.End > horizon {
			horizon = iv.End
		}
	}
	if ongoing == 0 {
		return intervals
	}
	out := make([]chronon.Interval, len(intervals))
	for i, iv := range intervals {
		if iv.IsOngoing() {
			iv = chronon.New(iv.Start, horizon)
		}
		out[i] = iv
	}
	return out
}

// CoverageIndex holds a sample's interval endpoints in sorted order so
// that equi-depth quantiles (Quantiles) and straddle counts
// (Straddling) are answered by a linear walk or a binary search, with
// no per-question sort. Null intervals contribute nothing. Ongoing
// intervals have their ends clamped to the sample's horizon, as
// boundOngoing does: the clamped ends are one aggregated event at
// horizon+1 rather than array entries. The zero value is an empty
// index.
type CoverageIndex struct {
	starts  []chronon.Chronon // Start of every non-null interval, sorted
	ends    []chronon.Chronon // End+1 of every finite interval, sorted
	ongoing int64             // ongoing intervals indexed
	horizon chronon.Chronon   // max over finite ends and ongoing starts
	size    int64             // clamped multiset size, saturated past maxCoverage
}

// NewCoverageIndex returns the index of the given intervals.
func NewCoverageIndex(intervals []chronon.Interval) *CoverageIndex {
	x := &CoverageIndex{}
	x.Build(intervals)
	return x
}

// Build makes x the index of the given intervals, reusing its buffers:
// one sort of the start chronons and one of the end chronons.
func (x *CoverageIndex) Build(intervals []chronon.Interval) {
	x.starts = slices.Grow(x.starts[:0], len(intervals))
	x.ends = slices.Grow(x.ends[:0], len(intervals))
	x.ongoing, x.horizon, x.size = 0, chronon.Beginning, 0
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		x.starts = append(x.starts, iv.Start)
		if iv.IsOngoing() {
			x.ongoing++
			x.horizon = max(x.horizon, iv.Start)
		} else {
			x.ends = append(x.ends, iv.End+1)
			x.horizon = max(x.horizon, iv.End)
			x.size = satAdd(x.size, iv.Duration())
		}
	}
	if x.ongoing > 0 {
		for _, iv := range intervals {
			if iv.IsOngoing() {
				x.size = satAdd(x.size, chronon.New(iv.Start, x.horizon).Duration())
			}
		}
	}
	slices.Sort(x.starts)
	slices.Sort(x.ends)
}

// Size returns the size of the covered-chronon multiset with ongoing
// ends clamped to the horizon. It errors on overflow.
func (x *CoverageIndex) Size() (int64, error) {
	if x.size > maxCoverage {
		return 0, errCoverageOverflow
	}
	return x.size, nil
}

// Straddling returns the number of indexed intervals that contain
// chronon c and continue past it: Start <= c < End. An ongoing interval
// straddles every chronon from its start on. c must lie below
// chronon.Forever.
func (x *CoverageIndex) Straddling(c chronon.Chronon) int64 {
	started, _ := slices.BinarySearch(x.starts, c+1) // Start <= c
	ended, _ := slices.BinarySearch(x.ends, c+2)     // End+1 <= c+1
	return int64(started - ended)
}

// Quantiles returns the k-1 equi-depth quantile chronons of the
// covered-chronon multiset: the elements at ranks floor(j*N/k) for
// j = 1..k-1, where N is the multiset size. Duplicates are removed, so
// fewer than k-1 chronons may be returned (e.g. when a few chronons
// dominate the coverage). An empty result means the coverage cannot
// support more than one partition.
func (x *CoverageIndex) Quantiles(k int) ([]chronon.Chronon, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: need at least one partition, got %d", k)
	}
	n, err := x.Size()
	if err != nil {
		return nil, err
	}
	if n == 0 || k == 1 {
		return nil, nil
	}
	// rank is the 1-based position of the j-th quantile.
	rank := func(j int) int64 {
		return max(int64(j)*n/int64(k), 1)
	}

	// Walk the staircase: coverage changes by +1 at each start, -1 at
	// each finite end+1, and -ongoing at horizon+1, past every finite
	// end+1.
	w := endpointWalk{starts: x.starts, ends: x.ends, ongoing: x.ongoing, tail: x.horizon + 1}
	var out []chronon.Chronon
	var coverage, consumed int64
	j, target := 1, rank(1)
	for at, ok := w.peek(); ok && j < k; {
		coverage += w.consume(at)
		next, more := w.peek()
		if coverage == 0 || !more {
			at, ok = next, more
			continue
		}
		block := coverage * int64(next-at) // multiset elements in [at, next)
		for j < k && target <= consumed+block {
			c := at + chronon.Chronon((target-consumed-1)/coverage)
			if len(out) == 0 || out[len(out)-1] != c {
				out = append(out, c)
			}
			j++
			target = rank(j)
		}
		consumed += block
		at = next
	}
	return out, nil
}

// endpointWalk merges an index's sorted start and end arrays and its
// aggregated ongoing end into one ascending stream of events.
type endpointWalk struct {
	starts, ends []chronon.Chronon
	si, ei       int // next unconsumed start and end
	ongoing      int64
	tail         chronon.Chronon // horizon+1, where the ongoing ends fall
}

// peek returns the position of the next event, or false when none is
// left.
func (w *endpointWalk) peek() (chronon.Chronon, bool) {
	at, ok := chronon.Chronon(0), false
	if w.si < len(w.starts) {
		at, ok = w.starts[w.si], true
	}
	if w.ei < len(w.ends) && (!ok || w.ends[w.ei] < at) {
		at, ok = w.ends[w.ei], true
	}
	if w.ongoing > 0 && (!ok || w.tail < at) {
		at, ok = w.tail, true
	}
	return at, ok
}

// consume removes every event at position at and returns their net
// coverage change.
func (w *endpointWalk) consume(at chronon.Chronon) int64 {
	si, ei := w.si, w.ei
	for si < len(w.starts) && w.starts[si] == at {
		si++
	}
	for ei < len(w.ends) && w.ends[ei] == at {
		ei++
	}
	delta := int64(si-w.si) - int64(ei-w.ei)
	w.si, w.ei = si, ei
	if w.ongoing > 0 && w.tail == at {
		delta -= w.ongoing
		w.ongoing = 0
	}
	return delta
}

// CoverageQuantiles returns the equi-depth quantiles of the given
// intervals' covered-chronon multiset: a one-shot CoverageIndex (see
// CoverageIndex.Quantiles). Ongoing intervals participate with their
// ends clamped to the sampling horizon (see boundOngoing).
func CoverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	return NewCoverageIndex(intervals).Quantiles(k)
}

// NaiveCoverageQuantiles is the paper's literal algorithm: materialize
// the multiset, sort it, index equi-depth positions. Exponentially
// slower than CoverageQuantiles; retained as the test oracle.
func NaiveCoverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: need at least one partition, got %d", k)
	}
	intervals = boundOngoing(intervals)
	var multiset []chronon.Chronon
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		for t := iv.Start; t <= iv.End; t++ {
			multiset = append(multiset, t)
		}
	}
	if len(multiset) == 0 || k == 1 {
		return nil, nil
	}
	sort.Slice(multiset, func(i, j int) bool { return multiset[i] < multiset[j] })
	var out []chronon.Chronon
	n := int64(len(multiset))
	for j := 1; j < k; j++ {
		rank := int64(j) * n / int64(k)
		if rank < 1 {
			rank = 1
		}
		c := multiset[rank-1]
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out, nil
}
