package testutil

import (
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Route names one of the two paths the join package's matching kernel
// takes for an inner batch. The kernel's cost guard picks the path
// from the input, not from a setting, so a test matrix that covers
// both runs each cell on two versions of the same workload.
type Route string

const (
	// RouteSweep keeps the workload's repeating join keys: batches are
	// plane-swept, and a large sort-merge live window builds its key
	// index.
	RouteSweep Route = "sweep"
	// RouteScan gives every tuple of a side its own join key. An outer
	// batch then holds as many keys as tuples, so the guard sends every
	// keyed batch to per-tuple probes that scan one key bucket, and a
	// sort-merge live window stays unindexed.
	RouteScan Route = "scan"
)

// Routes lists both routes, sweep first.
var Routes = []Route{RouteSweep, RouteScan}

// Keys returns the route's version of ts. RouteSweep returns ts
// itself. RouteScan returns a copy whose int column col holds the
// tuple's position in ts, so the i-th tuple of one side joins only the
// i-th tuple of the other. Timestamps and encoded sizes are unchanged
// (ints are fixed-width in the v1 page codec), so on v1 pages every
// algorithm reads, writes and spills the same pages on both routes.
func (r Route) Keys(ts []tuple.Tuple, col int) []tuple.Tuple {
	if r != RouteScan {
		return ts
	}
	out := make([]tuple.Tuple, len(ts))
	for i, t := range ts {
		out[i] = r.Key(t, col, i)
	}
	return out
}

// Key is Keys for one tuple that is, or will be appended at, position
// pos of its side.
func (r Route) Key(t tuple.Tuple, col, pos int) tuple.Tuple {
	if r != RouteScan {
		return t
	}
	vals := append([]value.Value(nil), t.Values...)
	vals[col] = value.Int(int64(pos))
	return tuple.New(t.V, vals...)
}
