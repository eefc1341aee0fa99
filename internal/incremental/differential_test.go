package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/schema"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
)

// viewPredicates is every supported time-predicate shape — the same
// surface the codec differential exercises for the batch algorithms.
var viewPredicates = map[string]join.Predicate{
	"intersects":   chronon.MaskIntersects,
	"contains":     chronon.MaskContains,
	"contained-in": chronon.MaskContainedIn,
	"equal":        chronon.MaskEqual,
	"overlap-only": chronon.MaskOf(chronon.RelOverlaps, chronon.RelOverlappedBy),
	"starts":       chronon.MaskOf(chronon.RelStarts, chronon.RelStartedBy),
	"finishes":     chronon.MaskOf(chronon.RelFinishes, chronon.RelFinishedBy),
	"during-only":  chronon.MaskOf(chronon.RelDuring, chronon.RelContains),
}

// TestDifferentialMaintenance drives randomized left/right append
// interleavings through a view under every predicate mask and both
// matching routes (chosen by the keys, testutil.Route), asserting after every single append that the maintained
// result is set-equal to a from-scratch reference join over the
// current base tuple sets. This is the property the incremental
// machinery exists to preserve: fold-by-fold maintenance must be
// indistinguishable from recomputation.
func TestDifferentialMaintenance(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(leftSchema, rightSchema)
	if err != nil {
		t.Fatal(err)
	}
	for predName, pred := range viewPredicates {
		for _, route := range testutil.Routes {
			t.Run(fmt.Sprintf("%s/%s", predName, route), func(t *testing.T) {
				d := disk.New(page.DefaultSize)
				seed := int64(len(predName)*100 + len(route))
				lt, lrel := loadBase(t, d, leftSchema, route.Keys(baseTuples(60, seed), 0))
				rt, rrel := loadBase(t, d, rightSchema, route.Keys(baseTuples(60, seed+1), 0))
				v, err := New(nil, lrel, rrel, Config{
					Partitioning: mustCuts(t, 250, 500, 750, 1000, 1250),
					Predicate:    pred,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer v.Close()
				viewEquals(t, v, join.ReferencePred(plan, pred, lt, rt))

				rng := rand.New(rand.NewSource(seed + 2))
				for i := 0; i < 40; i++ {
					tp := randTuple(rng, int64(7000000)+seed*1000+int64(i))
					if rng.Intn(2) == 0 {
						tp = route.Key(tp, 0, len(lt))
						if _, err := v.InsertLeft(nil, tp); err != nil {
							t.Fatal(err)
						}
						lt = append(lt, tp)
					} else {
						tp = route.Key(tp, 0, len(rt))
						if _, err := v.InsertRight(nil, tp); err != nil {
							t.Fatal(err)
						}
						rt = append(rt, tp)
					}
					viewEquals(t, v, join.ReferencePred(plan, pred, lt, rt))
				}
			})
		}
	}
}

// TestDeltaRowsAreExactlyTheNewRows checks the per-fold delta stream:
// the rows a fold returns must be precisely the reference-join rows
// gained by that append, and they must survive the fold (cloned out of
// scratch pages).
func TestDeltaRowsAreExactlyTheNewRows(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(leftSchema, rightSchema)
	if err != nil {
		t.Fatal(err)
	}
	d := disk.New(page.DefaultSize)
	lt, lrel := buildBase(t, d, leftSchema, 120, 41)
	rt, rrel := buildBase(t, d, rightSchema, 120, 42)
	v, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 300, 600, 900)})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	rng := rand.New(rand.NewSource(43))
	var retained [][]tuple.Tuple
	var wantRetained [][]tuple.Tuple
	for i := 0; i < 30; i++ {
		tp := randTuple(rng, int64(8000000+i))
		before := join.ReferencePred(plan, chronon.MaskIntersects, lt, rt)
		var delta []tuple.Tuple
		if i%2 == 0 {
			delta, err = v.InsertLeft(nil, tp)
			lt = append(lt, tp)
		} else {
			delta, err = v.InsertRight(nil, tp)
			rt = append(rt, tp)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := join.ReferencePred(plan, chronon.MaskIntersects, lt, rt)
		want := subtract(after, before)
		got := append([]tuple.Tuple(nil), delta...)
		join.Canonicalize(got)
		join.Canonicalize(want)
		if len(got) != len(want) {
			t.Fatalf("append %d: delta has %d rows, reference gained %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("append %d delta[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
		retained = append(retained, delta)
		wantRetained = append(wantRetained, want)
	}
	// Retained deltas must still be intact after 30 further folds of
	// scratch-page reuse.
	for i := range retained {
		got := append([]tuple.Tuple(nil), retained[i]...)
		join.Canonicalize(got)
		for j := range wantRetained[i] {
			if !got[j].Equal(wantRetained[i][j]) {
				t.Fatalf("retained delta %d corrupted: %v != %v", i, got[j], wantRetained[i][j])
			}
		}
	}
}

// subtract returns the multiset after ∖ before (both canonicalized).
func subtract(after, before []tuple.Tuple) []tuple.Tuple {
	join.Canonicalize(after)
	join.Canonicalize(before)
	var out []tuple.Tuple
	i := 0
	for _, t := range after {
		if i < len(before) && t.Equal(before[i]) {
			i++
			continue
		}
		out = append(out, t)
	}
	return out
}

// TestResultPageOccupancy is the regression for the per-insert flush
// bug: folds must batch result rows through the builder's open page,
// flushing only when a page fills (or at Sync), so a steady append
// stream writes full pages instead of one near-empty page per append.
func TestResultPageOccupancy(t *testing.T) {
	d := disk.New(page.DefaultSize)
	_, lrel := buildBase(t, d, leftSchema, 150, 44)
	_, rrel := buildBase(t, d, rightSchema, 150, 45)
	v, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 300, 600, 900)})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 200; i++ {
		tp := randTuple(rng, int64(9000000+i))
		if i%2 == 0 {
			_, err = v.InsertLeft(nil, tp)
		} else {
			_, err = v.InsertRight(nil, tp)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	pages, err := v.Result().Pages()
	if err != nil {
		t.Fatal(err)
	}
	stored := v.Result().StoredTuples()
	if pages == 0 || stored == 0 {
		t.Fatalf("no maintained rows materialized (pages=%d stored=%d)", pages, stored)
	}
	if occ := stored / int64(pages); occ < 20 {
		t.Fatalf("result occupancy %d tuples/page over %d pages — folds are flushing per insert", occ, pages)
	}
	// Tuples() must see buffered rows without forcing a flush: a
	// short-interval fold's few delta rows stay in the open page.
	before := pages
	if _, err := v.InsertLeft(nil, wideTuple(5, 7, 3, 999999)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Tuples(); err != nil {
		t.Fatal(err)
	}
	after, err := v.Result().Pages()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("a small fold (or reading Tuples()) flushed pages: %d -> %d", before, after)
	}
}
