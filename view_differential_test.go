package vtjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vtjoin/internal/testutil"
)

// The view maintains the partition join incrementally; the batch
// evaluators recompute it from scratch. Their results must coincide at
// every prefix of every append interleaving, for every algorithm and
// both matching routes of the kernel (chosen by the join keys,
// testutil.Route) — the batch engines referee the incremental one, and
// each other.

func randViewTuple(rng *rand.Rand, id int64) Tuple {
	start := rng.Int63n(950)
	end := start + 1 + rng.Int63n(60)
	return NewTuple(Span(Chronon(start), Chronon(end)), Int(rng.Int63n(12)), Int(id))
}

// rowStrings renders a tuple multiset order-insensitively.
func rowStrings(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// batchJoin loads the current base tuple sets as fresh relations and
// evaluates the join from scratch.
func batchJoin(t *testing.T, db *DB, lsch, rsch *Schema, lt, rt []Tuple, opts Options) []string {
	t.Helper()
	lr, err := db.Load(lsch, lt)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := db.Load(rsch, rt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Join(lr, rr, opts)
	if err != nil {
		t.Fatalf("%v: %v", opts.Algorithm, err)
	}
	if res.Algorithm != opts.Algorithm {
		t.Fatalf("asked for %v, ran %v", opts.Algorithm, res.Algorithm)
	}
	rows, err := res.Relation.All()
	if err != nil {
		t.Fatal(err)
	}
	return rowStrings(rows)
}

func TestViewDifferentialAcrossAlgorithmsAndKernels(t *testing.T) {
	algorithms := []Algorithm{AlgorithmPartition, AlgorithmSortMerge, AlgorithmNestedLoop}
	predicates := []Predicate{
		PredicateIntersects, PredicateContains, PredicateContainedIn, PredicateEqualIntervals,
	}
	combo := 0
	for _, algo := range algorithms {
		for _, route := range testutil.Routes {
			pred := predicates[combo%len(predicates)]
			combo++
			t.Run(fmt.Sprintf("%v/%v/%v", algo, route, pred), func(t *testing.T) {
				db := Open()
				lsch := NewSchema(Col("k", KindInt), Col("a", KindInt))
				rsch := NewSchema(Col("k", KindInt), Col("b", KindInt))
				rng := rand.New(rand.NewSource(int64(1000 + combo)))
				var lt, rt []Tuple
				for i := 0; i < 40; i++ {
					lt = append(lt, randViewTuple(rng, int64(i)))
					rt = append(rt, randViewTuple(rng, int64(1000+i)))
				}
				lt, rt = route.Keys(lt, 0), route.Keys(rt, 0)
				lr, err := db.Load(lsch, lt)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := db.Load(rsch, rt)
				if err != nil {
					t.Fatal(err)
				}
				v, err := NewView(lr, rr, ViewOptions{
					Partitions: 5, Predicate: pred,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer v.Close()
				opts := Options{Algorithm: algo, Predicate: pred, MemoryPages: 64}

				check := func(step int) {
					t.Helper()
					got, err := v.Tuples()
					if err != nil {
						t.Fatal(err)
					}
					gs := rowStrings(got)
					ws := batchJoin(t, db, lsch, rsch, lt, rt, opts)
					if len(gs) != len(ws) {
						t.Fatalf("after append %d: view has %d rows, %v recomputes %d",
							step, len(gs), algo, len(ws))
					}
					for i := range ws {
						if gs[i] != ws[i] {
							t.Fatalf("after append %d: view row %s, %v row %s", step, gs[i], algo, ws[i])
						}
					}
				}
				check(-1)
				for i := 0; i < 20; i++ {
					tp := randViewTuple(rng, int64(5000+i))
					if rng.Intn(2) == 0 {
						tp = route.Key(tp, 0, len(lt))
						if err := v.InsertLeft(tp); err != nil {
							t.Fatal(err)
						}
						lt = append(lt, tp)
					} else {
						tp = route.Key(tp, 0, len(rt))
						if err := v.InsertRight(tp); err != nil {
							t.Fatal(err)
						}
						rt = append(rt, tp)
					}
					check(i)
				}
			})
		}
	}
}
