package vtjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
)

// relCatalog resolves query relation names to the DB's relations.
type relCatalog map[string]*Relation

func (c relCatalog) Lookup(name string) (*relation.Relation, error) {
	r, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no relation %q", name)
	}
	return r.internal(), nil
}

// TestFrontEndParity: the root API and the query language are two
// front ends onto the same join engines. On the same relations and
// settings, JoinInto and plan2.Run of the equivalent query must emit
// the same rows in the same order and move the device's counters by
// the same amounts, for every algorithm, matching route and shard
// setting. The route (testutil.Route) is chosen by the join keys, so
// each route gets its own pair of relations. A case is labelled by its
// coordinates in the query-shaped form the matrix has always used —
// algorithm hint, kernel route, shard count — so results stay
// comparable with earlier runs; the query it runs has no kernel word.
func TestFrontEndParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	gen := func(n int) []Tuple {
		ts := make([]Tuple, n)
		for i := range ts {
			start := rng.Int63n(4000)
			dur := 1 + rng.Int63n(40)
			if i%9 == 0 {
				dur = 400 + rng.Int63n(2000) // long-lived
			}
			ts[i] = NewTuple(Span(Chronon(start), Chronon(start+dur)), Int(rng.Int63n(25)), Int(int64(i)))
		}
		return ts
	}
	db := Open(WithPageSize(1024))
	rDense, sDense := gen(900), gen(700)
	rels := map[testutil.Route][2]*Relation{}
	for _, route := range testutil.Routes {
		r, err := db.Load(NewSchema(Col("k", KindInt), Col("a", KindInt)), route.Keys(rDense, 0))
		if err != nil {
			t.Fatal(err)
		}
		s, err := db.Load(NewSchema(Col("k", KindInt), Col("b", KindInt)), route.Keys(sDense, 0))
		if err != nil {
			t.Fatal(err)
		}
		rels[route] = [2]*Relation{r, s}
	}
	const memory = 16

	algos := []struct {
		algo Algorithm
		hint string
	}{
		{AlgorithmPartition, "partition"},
		{AlgorithmSortMerge, "sortmerge"},
		{AlgorithmNestedLoop, "nestedloop"},
	}
	for _, a := range algos {
		for _, route := range testutil.Routes {
			r, s := rels[route][0], rels[route][1]
			cat := relCatalog{"r": r, "s": s}
			for _, shards := range []int{0, 2} {
				q := "scan r | join scan s using " + a.hint
				label := fmt.Sprintf("%s kernel %s", q, route)
				if shards > 0 {
					q += fmt.Sprintf(" shards %d", shards)
					label += fmt.Sprintf(" shards %d", shards)
				}
				t.Run(label, func(t *testing.T) {
					var rootRows []string
					before := db.IOCounters()
					if _, err := JoinInto(r, s, Options{
						Algorithm: a.algo, MemoryPages: memory, Shards: shards,
					}, func(tp Tuple) error {
						rootRows = append(rootRows, tp.String())
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					rootIO := counterDelta(before, db.IOCounters())

					pipe, err := query.Parse(q)
					if err != nil {
						t.Fatal(err)
					}
					root, err := plan2.Bind(pipe, cat)
					if err != nil {
						t.Fatal(err)
					}
					var planRows []string
					before = db.IOCounters()
					if _, err := plan2.Run(plan2.Config{Disk: db.d, MemoryPages: memory}, root, func(tp Tuple) error {
						planRows = append(planRows, tp.String())
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					planIO := counterDelta(before, db.IOCounters())

					if len(rootRows) == 0 {
						t.Fatal("empty join; the workload does not exercise the engines")
					}
					if len(rootRows) != len(planRows) {
						t.Fatalf("root emitted %d rows, plan2 %d", len(rootRows), len(planRows))
					}
					for i := range rootRows {
						if rootRows[i] != planRows[i] {
							t.Fatalf("row %d: root %s, plan2 %s", i, rootRows[i], planRows[i])
						}
					}
					if rootIO != planIO {
						t.Errorf("device counter movement differs:\nroot  %+v\nplan2 %+v", rootIO, planIO)
					}
				})
			}
		}
	}
}

func counterDelta(before, after IOCounters) IOCounters {
	return IOCounters{
		RandomReads:      after.RandomReads - before.RandomReads,
		SequentialReads:  after.SequentialReads - before.SequentialReads,
		RandomWrites:     after.RandomWrites - before.RandomWrites,
		SequentialWrites: after.SequentialWrites - before.SequentialWrites,
		Retries:          after.Retries - before.Retries,
		BytesMoved:       after.BytesMoved - before.BytesMoved,
	}
}
