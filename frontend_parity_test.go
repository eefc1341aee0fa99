package vtjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
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
// the same amounts, for every algorithm, kernel and shard setting.
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
	r, err := db.Load(NewSchema(Col("k", KindInt), Col("a", KindInt)), gen(900))
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Load(NewSchema(Col("k", KindInt), Col("b", KindInt)), gen(700))
	if err != nil {
		t.Fatal(err)
	}
	cat := relCatalog{"r": r, "s": s}
	const memory = 16

	algos := []struct {
		algo Algorithm
		hint string
	}{
		{AlgorithmPartition, "partition"},
		{AlgorithmSortMerge, "sortmerge"},
		{AlgorithmNestedLoop, "nestedloop"},
	}
	kernels := []struct {
		kernel Kernel
		hint   string
	}{
		{KernelSweep, "sweep"},
		{KernelScan, "scan"},
	}
	for _, a := range algos {
		for _, k := range kernels {
			for _, shards := range []int{0, 2} {
				q := fmt.Sprintf("scan r | join scan s using %s kernel %s", a.hint, k.hint)
				if shards > 0 {
					q += fmt.Sprintf(" shards %d", shards)
				}
				t.Run(q, func(t *testing.T) {
					var rootRows []string
					before := db.IOCounters()
					if _, err := JoinInto(r, s, Options{
						Algorithm: a.algo, Kernel: k.kernel, MemoryPages: memory, Shards: shards,
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
