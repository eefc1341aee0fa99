package incremental

import (
	"math/rand"
	"sort"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

var (
	leftSchema = schema.MustNew(
		schema.Column{Name: "k", Kind: value.KindInt},
		schema.Column{Name: "a", Kind: value.KindInt},
	)
	rightSchema = schema.MustNew(
		schema.Column{Name: "k", Kind: value.KindInt},
		schema.Column{Name: "b", Kind: value.KindInt},
	)
)

func randTuple(rng *rand.Rand, id int64) tuple.Tuple {
	s := chronon.Chronon(rng.Intn(1000))
	var iv chronon.Interval
	if rng.Intn(4) == 0 {
		iv = chronon.New(s, s+500) // long-lived
	} else {
		iv = chronon.New(s, s+chronon.Chronon(rng.Intn(30)))
	}
	return tuple.New(iv, value.Int(rng.Int63n(6)), value.Int(id))
}

func buildBase(t *testing.T, d *disk.Disk, s *schema.Schema, n int, seed int64) ([]tuple.Tuple, *relation.Relation) {
	t.Helper()
	return loadBase(t, d, s, baseTuples(n, seed))
}

// baseTuples draws n random base tuples from seed.
func baseTuples(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var ts []tuple.Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, randTuple(rng, int64(seed*100000)+int64(i)))
	}
	return ts
}

func loadBase(t *testing.T, d *disk.Disk, s *schema.Schema, ts []tuple.Tuple) ([]tuple.Tuple, *relation.Relation) {
	t.Helper()
	rel, err := relation.FromTuples(d, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return ts, rel
}

func viewEquals(t *testing.T, v *View, want []tuple.Tuple) {
	t.Helper()
	got, err := v.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	join.Canonicalize(got)
	join.Canonicalize(want)
	if len(got) != len(want) {
		t.Fatalf("view has %d tuples, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("view tuple %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func mustCuts(t *testing.T, cuts ...chronon.Chronon) partition.Partitioning {
	t.Helper()
	p, err := partition.FromCuts(cuts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInitialEvaluationMatchesOracle(t *testing.T) {
	d := disk.New(4096)
	lt, lrel := buildBase(t, d, leftSchema, 300, 1)
	rt, rrel := buildBase(t, d, rightSchema, 300, 2)
	plan, err := schema.PlanNaturalJoin(leftSchema, rightSchema)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 200, 400, 600, 800, 1000, 1200)})
	if err != nil {
		t.Fatal(err)
	}
	viewEquals(t, v, join.Reference(plan, lt, rt))
}

func TestInsertsMaintainView(t *testing.T) {
	d := disk.New(4096)
	lt, lrel := buildBase(t, d, leftSchema, 200, 3)
	rt, rrel := buildBase(t, d, rightSchema, 200, 4)
	plan, err := schema.PlanNaturalJoin(leftSchema, rightSchema)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 300, 700, 1100)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		tp := randTuple(rng, int64(900000+i))
		if i%2 == 0 {
			if _, err := v.InsertLeft(nil, tp); err != nil {
				t.Fatal(err)
			}
			lt = append(lt, tp)
		} else {
			if _, err := v.InsertRight(nil, tp); err != nil {
				t.Fatal(err)
			}
			rt = append(rt, tp)
		}
		if i%20 == 19 {
			viewEquals(t, v, join.Reference(plan, lt, rt))
		}
	}
	viewEquals(t, v, join.Reference(plan, lt, rt))
}

// TestClosedViewRejectsOperations: Close drops the backing result
// relation, so Tuples, Sync and the inserts on a closed view must
// report an error instead of dereferencing the dropped state.
func TestClosedViewRejectsOperations(t *testing.T) {
	d := disk.New(4096)
	_, lrel := buildBase(t, d, leftSchema, 50, 11)
	_, rrel := buildBase(t, d, rightSchema, 50, 12)
	v, err := New(nil, lrel, rrel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Tuples(); err == nil {
		t.Fatal("Tuples on a closed view succeeded")
	}
	if err := v.Sync(); err == nil {
		t.Fatal("Sync on a closed view succeeded")
	}
	tp := randTuple(rand.New(rand.NewSource(13)), 1)
	if _, err := v.InsertLeft(nil, tp); err == nil {
		t.Fatal("InsertLeft on a closed view succeeded")
	}
	if _, err := v.InsertRight(nil, tp); err == nil {
		t.Fatal("InsertRight on a closed view succeeded")
	}
}

func TestInsertCostIsLocalized(t *testing.T) {
	// A short-interval insert must read far fewer pages than a full
	// reevaluation — the incremental advantage of Section 3.1.
	d := disk.New(4096)
	_, lrel := buildBase(t, d, leftSchema, 3000, 6)
	_, rrel := buildBase(t, d, rightSchema, 3000, 7)
	v, err := New(nil, lrel, rrel, Config{
		Partitioning: mustCuts(t, 150, 300, 450, 600, 750, 900, 1050, 1200, 1350, 1500),
	})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lrel.Pages()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := rrel.Pages()
	if err != nil {
		t.Fatal(err)
	}
	totalPages := lp + rp

	before := d.Counters()
	if _, err := v.InsertLeft(nil, tuple.New(chronon.New(500, 505), value.Int(3), value.Int(123456))); err != nil {
		t.Fatal(err)
	}
	delta := d.Counters().Sub(before)
	if delta.Total() >= int64(totalPages)/2 {
		t.Fatalf("insert touched %d pages; base relations have %d — not incremental",
			delta.Total(), totalPages)
	}
	if Cost(d, before, cost.Ratio(5)) <= 0 {
		t.Fatal("no maintenance cost measured")
	}
}

func TestMinStartPruning(t *testing.T) {
	// All right tuples live late; probing an early left tuple must not
	// read late partitions whose MinStart exceeds the probe's end.
	d := disk.New(4096)
	var rt []tuple.Tuple
	for i := 0; i < 500; i++ {
		rt = append(rt, tuple.New(chronon.New(chronon.Chronon(2000+i), chronon.Chronon(2100+i)),
			value.Int(1), value.Int(int64(i))))
	}
	rrel, err := relation.FromTuples(d, rightSchema, rt)
	if err != nil {
		t.Fatal(err)
	}
	lrel, err := relation.FromTuples(d, leftSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 1000, 2000, 2500, 3000)})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	if _, err := v.InsertLeft(nil, tuple.New(chronon.New(0, 10), value.Int(1), value.Int(999))); err != nil {
		t.Fatal(err)
	}
	delta := d.Counters().Sub(before)
	// The insert itself writes one page; no right partition qualifies
	// (every right tuple starts at 2000+), so reads stay minimal.
	if delta.RandReads+delta.SeqReads > 1 {
		t.Fatalf("probe read %d pages despite MinStart pruning", delta.RandReads+delta.SeqReads)
	}
	got, err := v.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("spurious results: %v", got)
	}
}

func TestViewRejectsCrossDevice(t *testing.T) {
	d1, d2 := disk.New(4096), disk.New(4096)
	_, lrel := buildBase(t, d1, leftSchema, 10, 8)
	_, rrel := buildBase(t, d2, rightSchema, 10, 9)
	if _, err := New(nil, lrel, rrel, Config{Partitioning: partition.Single()}); err == nil {
		t.Fatal("cross-device view accepted")
	}
}

func TestViewWithManyPartitionsAndSorting(t *testing.T) {
	// Regression-style check: the view result is stable regardless of
	// insert order.
	d := disk.New(4096)
	lt, lrel := buildBase(t, d, leftSchema, 100, 10)
	rt, rrel := buildBase(t, d, rightSchema, 100, 11)
	plan, err := schema.PlanNaturalJoin(leftSchema, rightSchema)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := New(nil, lrel, rrel, Config{Partitioning: mustCuts(t, 500)})
	if err != nil {
		t.Fatal(err)
	}
	extra := []tuple.Tuple{
		tuple.New(chronon.New(0, 1500), value.Int(2), value.Int(777)), // spans everything
		tuple.New(chronon.At(10), value.Int(2), value.Int(778)),
	}
	for _, tp := range extra {
		if _, err := v1.InsertRight(nil, tp); err != nil {
			t.Fatal(err)
		}
	}
	want := join.Reference(plan, lt, append(append([]tuple.Tuple{}, rt...), extra...))
	viewEquals(t, v1, want)

	// Determinism of the canonical order itself.
	got, _ := v1.Tuples()
	join.Canonicalize(got)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 }) {
		t.Fatal("canonicalize failed")
	}
}
