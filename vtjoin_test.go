package vtjoin

import (
	"sort"
	"testing"
)

func buildEmployees(t *testing.T, db *DB) *Relation {
	t.Helper()
	emp := db.MustCreateRelation(NewSchema(
		Col("name", KindString),
		Col("salary", KindInt),
	))
	l := emp.Loader()
	l.MustAppend(Span(10, 20), String("alice"), Int(70000))
	l.MustAppend(Span(21, 40), String("alice"), Int(80000))
	l.MustAppend(Span(5, 30), String("bob"), Int(60000))
	l.MustClose()
	return emp
}

func buildDepartments(t *testing.T, db *DB) *Relation {
	t.Helper()
	dept := db.MustCreateRelation(NewSchema(
		Col("name", KindString),
		Col("dept", KindString),
	))
	l := dept.Loader()
	l.MustAppend(Span(15, 35), String("alice"), String("engineering"))
	l.MustAppend(Span(0, 12), String("bob"), String("sales"))
	l.MustClose()
	return dept
}

func wantJoinResult() map[string]bool {
	return map[string]bool{
		`("alice", 70000, "engineering" | [15, 20])`: true,
		`("alice", 80000, "engineering" | [21, 35])`: true,
		`("bob", 60000, "sales" | [5, 12])`:          true,
	}
}

func TestJoinAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgorithmAuto, AlgorithmPartition, AlgorithmSortMerge, AlgorithmNestedLoop} {
		t.Run(algo.String(), func(t *testing.T) {
			db := Open()
			emp := buildEmployees(t, db)
			dept := buildDepartments(t, db)
			res, err := Join(emp, dept, Options{Algorithm: algo, MemoryPages: 8})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Relation.All()
			if err != nil {
				t.Fatal(err)
			}
			want := wantJoinResult()
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d: %v", len(got), len(want), got)
			}
			for _, z := range got {
				if !want[z.String()] {
					t.Fatalf("unexpected result %v", z)
				}
			}
			if res.Cost <= 0 {
				t.Fatal("no cost reported")
			}
			if len(res.Phases) == 0 {
				t.Fatal("no phases reported")
			}
			if algo != AlgorithmAuto && res.Algorithm != algo {
				t.Fatalf("ran %v, asked for %v", res.Algorithm, algo)
			}
		})
	}
}

func TestAutoSelectsPartition(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	dept := buildDepartments(t, db)
	res, err := Join(emp, dept, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmPartition {
		t.Fatalf("auto ran %v", res.Algorithm)
	}
}

func TestJoinIntoStreams(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	dept := buildDepartments(t, db)
	seen := map[string]bool{}
	phases, err := JoinInto(emp, dept, Options{MemoryPages: 8}, func(z Tuple) error {
		seen[z.Clone().String()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d results", len(seen))
	}
	for k := range wantJoinResult() {
		if !seen[k] {
			t.Fatalf("missing %s", k)
		}
	}
	if len(phases) == 0 {
		t.Fatal("no phases")
	}
}

func TestJoinValidation(t *testing.T) {
	db1, db2 := Open(), Open()
	a := db1.MustCreateRelation(NewSchema(Col("x", KindInt)))
	b := db2.MustCreateRelation(NewSchema(Col("x", KindInt)))
	if _, err := Join(a, b, Options{}); err == nil {
		t.Fatal("cross-DB join accepted")
	}
	if _, err := Join(nil, a, Options{}); err == nil {
		t.Fatal("nil relation accepted")
	}
	// Shared column with mismatched kinds.
	c := db1.MustCreateRelation(NewSchema(Col("x", KindString)))
	if _, err := Join(a, c, Options{}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := Join(a, c, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSharedColumns(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	dept := buildDepartments(t, db)
	shared, err := SharedColumns(emp, dept)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != 1 || shared[0] != "name" {
		t.Fatalf("shared = %v", shared)
	}
}

func TestScrubCleanDatabase(t *testing.T) {
	db := Open()
	buildEmployees(t, db)
	buildDepartments(t, db)
	db.ResetIOCounters()
	damage, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		t.Fatalf("clean database reported damage: %v", damage)
	}
	// Scrubbing is maintenance, not evaluation: no I/O charged.
	c := db.IOCounters()
	if got := c.RandomReads + c.SequentialReads + c.RandomWrites + c.SequentialWrites; got != 0 {
		t.Fatalf("scrub charged %d accesses to the cost counters", got)
	}
}

func TestRelationAccessors(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	if emp.Cardinality() != 3 {
		t.Fatalf("cardinality %d", emp.Cardinality())
	}
	if pages, err := emp.Pages(); err != nil || pages != 1 {
		t.Fatalf("pages %d, err %v", pages, err)
	}
	if !emp.Lifespan().Equal(Span(5, 40)) {
		t.Fatalf("lifespan %v", emp.Lifespan())
	}
	if emp.Schema().Len() != 2 {
		t.Fatal("schema lost")
	}
}

func TestLoadFromTuples(t *testing.T) {
	db := Open()
	s := NewSchema(Col("k", KindInt))
	ts := []Tuple{
		NewTuple(Span(0, 5), Int(1)),
		NewTuple(Span(3, 9), Int(2)),
	}
	r, err := db.Load(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 2 {
		t.Fatal("load lost tuples")
	}
	// Schema violations are rejected.
	if _, err := db.Load(s, []Tuple{NewTuple(Span(0, 1), String("wrong"))}); err == nil {
		t.Fatal("schema violation accepted")
	}
}

func TestIOCounters(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	db.ResetIOCounters()
	if _, err := emp.All(); err != nil {
		t.Fatal(err)
	}
	c := db.IOCounters()
	if c.RandomReads+c.SequentialReads == 0 {
		t.Fatal("scan counted no reads")
	}
	if c.RandomWrites+c.SequentialWrites != 0 {
		t.Fatal("scan counted writes")
	}
	db.ResetIOCounters()
	if db.IOCounters() != (IOCounters{}) {
		t.Fatal("reset failed")
	}
}

func TestOpenOptions(t *testing.T) {
	db := Open(WithPageSize(1024))
	if db.PageSize() != 1024 {
		t.Fatalf("page size %d", db.PageSize())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad page size did not panic")
		}
	}()
	Open(WithPageSize(8))
}

func TestIntervalHelpers(t *testing.T) {
	a, b := Span(0, 10), Span(5, 20)
	if ov := Overlap(a, b); !ov.Equal(Span(5, 10)) {
		t.Fatalf("Overlap = %v", ov)
	}
	if !At(7).Contains(7) || At(7).Duration() != 1 {
		t.Fatal("At broken")
	}
}

func TestResultDeterministicAcrossAlgorithms(t *testing.T) {
	// Larger randomized check through the public API.
	db := Open()
	mk := func(seedOffset int64, cols *Schema) *Relation {
		r := db.MustCreateRelation(cols)
		l := r.Loader()
		for i := int64(0); i < 500; i++ {
			start := (i*37 + seedOffset*13) % 1000
			length := (i * 7 % 90)
			l.MustAppend(Span(Chronon(start), Chronon(start+length)),
				String([]string{"a", "b", "c", "d"}[i%4]), Int(i+seedOffset*10000))
		}
		l.MustClose()
		return r
	}
	emp := mk(1, NewSchema(Col("name", KindString), Col("salary", KindInt)))
	dept := mk(2, NewSchema(Col("name", KindString), Col("dept", KindInt)))

	var results [][]string
	for _, algo := range []Algorithm{AlgorithmPartition, AlgorithmSortMerge, AlgorithmNestedLoop} {
		res, err := Join(emp, dept, Options{Algorithm: algo, MemoryPages: 10})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := res.Relation.All()
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(ts))
		for i, z := range ts {
			strs[i] = z.String()
		}
		sort.Strings(strs)
		results = append(results, strs)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("algorithm %d produced %d results, algorithm 0 produced %d",
				i, len(results[i]), len(results[0]))
		}
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("results differ at %d: %s vs %s", j, results[i][j], results[0][j])
			}
		}
	}
}

// TestAlgorithmNames pins the public algorithm names: they appear in
// CLI output, traces and Result.Algorithm renderings.
func TestAlgorithmNames(t *testing.T) {
	for a, want := range map[Algorithm]string{
		AlgorithmAuto:       "auto",
		AlgorithmPartition:  "partition-join",
		AlgorithmSortMerge:  "sort-merge",
		AlgorithmNestedLoop: "nested-loop",
		Algorithm(99):       "invalid",
	} {
		if got := a.String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}
