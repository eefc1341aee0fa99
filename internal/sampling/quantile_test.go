package sampling

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
)

func ivs(pairs ...int64) []chronon.Interval {
	out := make([]chronon.Interval, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, chronon.New(chronon.Chronon(pairs[i]), chronon.Chronon(pairs[i+1])))
	}
	return out
}

func TestCoverageSize(t *testing.T) {
	n, err := CoverageSize(ivs(0, 9, 5, 5, 100, 101))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10+1+2 {
		t.Fatalf("CoverageSize = %d, want 13", n)
	}
	n, err = CoverageSize(nil)
	if err != nil || n != 0 {
		t.Fatalf("empty: %d, %v", n, err)
	}
	if _, err := CoverageSize([]chronon.Interval{
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
	}); err == nil {
		t.Fatal("overflow not detected")
	}
}

func TestCoverageQuantilesValidation(t *testing.T) {
	if _, err := CoverageQuantiles(ivs(0, 1), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	got, err := CoverageQuantiles(nil, 4)
	if err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	got, err = CoverageQuantiles(ivs(0, 100), 1)
	if err != nil || got != nil {
		t.Fatalf("k=1: %v, %v", got, err)
	}
}

func TestCoverageQuantilesUniform(t *testing.T) {
	// 100 unit tuples at chronons 0..99: quartiles at 24, 49, 74.
	var in []chronon.Interval
	for i := int64(0); i < 100; i++ {
		in = append(in, chronon.At(chronon.Chronon(i)))
	}
	got, err := CoverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []chronon.Chronon{24, 49, 74}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCoverageQuantilesSingleLongInterval(t *testing.T) {
	// One interval [0, 999]: multiset is 0..999, median at 499.
	got, err := CoverageQuantiles(ivs(0, 999), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 499 {
		t.Fatalf("got %v, want [499]", got)
	}
}

func TestCoverageQuantilesSkew(t *testing.T) {
	// Heavy coverage at the start: 9 copies of [0, 9] and one of
	// [10, 99]. Multiset: chronons 0..9 ×9 (90 elements) + 10..99 ×1
	// (90 elements). Median (rank 90) is chronon 9.
	in := ivs()
	for i := 0; i < 9; i++ {
		in = append(in, chronon.New(0, 9))
	}
	in = append(in, chronon.New(10, 99))
	got, err := CoverageQuantiles(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("got %v, want [9]", got)
	}
}

func TestCoverageQuantilesDeduplicates(t *testing.T) {
	// All coverage on one chronon: every quantile is the same value and
	// must collapse to a single cut.
	in := []chronon.Interval{chronon.At(5), chronon.At(5), chronon.At(5), chronon.At(5)}
	got, err := CoverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
}

func TestCoverageQuantilesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		in := make([]chronon.Interval, n)
		for i := range in {
			s := chronon.Chronon(rng.Intn(60))
			in[i] = chronon.New(s, s+chronon.Chronon(rng.Intn(30)))
		}
		k := 1 + rng.Intn(10)
		fast, err := CoverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveCoverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(naive) {
			t.Fatalf("trial %d (k=%d): fast %v vs naive %v", trial, k, fast, naive)
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("trial %d (k=%d): fast %v vs naive %v", trial, k, fast, naive)
			}
		}
	}
}

func TestCoverageQuantilesSortedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		var in []chronon.Interval
		for i := 0; i < 50; i++ {
			s := chronon.Chronon(rng.Intn(1000))
			in = append(in, chronon.New(s, s+chronon.Chronon(rng.Intn(500))))
		}
		got, err := CoverageQuantiles(in, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("quantiles not strictly increasing: %v", got)
			}
		}
	}
}

// Ongoing intervals must not overflow the coverage computation: their
// ends are clamped to the sampling horizon (here the largest finite
// end, which no ongoing start passes), so the quantiles equal those of
// the explicitly clamped set and stay inside the data-dense region.
func TestCoverageQuantilesOngoing(t *testing.T) {
	in := []chronon.Interval{
		chronon.New(0, 99),
		chronon.New(100, 199),
		chronon.NewOngoing(50),
		chronon.NewOngoing(150),
	}
	got, err := CoverageQuantiles(in, 4)
	if err != nil {
		t.Fatalf("ongoing intervals broke the sweep: %v", err)
	}
	want, err := CoverageQuantiles(ivs(0, 99, 100, 199, 50, 199, 150, 199), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, c := range got {
		if c > 199 {
			t.Fatalf("cut %d beyond the finite horizon 199 (in %v)", c, got)
		}
	}
	naive, err := NaiveCoverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != len(got) {
		t.Fatalf("naive %v, fast %v", naive, got)
	}
	for i := range naive {
		if naive[i] != got[i] {
			t.Fatalf("naive %v, fast %v", naive, got)
		}
	}
}

// When every sampled interval is ongoing the horizon is the largest
// start: coverage degenerates to the starts' staircase and the sweep
// still terminates with in-range cuts.
func TestCoverageQuantilesAllOngoing(t *testing.T) {
	in := []chronon.Interval{
		chronon.NewOngoing(0),
		chronon.NewOngoing(100),
		chronon.NewOngoing(200),
		chronon.NewOngoing(300),
	}
	got, err := CoverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c > 300 {
			t.Fatalf("cut %d beyond the largest ongoing start (in %v)", c, got)
		}
	}
}
