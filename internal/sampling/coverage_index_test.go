package sampling

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vtjoin/internal/chronon"
)

// sweepCoverageQuantiles is the per-call event sweep CoverageIndex
// replaced: build one ±1 event per endpoint, sort them all, walk the
// staircase. Kept here as a second, independent oracle.
func sweepCoverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	intervals = boundOngoing(intervals)
	n, err := CoverageSize(intervals)
	if err != nil {
		return nil, err
	}
	if n == 0 || k == 1 {
		return nil, nil
	}
	type event struct {
		at    chronon.Chronon
		delta int64
	}
	events := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		events = append(events, event{iv.Start, 1}, event{iv.End + 1, -1})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	targets := make([]int64, 0, k-1)
	for j := 1; j < k; j++ {
		rank := int64(j) * n / int64(k)
		if rank < 1 {
			rank = 1
		}
		targets = append(targets, rank)
	}
	var out []chronon.Chronon
	var coverage, consumed int64
	ti := 0
	for i := 0; i < len(events) && ti < len(targets); {
		at := events[i].at
		for i < len(events) && events[i].at == at {
			coverage += events[i].delta
			i++
		}
		if coverage == 0 || i >= len(events) {
			continue
		}
		next := events[i].at
		block := coverage * int64(next-at)
		for ti < len(targets) && targets[ti] <= consumed+block {
			c := at + chronon.Chronon((targets[ti]-consumed-1)/coverage)
			if len(out) == 0 || out[len(out)-1] != c {
				out = append(out, c)
			}
			ti++
		}
		consumed += block
	}
	return out, nil
}

// genShape names one family of random interval sets.
type genShape struct {
	name string
	gen  func(rng *rand.Rand) chronon.Interval
}

var genShapes = []genShape{
	{"mixed", func(rng *rand.Rand) chronon.Interval {
		s := chronon.Chronon(rng.Intn(60))
		return chronon.New(s, s+chronon.Chronon(rng.Intn(30)))
	}},
	{"duplicate-endpoints", func(rng *rand.Rand) chronon.Interval {
		s := chronon.Chronon(5 * rng.Intn(4))
		return chronon.New(s, s+chronon.Chronon(5*rng.Intn(3)))
	}},
	{"single-chronon", func(rng *rand.Rand) chronon.Interval {
		return chronon.At(chronon.Chronon(rng.Intn(20)))
	}},
	{"ongoing-mix", func(rng *rand.Rand) chronon.Interval {
		s := chronon.Chronon(rng.Intn(50))
		switch rng.Intn(4) {
		case 0:
			return chronon.NewOngoing(s + 20)
		case 1:
			return chronon.Null()
		}
		return chronon.New(s, s+chronon.Chronon(rng.Intn(15)))
	}},
	{"all-ongoing", func(rng *rand.Rand) chronon.Interval {
		return chronon.NewOngoing(chronon.Chronon(rng.Intn(40)))
	}},
}

// checkIndexAgainstOracles compares every question the index answers
// about its current contents with the two oracles.
func checkIndexAgainstOracles(t *testing.T, x *CoverageIndex, in []chronon.Interval, naive bool) {
	t.Helper()
	wantSize, wantErr := CoverageSize(boundOngoing(in))
	gotSize, gotErr := x.Size()
	if gotSize != wantSize || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Size of %v = %d, %v; want %d, %v", in, gotSize, gotErr, wantSize, wantErr)
	}
	for k := 1; k <= 40; k++ {
		got, err := x.Quantiles(k)
		sweep, serr := sweepCoverageQuantiles(in, k)
		if (err == nil) != (serr == nil) || !reflect.DeepEqual(got, sweep) {
			t.Fatalf("k=%d on %v: index %v, %v; sweep %v, %v", k, in, got, err, sweep, serr)
		}
		if naive {
			oracle, err := NaiveCoverageQuantiles(in, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("k=%d on %v: index %v, naive %v", k, in, got, oracle)
			}
		}
	}
	for c := chronon.Chronon(-2); c < 110; c++ {
		var want int64
		for _, iv := range in {
			if !iv.IsNull() && iv.Start <= c && c < iv.End {
				want++
			}
		}
		if got := x.Straddling(c); got != want {
			t.Fatalf("Straddling(%d) on %v = %d, want %d", c, in, got, want)
		}
	}
}

// TestCoverageIndexMatchesSweepAndNaive rebuilds one index on growing
// prefixes of each random set, a few intervals at a time, and checks
// every prefix against the old sweep and the literal multiset, for
// every k in 1..40.
func TestCoverageIndexMatchesSweepAndNaive(t *testing.T) {
	for _, shape := range genShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 12; trial++ {
				in := make([]chronon.Interval, 1+rng.Intn(30))
				for i := range in {
					in[i] = shape.gen(rng)
				}
				var x CoverageIndex
				for p := 0; p < len(in); {
					step := 1 + rng.Intn(4)
					if p+step > len(in) {
						step = len(in) - p
					}
					p += step
					x.Build(in[:p])
					checkIndexAgainstOracles(t, &x, in[:p], true)
				}
				// A rebuilt index is indistinguishable from a fresh one.
				x.Build(nil)
				checkIndexAgainstOracles(t, &x, nil, true)
				x.Build(in[len(in)/2:])
				checkIndexAgainstOracles(t, &x, in[len(in)/2:], true)
			}
		})
	}
}

// TestCoverageIndexEveryPrefix rebuilds the index one interval longer
// at a time, so every prefix length of each set is checked, including
// a horizon that moves past intervals already ongoing.
func TestCoverageIndexEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		shape := genShapes[trial%len(genShapes)]
		in := make([]chronon.Interval, 25)
		for i := range in {
			in[i] = shape.gen(rng)
		}
		var x CoverageIndex
		for p := 1; p <= len(in); p++ {
			x.Build(in[:p])
			checkIndexAgainstOracles(t, &x, in[:p], false)
		}
	}
}

// TestCoverageIndexOverflow: a multiset past 2^62 chronons is an error
// for the index exactly when it is for CoverageSize, whether the
// overflow comes from finite durations or from ongoing ends the
// horizon drags along.
func TestCoverageIndexOverflow(t *testing.T) {
	cases := [][]chronon.Interval{
		{chronon.New(chronon.Beginning, chronon.Forever)},
		{chronon.New(chronon.Beginning, chronon.Forever), chronon.At(0)},
		{chronon.NewOngoing(chronon.Beginning), chronon.NewOngoing(chronon.Beginning), chronon.At(chronon.Forever)},
		{chronon.NewOngoing(chronon.Beginning), chronon.At(0)},
	}
	for _, in := range cases {
		x := NewCoverageIndex(in)
		_, want := sweepCoverageQuantiles(in, 4)
		_, got := x.Quantiles(4)
		if (got == nil) != (want == nil) {
			t.Fatalf("%v: index error %v, sweep error %v", in, got, want)
		}
	}
}

// TestCoverageQuantilesOngoingBeyondFiniteHorizon: an ongoing tuple
// that starts after every finite end pushes the horizon to its own
// start, not to the largest finite endpoint, and no cut passes it.
func TestCoverageQuantilesOngoingBeyondFiniteHorizon(t *testing.T) {
	in := []chronon.Interval{
		chronon.New(0, 9),
		chronon.New(5, 19),
		chronon.NewOngoing(3),
		chronon.NewOngoing(100),
	}
	for k := 2; k <= 12; k++ {
		got, err := CoverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveCoverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, naive) {
			t.Fatalf("k=%d: fast %v, naive %v", k, got, naive)
		}
		for _, c := range got {
			if c > 100 {
				t.Fatalf("k=%d: cut %d beyond the last ongoing start 100 (in %v)", k, c, got)
			}
		}
		if k == 12 && got[len(got)-1] <= 19 {
			t.Fatalf("cuts %v never pass the finite horizon 19: the ongoing tuple at 3 covers up to 100", got)
		}
	}
}

// decodeIntervals turns fuzz bytes into intervals, 3 bytes each: a
// kind, a start and a length, on a small time-line so the literal
// multiset stays cheap.
func decodeIntervals(data []byte) []chronon.Interval {
	var out []chronon.Interval
	for ; len(data) >= 3 && len(out) < 64; data = data[3:] {
		s := chronon.Chronon(data[1] % 100)
		switch data[0] % 8 {
		case 0:
			out = append(out, chronon.NewOngoing(s))
		case 1:
			out = append(out, chronon.Null())
		default:
			out = append(out, chronon.New(s, s+chronon.Chronon(data[2]%40)))
		}
	}
	return out
}

func FuzzCoverageIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for _, shape := range genShapes {
		var buf []byte
		for i := 0; i < 12; i++ {
			iv := shape.gen(rng)
			kind := byte(2)
			if iv.IsOngoing() {
				kind = 0
			} else if iv.IsNull() {
				kind = 1
			}
			buf = append(buf, kind, byte(iv.Start), byte(iv.End-iv.Start))
		}
		f.Add(buf, uint16(7), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint16, split uint8) {
		in := decodeIntervals(data)
		k = 1 + k%40
		// Index a prefix first, so the rebuild must clear what it left.
		x := NewCoverageIndex(in[:int(split)%(len(in)+1)])
		x.Build(in)
		got, err := x.Quantiles(int(k))
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := sweepCoverageQuantiles(in, int(k))
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveCoverageQuantiles(in, int(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sweep) || !reflect.DeepEqual(got, naive) {
			t.Fatalf("k=%d on %v: index %v, sweep %v, naive %v", k, in, got, sweep, naive)
		}
	})
}

// BenchmarkCoverageIndex splits a plan's quantile work: "build" sorts
// the endpoints of a join-longlived-sized sample (16,384 intervals, 8%
// long-lived over a 2^20-chronon lifespan) once per plan, "quantiles"
// is the merge-walk each candidate partition count then costs.
func BenchmarkCoverageIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]chronon.Interval, 16384)
	for i := range in {
		s := chronon.Chronon(rng.Int63n(1 << 20))
		in[i] = chronon.At(s)
		if i%12 == 0 {
			in[i] = chronon.New(s/2, s/2+1<<19)
		}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		var x CoverageIndex
		for i := 0; i < b.N; i++ {
			x.Build(in)
		}
	})
	b.Run("quantiles", func(b *testing.B) {
		b.ReportAllocs()
		x := NewCoverageIndex(in)
		for i := 0; i < b.N; i++ {
			if _, err := x.Quantiles(300); err != nil {
				b.Fatal(err)
			}
		}
	})
}
