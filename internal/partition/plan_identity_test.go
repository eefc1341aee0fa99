package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/sampling"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
	"vtjoin/internal/workload"
)

// refCoverageQuantiles is the per-call event sweep the planner ran for
// every candidate before it kept a sampling.CoverageIndex: clamp
// ongoing ends to the horizon, build and sort one ±1 event per
// endpoint, walk the staircase.
func refCoverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	horizon, ongoing := chronon.Beginning, false
	for _, iv := range intervals {
		switch {
		case iv.IsNull():
		case iv.IsOngoing():
			ongoing = true
			horizon = chronon.Max(horizon, iv.Start)
		default:
			horizon = chronon.Max(horizon, iv.End)
		}
	}
	var n int64
	type event struct {
		at    chronon.Chronon
		delta int64
	}
	var events []event
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		if ongoing && iv.IsOngoing() {
			iv = chronon.New(iv.Start, horizon)
		}
		d := iv.Duration()
		if n > (1<<62)-d {
			return nil, fmt.Errorf("coverage overflow")
		}
		n += d
		events = append(events, event{iv.Start, 1}, event{iv.End + 1, -1})
	}
	if n == 0 || k == 1 {
		return nil, nil
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	var targets []int64
	for j := 1; j < k; j++ {
		targets = append(targets, max(int64(j)*n/int64(k), 1))
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
		block := coverage * int64(events[i].at-at)
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

// refChooseIntervals and refEstimateCacheSizes are chooseIntervals and
// estimateCacheSizes as they were before the index: a sweep per call
// and two binary searches per sampled tuple.
func refChooseIntervals(sample []chronon.Interval, numPartitions int) (Partitioning, error) {
	cuts, err := refCoverageQuantiles(sample, numPartitions)
	if err != nil {
		return Partitioning{}, err
	}
	filtered := cuts[:0]
	for _, c := range cuts {
		if c > chronon.Beginning && c < chronon.Forever {
			filtered = append(filtered, c)
		}
	}
	return FromCuts(filtered)
}

func refEstimateCacheSizes(sample []chronon.Interval, fraction float64, part Partitioning, tpp float64) []float64 {
	counts := make([]int64, part.N())
	for _, iv := range sample {
		first, last := part.Range(iv)
		for i := first; i < last; i++ {
			counts[i]++
		}
	}
	out := make([]float64, part.N())
	if fraction <= 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / fraction / tpp
	}
	return out
}

// refDeterminePartIntervals is DeterminePartIntervals' candidate loop
// as it was before the index, scoring each candidate with the
// reference sweep. It shares the incremental sampler, so both draw the
// same samples from the same rng and pay the same I/O.
func refDeterminePartIntervals(t *testing.T, r *relation.Relation, cfg PlanConfig) (*Plan, []Candidate) {
	t.Helper()
	relPages := mustPages(t, r)
	tpp := float64(r.Tuples()) / float64(relPages)
	step := cfg.CandidateStep
	if step <= 0 {
		step = max(cfg.BuffSize/64, 1)
	}
	sampler, err := newIncrementalSampler(r, cfg.Weights, cfg.Rng)
	if err != nil {
		t.Fatal(err)
	}
	sampler.noScan = cfg.DisableScanOptimization
	lastPartSize := 1
	for ps := 1; ps <= cfg.BuffSize; ps += step {
		lastPartSize = ps
	}
	maxWant := int(r.Tuples())
	if errSz := cfg.BuffSize - lastPartSize; errSz > 0 {
		if maxWant, err = sampling.SampleSize(relPages, errSz); err != nil {
			t.Fatal(err)
		}
	}
	if err := sampler.planAhead(maxWant); err != nil {
		t.Fatal(err)
	}
	var best *Plan
	var candidates []Candidate
	for partSize := 1; partSize <= cfg.BuffSize; partSize += step {
		errorSize := cfg.BuffSize - partSize
		wantSamples := int(r.Tuples())
		if errorSize <= 0 {
			errorSize = 0
		} else if wantSamples, err = sampling.SampleSize(relPages, errorSize); err != nil {
			t.Fatal(err)
		}
		csample := float64(wantSamples) * cfg.Weights.Rand
		if csample > sampler.scanCost && !cfg.DisableScanOptimization {
			csample = sampler.scanCost
		}
		numPartitions := max((relPages+partSize-1)/partSize, cfg.Shards)
		sampleSet, err := sampler.ensure(wantSamples)
		if err != nil {
			t.Fatal(err)
		}
		part, err := refChooseIntervals(sampleSet, numPartitions)
		if err != nil {
			t.Fatal(err)
		}
		fraction := float64(len(sampleSet)) / float64(r.Tuples())
		cachePages := refEstimateCacheSizes(sampleSet, fraction, part, tpp)
		n := float64(part.N())
		seqPages := max(float64(relPages)-n, 0)
		cjoin := 2 * (n*cfg.Weights.Rand + seqPages*cfg.Weights.Seq)
		cachePaging := 0.0
		for _, m := range cachePages {
			if m > 0 {
				cachePaging += 2 * (cfg.Weights.Rand + cfg.Weights.Seq*(math.Ceil(m)-1))
			}
		}
		cjoin += cachePaging
		candidates = append(candidates, Candidate{PartSize: partSize, Csample: csample, Cjoin: cjoin, CachePaging: cachePaging})
		if best == nil || csample+cjoin <= best.EstimatedCost() {
			best = &Plan{Partitioning: part, PartSize: partSize, ErrorSize: errorSize,
				NumPartitions: numPartitions, SamplesDrawn: len(sampleSet),
				Csample: csample, Cjoin: cjoin, CachePages: cachePages}
		}
	}
	return best, candidates
}

// buildPlanRelation builds n tuples over [0, lifespan): every
// longEvery-th is long-lived (half the lifespan) and every
// ongoingEvery-th ongoing (0 disables either).
func buildPlanRelation(t *testing.T, d *disk.Disk, n int, lifespan int64, longEvery, ongoingEvery int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	r := relation.Create(d, testSchema)
	b := r.NewBuilder()
	for i := 0; i < n; i++ {
		s := chronon.Chronon(rng.Int63n(lifespan))
		iv := chronon.At(s)
		switch {
		case ongoingEvery > 0 && i%ongoingEvery == 0:
			iv = chronon.NewOngoing(s)
		case longEvery > 0 && i%longEvery == 0:
			s = chronon.Chronon(rng.Int63n(lifespan / 2))
			iv = chronon.New(s, s+chronon.Chronon(lifespan/2))
		}
		if err := b.Append(tuple.New(iv, value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeterminePartIntervalsMatchesPerCandidateSweep: planning from the
// coverage index returns the plan, the candidate curve and the counted
// I/O of the per-candidate sweep it replaced, across the sampler's
// strategies (upfront scan, random top-ups, scan disabled), shard
// floors, candidate grids and an ongoing-heavy relation. A scan that
// replaces the sample mid-loop cannot be reached through
// DeterminePartIntervals — its look-ahead scans upfront whenever any
// candidate would — so TestSamplerIndexFollowsScanSwitch covers it.
func TestDeterminePartIntervalsMatchesPerCandidateSweep(t *testing.T) {
	type rel struct {
		name                               string
		longEvery, ongoingEvery, lifespanD int
	}
	rels := []rel{
		{"longlived", 12, 0, 1},
		{"ongoing-heavy", 9, 3, 1},
		{"dense-duplicates", 5, 0, 1000},
	}
	samplers := []struct {
		name   string
		w      cost.Weights
		noScan bool
	}{
		{"scan", cost.Ratio(5), false},
		{"random", cost.Weights{Rand: 1, Seq: 1e6}, false},
		{"noScan", cost.Ratio(5), true},
	}
	strategies := map[bool]int{} // full-relation sample → configurations
	for _, rl := range rels {
		d := disk.New(page.DefaultSize)
		r := buildPlanRelation(t, d, 1200, int64(100000/rl.lifespanD), rl.longEvery, rl.ongoingEvery)
		var cfgs []PlanConfig
		for _, smp := range samplers {
			for _, buff := range []int{5, 13, 29} {
				for _, step := range []int{1, 0} {
					for _, shards := range []int{0, 4} {
						cfgs = append(cfgs, PlanConfig{BuffSize: buff, Weights: smp.w, CandidateStep: step,
							Shards: shards, DisableScanOptimization: smp.noScan})
					}
				}
			}
		}
		for _, cfg := range cfgs {
			name := fmt.Sprintf("%s/%+v", rl.name, cfg)
			cfg.Rng = rand.New(rand.NewSource(int64(cfg.BuffSize)))
			d.ResetCounters()
			want, wantCands := refDeterminePartIntervals(t, r, cfg)
			wantIO := d.Counters()
			cfg.Rng = rand.New(rand.NewSource(int64(cfg.BuffSize)))
			d.ResetCounters()
			got, gotCands, err := DeterminePartIntervals(r, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: plan\n got %+v\nwant %+v", name, got, want)
			}
			if !reflect.DeepEqual(gotCands, wantCands) {
				t.Fatalf("%s: candidates\n got %+v\nwant %+v", name, gotCands, wantCands)
			}
			if gotIO := d.Counters(); gotIO != wantIO {
				t.Fatalf("%s: I/O %+v, reference %+v", name, gotIO, wantIO)
			}
			strategies[got.SamplesDrawn == int(r.Tuples())]++
		}
	}
	if strategies[true] == 0 || strategies[false] == 0 {
		t.Fatalf("matrix never exercised both full and partial samples: %v", strategies)
	}
}

// TestSamplerIndexFollowsScanSwitch drives the incremental sampler
// through random top-ups, a switch to the scan that replaces the
// sample with a prefix of the shuffled relation, and the growth to the
// full relation; after every step its index must answer exactly as
// the reference sweep over the returned sample.
func TestSamplerIndexFollowsScanSwitch(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := buildPlanRelation(t, d, 3000, 100000, 7, 4)
	pages := mustPages(t, r)
	s, err := newIncrementalSampler(r, cost.Ratio(1), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// With Rand == Seq a scan costs `pages` random reads: demands below
	// that stay random, a larger outstanding demand switches.
	demands := []int{pages / 4, pages / 2, pages/2 + pages + 1, int(r.Tuples())}
	for i, m := range demands {
		sample, err := s.ensure(m)
		if err != nil {
			t.Fatal(err)
		}
		if scanned := i >= 2; s.scanned != scanned {
			t.Fatalf("ensure(%d): scanned=%v, want %v", m, s.scanned, scanned)
		}
		for _, k := range []int{2, 7, 40, pages} {
			want, err := refChooseIntervals(sample, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := chooseIntervals(&s.index, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ensure(%d) k=%d: index cuts %v, sweep %v", m, k, got, want)
			}
			fraction := float64(len(sample)) / float64(r.Tuples())
			gotCache, err := estimateCacheSizes(&s.index, fraction, got, 10)
			if err != nil {
				t.Fatal(err)
			}
			if wantCache := refEstimateCacheSizes(sample, fraction, want, 10); !reflect.DeepEqual(gotCache, wantCache) {
				t.Fatalf("ensure(%d) k=%d: cache %v, reference %v", m, k, gotCache, wantCache)
			}
		}
	}
	if s.indexed != int(r.Tuples()) {
		t.Fatalf("index covers %d of %d tuples", s.indexed, r.Tuples())
	}
}

// BenchmarkDeterminePartIntervals plans one relation of the
// join-longlived benchmark shape: 16,384 128-byte tuples, 8% of them
// long-lived, on v2 pages, with 29 buffer pages for the outer
// partition (32 memory pages less the inner, cache and result pages).
func BenchmarkDeterminePartIntervals(b *testing.B) {
	d := disk.New(page.DefaultSize)
	d.SetPageFormat(page.FormatV2)
	spec := workload.Spec{Tuples: 16384, LongLived: 1311, Lifespan: 1 << 20, Keys: 1311, RecordBytes: 128, Seed: 3}
	r, err := spec.Build(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DeterminePartIntervals(r, PlanConfig{
			BuffSize: 29, Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(1)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
