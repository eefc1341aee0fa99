package join

import (
	"math/rand"
	"strings"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
)

// TestRunConfigFields pins how Run treats Config fields an algorithm
// cannot honour: it refuses them before any I/O instead of dropping
// them. Fields an algorithm does honour (Plan for every algorithm) or
// documents as ignored (the planner fields outside the partition join)
// must leave the result equal to the oracle.
func TestRunConfigFields(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := workload{keys: 10, n: 250, longEvery: 7, lifespan: 3000}
	rT, sT := w.generate(rng, 1), w.generate(rng, 2)
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rT)
	s := load(t, d, deptSchema, sT)
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(plan, rT, sT)

	var frags relation.CountSink
	cases := []struct {
		name    string
		algo    Algorithm
		swap    bool // evaluate (s, r) under plan.Swap()
		cfg     Config
		wantErr string // empty: must succeed and match the oracle
	}{
		{name: "sort-merge refuses LeftFragments", algo: AlgorithmSortMerge,
			cfg: Config{LeftFragments: &frags}, wantErr: "not supported by sort-merge"},
		{name: "unknown algorithm", algo: Algorithm(3), wantErr: "unknown algorithm 3"},
		{name: "negative algorithm", algo: Algorithm(-1), wantErr: "unknown algorithm -1"},
		{name: "partition needs Rng or Partitioning", algo: AlgorithmPartition,
			cfg: Config{Weights: cost.Ratio(5)}, wantErr: "Rng is required"},
		{name: "sort-merge honours Plan", algo: AlgorithmSortMerge, swap: true},
		{name: "nested loop honours Plan", algo: AlgorithmNestedLoop, swap: true},
		{name: "partition honours Plan", algo: AlgorithmPartition, swap: true,
			cfg: Config{Rng: rand.New(rand.NewSource(1))}},
		{name: "sort-merge ignores planner fields", algo: AlgorithmSortMerge,
			cfg: Config{Weights: cost.Ratio(10), Rng: rand.New(rand.NewSource(1)), CandidateStep: 3}},
		{name: "nested loop ignores planner fields", algo: AlgorithmNestedLoop,
			cfg: Config{Weights: cost.Ratio(10), Rng: rand.New(rand.NewSource(1)), CandidateStep: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MemoryPages = 8
			left, right := r, s
			if tc.swap {
				left, right = s, r
				cfg.Plan = plan.Swap()
			}
			before := d.Counters()
			var sink relation.CollectSink
			_, err := Run(tc.algo, left, right, &sink, cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if moved := d.Counters().Sub(before); moved != (disk.Counters{}) {
					t.Errorf("refused configuration still moved the device: %+v", moved)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, tc.name, sink.Tuples, append(want[:0:0], want...))
		})
	}
}
