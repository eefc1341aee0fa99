package main

import (
	"testing"
)

// countedMetrics are the metrics the program counts rather than times;
// they must repeat exactly across runs of one seed.
var countedMetrics = []string{
	"disk.pages_per_op", "partition.candidates", "page.tuples_per_page", "sampling.sample_tuples",
}

// TestDeterminism runs every workload at a tiny size twice on one seed:
// the counted metrics must repeat exactly and verification must pass,
// on that seed and on a second one; a wrong reference must fail the
// run.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload several times")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(cfg runConfig) *outcome {
				t.Helper()
				out, err := w.run(cfg)
				if err != nil {
					t.Fatalf("seed %d trace %v: %v", cfg.seed, cfg.trace, err)
				}
				if err := checkReported(out, cfg.trace); err != nil {
					t.Fatal(err)
				}
				return out
			}

			cfg := runConfig{seed: 7, seconds: 1, size: sizeTiny}
			a, b := run(cfg), run(cfg)
			// join_io_cost. On the serving workloads concurrent queries
			// interleave their page accesses, which can turn a sequential
			// access random, so only the page count repeats there.
			if x, y := a.e2e["io_cost_per_op"].Value, b.e2e["io_cost_per_op"].Value; w.name == "join-longlived" && x != y {
				t.Errorf("io_cost_per_op: %v then %v", x, y)
			}

			cfg.trace = true
			a, b = run(cfg), run(cfg)
			for _, name := range countedMetrics {
				if x, y := a.layers[name].Value, b.layers[name].Value; x != y {
					t.Errorf("%s: %v then %v", name, x, y)
				}
			}

			run(runConfig{seed: 8, seconds: 1, size: sizeTiny})

			cfg = runConfig{seed: 7, seconds: 1, size: sizeTiny, wrongReference: true}
			if _, err := w.run(cfg); err == nil {
				t.Errorf("a wrong reference did not fail the run")
			}
		})
	}
}
