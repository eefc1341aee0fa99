package join

import (
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/cost"
	"vtjoin/internal/partition"
	"vtjoin/internal/prefetch"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/trace"
)

// Algorithm selects one of the three disk-based join algorithms.
type Algorithm int

// The join algorithms, compared in the paper under one buffer budget
// and one I/O cost model.
const (
	AlgorithmPartition Algorithm = iota
	AlgorithmSortMerge
	AlgorithmNestedLoop
)

var algorithmNames = [...]string{
	AlgorithmPartition:  "partition",
	AlgorithmSortMerge:  "sort-merge",
	AlgorithmNestedLoop: "nested-loop",
}

// Valid reports whether a names one of the join algorithms.
func (a Algorithm) Valid() bool { return a >= 0 && int(a) < len(algorithmNames) }

// String names the algorithm.
func (a Algorithm) String() string {
	if !a.Valid() {
		return "invalid"
	}
	return algorithmNames[a]
}

// Config configures one join evaluation, whichever algorithm runs it.
// Every algorithm reads Ctx, MemoryPages, TimePredicate, Plan,
// Sequential and Tracer. Weights, Rng, CandidateStep and
// Partitioning are the partition join's planner inputs; only the
// partition join reads them. LeftFragments is honoured by the
// partition and nested-loop joins; sort-merge refuses it.
type Config struct {
	// Ctx cancels the join cooperatively: every phase checks it at
	// page-granularity boundaries (per sampled candidate, Grace input
	// page, partition, outer block, sort run and streamed page) and
	// aborts with an error wrapping ctx.Err(). Partition, sort-run,
	// cache-spill and scratch files are removed on abort. Nil means
	// never cancelled.
	Ctx context.Context
	// MemoryPages is the total buffer allocation M. The partition join
	// holds an outer partition in M-3 pages and one page each for the
	// inner relation, the tuple cache and the result (Figure 3).
	// Sort-merge sorts both inputs with M pages; its merge keeps one
	// page per input cursor, one result page and one spill-probe page,
	// and devotes the rest to the live-tuple windows, whose overflow
	// spills to disk and is re-probed — the "backing up" of Section
	// 4.3. Nested loop reads the outer relation in blocks of M-2 pages
	// beside one page each for the inner scan and the result.
	MemoryPages int
	// Weights is the random:sequential cost model the partition join
	// plans with (it changes which plan is chosen, not what I/O is
	// counted).
	Weights cost.Weights
	// Rng drives the partition join's sampling. Required by the
	// partition join unless Partitioning is set.
	Rng *rand.Rand
	// CandidateStep is passed to partition.DeterminePartIntervals.
	CandidateStep int
	// Partitioning, if non-nil, makes the partition join skip
	// determinePartIntervals and use the given partitioning directly
	// (incremental evaluation, sharding, and tests exercising
	// adversarial partitionings).
	Partitioning *partition.Partitioning
	// TimePredicate restricts matches to pairs whose timestamps stand
	// in the given Allen relations (zero = intersecting intervals, the
	// natural join). Must imply intersection: partitioned evaluation
	// relies on matching pairs co-existing in some partition, and the
	// merge on their co-existing in its live windows.
	TimePredicate Predicate
	// LeftFragments, when non-nil, turns the evaluation into the match
	// phase of a valid-time LEFT OUTER join: for every left (outer)
	// tuple, the maximal sub-intervals of its timestamp not covered by
	// any match are emitted to this sink as null-padded tuples. The
	// partition join's outer area tracks per-tuple coverage until every
	// partition the tuple overlaps has been joined, and each nested-loop
	// outer block sees the whole inner relation, so coverage is
	// complete when a tuple retires. Sort-merge returns an error: its
	// spill files cannot carry coverage.
	LeftFragments relation.Sink
	// Plan overrides the derived natural-join plan; used to evaluate
	// with swapped inputs while keeping the original output layout
	// (right outer joins via schema.JoinPlan.Swap). Nil derives the
	// plan from the relation schemas.
	Plan *schema.JoinPlan
	// Sequential disables the engine's concurrency (the partition
	// join's parallel Grace passes, and the page-prefetch pipelines of
	// every algorithm), running exactly the paper's single-threaded
	// evaluation. Counters and results are byte-identical either way —
	// the determinism tests assert it — so the switch exists for those
	// tests and for fault plans whose count-based triggers depend on
	// the global operation order.
	Sequential bool
	// Tracer, when non-nil, records per-phase spans (per partition,
	// outer block, sort pass and merge), the planner's candidate cost
	// curve, tuple-cache volumes and kernel-guard decisions, and (with
	// trace.Options.Audit) runs the invariant audits: partition
	// coverage, partitioning structure, buffer-budget balance and cache
	// paging symmetry. Tracing does not change results or counters.
	Tracer *trace.Tracer
}

// PartitionConfig and SortMergeConfig are kept for perfbench, which
// compiles against these names.
type (
	PartitionConfig = Config
	SortMergeConfig = Config
)

// Run evaluates r ⋈V s with algo, streaming the result to sink. It is
// the one place that chooses between the algorithms.
func Run(algo Algorithm, r, s *relation.Relation, sink relation.Sink, cfg Config) (*cost.Report, error) {
	switch algo {
	case AlgorithmPartition:
		rep, _, err := Partition(r, s, sink, cfg)
		return rep, err
	case AlgorithmSortMerge:
		rep, _, err := SortMerge(r, s, sink, cfg)
		return rep, err
	case AlgorithmNestedLoop:
		return NestedLoop(r, s, sink, cfg)
	}
	return nil, fmt.Errorf("join: unknown algorithm %d", algo)
}

// prepare checks that both inputs live on one device and returns the
// join plan (cfg.Plan, or the natural-join plan of their schemas) and
// the normalized time predicate.
func (cfg *Config) prepare(r, s *relation.Relation) (*schema.JoinPlan, Predicate, error) {
	if r.Disk() != s.Disk() {
		return nil, 0, fmt.Errorf("join: input relations live on different devices")
	}
	plan := cfg.Plan
	if plan == nil {
		var err error
		if plan, err = schema.PlanNaturalJoin(r.Schema(), s.Schema()); err != nil {
			return nil, 0, err
		}
	}
	pred, err := normalizePredicate(cfg.TimePredicate)
	if err != nil {
		return nil, 0, err
	}
	return plan, pred, nil
}

// prefetchDepth is the page-prefetch depth for the configured budget,
// 0 (inline reads) when Sequential.
func (cfg *Config) prefetchDepth() int {
	if cfg.Sequential {
		return 0
	}
	return prefetch.DepthFor(cfg.MemoryPages)
}
