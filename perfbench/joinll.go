package main

import (
	"fmt"
	"time"

	"vtjoin"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
	"vtjoin/internal/workload"
)

// join-longlived: the paper's partition join on its own workload.
// Both relations hold paper-style 128-byte tuples, 8% of them
// long-lived (covering half the lifespan); the key domain is sized so
// the result has about as many tuples as each input. Pages are v2 and
// the join's memory budget is about a third of either relation.

type joinSizes struct {
	Tuples    int   // tuples per relation
	LongLived int   // long-lived tuples per relation
	Lifespan  int64 // chronons
	Keys      int64 // join-key domain
	Memory    int   // MemoryPages of every join
}

func joinSizesFor(c sizeClass) joinSizes {
	if c == sizeTiny {
		return joinSizes{Tuples: 1024, LongLived: 82, Lifespan: 1 << 16, Keys: 82, Memory: 8}
	}
	return joinSizes{Tuples: 16384, LongLived: 1311, Lifespan: 1 << 20, Keys: 1311, Memory: 32}
}

const (
	joinRecordBytes = 128 // the paper's tuple size
	joinRandomCost  = 5   // the paper's random:sequential cost ratio
	joinSampleSeed  = 1   // Options.Seed: the partition join's sampling seed
	joinFormat      = page.FormatV2
)

var (
	joinLeftSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "rid", Kind: value.KindInt},
		schema.Column{Name: "rpad", Kind: value.KindBytes},
	)
	joinRightSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "sid", Kind: value.KindInt},
		schema.Column{Name: "spad", Kind: value.KindBytes},
	)
)

// joinInputs generates both relations' tuples from the workload seed.
func joinInputs(z joinSizes, seed int64) (rt, st []tuple.Tuple, err error) {
	spec := workload.Spec{Tuples: z.Tuples, LongLived: z.LongLived, Lifespan: z.Lifespan,
		Keys: z.Keys, RecordBytes: joinRecordBytes}
	spec.Seed = seed*2 + 1
	if rt, err = spec.Generate(); err != nil {
		return nil, nil, err
	}
	spec.Seed = seed*2 + 2
	if st, err = spec.Generate(); err != nil {
		return nil, nil, err
	}
	return rt, st, nil
}

// rowHash is the cheap per-row accumulation the timed path keeps: a
// mix of the row's interval and every value's hash.
func rowHash(t tuple.Tuple) uint64 {
	h := value.Mix64(uint64(t.V.Start)) ^ value.Mix64(uint64(t.V.End)+0x9e3779b97f4a7c15)
	for _, v := range t.Values {
		h = value.Mix64(h ^ v.Hash())
	}
	return h
}

type rowSum struct {
	Sum   uint64
	Count int64
}

func (c *rowSum) add(t tuple.Tuple) { c.Sum += rowHash(t); c.Count++ }

// joinReference evaluates the join with join.Reference per key bucket
// (pairs only match within a key) and returns its row checksum.
func joinReference(plan *schema.JoinPlan, rt, st []tuple.Tuple) rowSum {
	keyOf := func(t tuple.Tuple) int64 { return t.Values[0].AsInt() }
	right := map[int64][]tuple.Tuple{}
	for _, t := range st {
		right[keyOf(t)] = append(right[keyOf(t)], t)
	}
	left := map[int64][]tuple.Tuple{}
	for _, t := range rt {
		left[keyOf(t)] = append(left[keyOf(t)], t)
	}
	var sum rowSum
	for k, xs := range left {
		for _, z := range join.Reference(plan, xs, right[k]) {
			sum.add(z)
		}
	}
	return sum
}

type joinSetup struct {
	db   *vtjoin.DB
	r, s *vtjoin.Relation
	rt   []tuple.Tuple
	st   []tuple.Tuple
}

func setupJoin(z joinSizes, seed int64) (*joinSetup, error) {
	rt, st, err := joinInputs(z, seed)
	if err != nil {
		return nil, err
	}
	db := vtjoin.Open(vtjoin.WithPageFormat(joinFormat))
	r, err := db.Load(joinLeftSchema, rt)
	if err != nil {
		return nil, err
	}
	s, err := db.Load(joinRightSchema, st)
	if err != nil {
		return nil, err
	}
	return &joinSetup{db: db, r: r, s: s, rt: rt, st: st}, nil
}

// joinCall is one timed JoinInto.
type joinCall struct {
	wall   time.Duration
	gap    time.Duration // idle time since the previous call ended
	sum    rowSum
	cost   float64
	io     vtjoin.IOCounters
	traced bool // recorded as a span
}

// joinLoop runs JoinInto back to back until the deadline (at least
// minCalls times), recording every other call as a span when tr is
// non-nil.
func joinLoop(js *joinSetup, z joinSizes, seconds float64, minCalls int, tr *tracer) ([]joinCall, error) {
	opts := vtjoin.Options{MemoryPages: z.Memory, RandomCost: joinRandomCost, Seed: joinSampleSeed}
	var calls []joinCall
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	last := time.Now()
	for len(calls) < minCalls || time.Now().Before(deadline) {
		var c joinCall
		js.db.ResetIOCounters()
		start := time.Now()
		c.gap = start.Sub(last)
		phases, err := vtjoin.JoinInto(js.r, js.s, opts, func(t vtjoin.Tuple) error {
			c.sum.add(t)
			return nil
		})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("JoinInto: %w", err)
		}
		last = end
		c.wall = end.Sub(start)
		c.io = js.db.IOCounters()
		for _, ph := range phases {
			c.cost += ph.Cost
		}
		op := len(calls)
		c.traced = alternate(tr, op, 1).record(int64(op), 0, "vtjoin.JoinInto", start, end) != 0
		calls = append(calls, c)
	}
	return calls, nil
}

// checkJoinCalls verifies every call's rows against the reference and
// that the counted cost repeated exactly.
func checkJoinCalls(calls []joinCall, want rowSum) error {
	for i, c := range calls {
		if c.sum != want {
			return fmt.Errorf("join %d returned %d rows (checksum %016x), reference %d rows (checksum %016x)",
				i, c.sum.Count, c.sum.Sum, want.Count, want.Sum)
		}
		if c.cost != calls[0].cost {
			return fmt.Errorf("join %d counted I/O cost %v, join 0 counted %v", i, c.cost, calls[0].cost)
		}
	}
	return nil
}

func runJoinLonglived(cfg runConfig) (*outcome, error) {
	z := joinSizesFor(cfg.size)
	var setups []float64
	var js *joinSetup
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := setupJoin(z, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if js != nil {
			_ = js.db.Close()
		}
		js = next
	}
	defer js.db.Close()
	plan, err := schema.PlanNaturalJoin(joinLeftSchema, joinRightSchema)
	if err != nil {
		return nil, err
	}
	want := joinReference(plan, js.rt, js.st)
	if cfg.wrongReference {
		want.Sum++
	}

	out := &outcome{rates: map[string]float64{"closedLoopCallers": 1, "memoryPages": float64(z.Memory)}}
	if cfg.trace {
		return traceJoinLonglived(cfg, z, js, want, out)
	}

	reg := beginRegion()
	calls, err := joinLoop(js, z, cfg.seconds, 3, nil)
	rr := reg.end()
	if err != nil {
		return nil, err
	}
	if err := checkJoinCalls(calls, want); err != nil {
		return nil, err
	}
	walls := make([]float64, len(calls))
	for i, c := range calls {
		walls[i] = ms(c.wall)
	}
	n := float64(len(calls))
	p50, p90 := quantile(walls, 0.5), quantile(walls, 0.9)
	out.attempted = int64(len(calls))
	out.e2e = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {rr.PeakMB, "MiB"},
		"cpu_ms_per_op":  {ms(rr.CPU) / n, "ms"},
		"op_p50_ms":      {p50, "ms"},
		"io_cost_per_op": {calls[0].cost, "weighted_pages"},
	}
	out.named = []namedMetric{
		{"setup_s", median(setups), "s"},
		{"peak_heap_mb", rr.PeakMB, "MiB"},
		{"failed_ratio", 0, "ratio"},
		{"cpu_ms_per_op", ms(rr.CPU) / n, "ms"},
		{"join_p50_ms", p50, "ms"},
		{"join_p90_ms", p90, "ms"},
		{"join_io_cost", calls[0].cost, "weighted_pages"},
		{"joins", n, "count"},
	}
	return out, nil
}

// traceJoinLonglived is the traced run: the same loop with every
// other call traced (the two halves' medians give the tracing
// overhead), then the layer ladder on the same inputs.
func traceJoinLonglived(cfg runConfig, z joinSizes, js *joinSetup, want rowSum, out *outcome) (*outcome, error) {
	tr := newTracer()
	calls, err := joinLoop(js, z, cfg.seconds, 4, tr)
	if err != nil {
		return nil, err
	}
	if err := checkJoinCalls(calls, want); err != nil {
		return nil, err
	}
	var walls, plain, traced []float64
	for _, c := range calls {
		walls = append(walls, ms(c.wall))
		if c.traced {
			traced = append(traced, ms(c.wall))
		} else {
			plain = append(plain, ms(c.wall))
		}
	}
	var gaps []float64
	for _, c := range calls[1:] {
		gaps = append(gaps, ms(c.gap))
	}
	io := calls[0].io
	pages := float64(io.RandomReads + io.SequentialReads + io.RandomWrites + io.SequentialWrites)

	// The ladder runs on a private device holding the same tuples in
	// the same page format.
	d := disk.New(js.db.PageSize())
	d.SetPageFormat(joinFormat)
	r, err := relation.FromTuples(d, joinLeftSchema, js.rt)
	if err != nil {
		return nil, err
	}
	s, err := relation.FromTuples(d, joinRightSchema, js.st)
	if err != nil {
		return nil, err
	}
	in := &ladderInput{
		d: d, r: r, s: s, memory: z.Memory,
		joinQuery: fmt.Sprintf("scan r | join scan s using partition memory %d", z.Memory),
		reps:      ladderReps(cfg.size),
	}
	in.queries = []string{in.joinQuery}
	lad, err := runLadder(tr, in)
	if err != nil {
		return nil, err
	}

	joinP50 := median(walls)
	explained := lad.planMS + lad.phasePartitionMS + lad.phaseJoinMS
	out.attempted = int64(len(calls))
	out.layers = lad.metrics
	out.layers["disk.pages_per_op"] = metric{pages, "pages"}
	out.layers["disk.random_share"] = metric{float64(io.RandomReads+io.RandomWrites) / pages, "ratio"}
	out.layers["disk.bytes_per_op"] = metric{float64(io.BytesMoved), "bytes"}
	out.layers["bench.gen_late_p99_ms"] = metric{quantile(gaps, 0.99), "ms"}
	out.layers["bench.trace_overhead_pct"] = metric{overheadPct(median(traced), median(plain)), "%"}
	out.layers["bench.unexplained_share"] = metric{(joinP50 - explained) / joinP50, "ratio"}

	root := node("vtjoin.JoinInto (join_p50_ms)", joinP50,
		node("partition.plan (DeterminePartIntervals)", lad.planMS,
			node("sampling.draw", lad.drawMS),
			node(fmt.Sprintf("sampling.quantiles x %d candidates", lad.candidates), lad.quantilesMS*float64(lad.candidates))),
		node("join.phase_partition", lad.phasePartitionMS,
			node("partition.grace (DoPartitioningPair)", lad.graceMS)),
		node("join.phase_join", lad.phaseJoinMS,
			node("join.probe (Matcher.ProbeBatch, all inner tuples)", lad.probeAllMS)),
	)
	out.selfRows = selfTable(root)
	if err := finishTrace(cfg, "join-longlived", tr, out); err != nil {
		return nil, err
	}
	return out, nil
}
