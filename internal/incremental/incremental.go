// Package incremental maintains a materialized valid-time join under
// appends, realizing the incremental-evaluation adaptation the paper
// sketches in Sections 3.1 and 5 (and develops in [SSJ93]): the base
// relations are kept partitioned by valid time, and an inserted
// tuple's contribution to the view is computed by joining the delta
// against only the partitions it can possibly match.
//
// Because tuples are physically stored in the *last* partition they
// overlap, a tuple matching the delta may be stored in any partition
// whose interval ends at or after the delta's start. Per-partition
// min-start metadata prunes the scan: a partition whose every stored
// tuple begins after the delta ends cannot contribute.
//
// The in-memory match reuses the join package's kernel layer
// (join.Matcher): resident batches meet the delta through the same
// plane sweep and key-hash index the partition join uses, and
// any intersection-implying predicate mask is supported.
//
// Views honor the execution contract of the rest of the tree: every
// entry point takes a context checked at page granularity (aborts
// surface as *execctx.AbortError), construction drops its temporaries
// on every error path, and Close reclaims the partition files and the
// result relation — the temp-file trace audit passes over a view's
// whole lifecycle.
package incremental

import (
	"context"
	"fmt"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/trace"
	"vtjoin/internal/tuple"
)

// View is a materialized r ⋈V s maintained under appends to either
// base relation. A View is not safe for concurrent use.
type View struct {
	d       *disk.Disk
	plan    *schema.JoinPlan
	parting partition.Partitioning
	left    *partition.Partitioned
	right   *partition.Partitioned
	result  *relation.Relation
	sink    *relation.Builder
	// deltaM holds a single left-side delta as its outer batch and
	// probes right-partition pages through it; pageM holds a
	// left-partition page (or, during the initial evaluation, a whole
	// left partition) and is probed by right-side deltas. Both reuse
	// their index allocations across folds.
	deltaM *join.Matcher
	pageM  *join.Matcher
	pg     *page.Page
	stats  Stats
	broken error // a failed fold poisons the view (partial delta applied)
	closed bool
}

// Config configures view construction.
type Config struct {
	// Partitioning fixes the valid-time partitioning. The view keeps
	// its base relations partitioned for its lifetime, so the caller
	// chooses the granularity (e.g. via
	// partition.DeterminePartIntervals on a representative relation).
	// The zero value is the single-partition trivial partitioning.
	Partitioning partition.Partitioning
	// Predicate is the intersection-implying time predicate tuple
	// pairs must satisfy (zero value: chronon.MaskIntersects, the
	// valid-time natural join).
	Predicate join.Predicate
	// Tracer, when non-nil, records the construction phases
	// (partitioning, initial join) as spans with exact per-phase I/O
	// attribution. Nil disables tracing.
	Tracer *trace.Tracer
}

// Stats counts a view's work, attributing device I/O to construction
// versus maintenance.
type Stats struct {
	// InitialRows is the result cardinality of the initial evaluation.
	InitialRows int64
	// Appends counts folded base-relation inserts; DeltaRows the
	// result rows those folds produced.
	Appends   int64
	DeltaRows int64
	// Build is the device I/O of New (partitioning + initial join);
	// Maintenance accumulates the I/O of every fold since.
	Build       disk.Counters
	Maintenance disk.Counters
}

// Stats returns the view's accumulated counters.
func (v *View) Stats() Stats { return v.stats }

// New materializes r ⋈V s and returns a maintainable view. The initial
// evaluation partitions both relations with cfg.Partitioning and joins
// partition pairs; the partitioned base relations are retained as the
// view's update structure. ctx cancels construction cooperatively at
// page granularity (nil: never cancelled); on any error — including an
// abort — every temporary created so far is dropped.
func New(ctx context.Context, r, s *relation.Relation, cfg Config) (view *View, err error) {
	if r.Disk() != s.Disk() {
		return nil, fmt.Errorf("incremental: relations on different devices")
	}
	plan, err := schema.PlanNaturalJoin(r.Schema(), s.Schema())
	if err != nil {
		return nil, err
	}
	d := r.Disk()
	c0 := d.Counters()
	v := &View{d: d, plan: plan, parting: cfg.Partitioning, pg: page.MustNew(d.PageSize())}
	defer func() {
		if err != nil {
			v.discard()
		}
	}()

	v.deltaM, err = join.NewMatcher(plan, cfg.Predicate, join.KernelSweep, nil)
	if err != nil {
		return nil, err
	}
	v.pageM, err = join.NewMatcher(plan, cfg.Predicate, join.KernelSweep, nil)
	if err != nil {
		return nil, err
	}

	tr := cfg.Tracer
	tr.Begin("incremental: partition")
	v.left, v.right, err = partition.DoPartitioningPair(ctx, r, s, cfg.Partitioning)
	tr.End()
	if err != nil {
		return nil, err
	}
	v.result = relation.Create(d, plan.Output)
	v.sink = v.result.NewBuilder()

	// Initial evaluation: join left partitions against the right
	// partitions that can hold matches, one left partition per outer
	// batch so the kernel layer sweeps page-sized inner batches
	// instead of probing tuple by tuple. Each right tuple is stored
	// exactly once (no replication) and each left batch holds each
	// left tuple exactly once, so each qualifying pair is produced
	// exactly once: a right tuple stored in a partition before the
	// batch's first overlapping partition ends before every batch
	// tuple starts, and the matcher rejects non-overlapping pairs.
	tr.Begin("incremental: initial join")
	err = v.initialJoin(ctx)
	tr.End()
	if err != nil {
		return nil, err
	}
	if err = v.sink.Flush(); err != nil {
		return nil, err
	}
	v.stats.Build = d.Counters().Sub(c0)
	return v, nil
}

// initialJoin performs the construction-time join of the freshly
// partitioned base relations.
func (v *View) initialJoin(ctx context.Context) error {
	for i := 0; i < v.left.N(); i++ {
		if err := execctx.Check(ctx, "incremental: initial join"); err != nil {
			return err
		}
		if v.left.Tuples(i) == 0 {
			continue
		}
		ts, err := v.left.ReadAll(i)
		if err != nil {
			return err
		}
		v.pageM.Reset(ts)
		first := v.right.N()
		maxEnd := ts[0].V.End
		for _, x := range ts {
			f, _ := v.parting.Range(x.V)
			if f < first {
				first = f
			}
			if x.V.End > maxEnd {
				maxEnd = x.V.End
			}
		}
		err = v.scanPartitions(ctx, v.right, first, maxEnd, "incremental: initial join", func(ys []tuple.Tuple) error {
			return v.pageM.ProbeBatch(ys, func(z tuple.Tuple) error {
				v.stats.InitialRows++
				return v.sink.AppendUnchecked(z)
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanPartitions streams the pages of other's partitions [first, N) to
// fn, skipping partitions whose MinStart exceeds maxEnd (every tuple
// stored there starts after the probing side ends) and checking ctx
// once per page read. Matching tuples can only be stored in partitions
// at or after the probing interval's first overlapping partition: a
// tuple stored earlier has its *last* overlapping partition before it,
// so it ends before the probing interval starts.
func (v *View) scanPartitions(ctx context.Context, other *partition.Partitioned, first int, maxEnd chronon.Chronon, op string, fn func(ys []tuple.Tuple) error) error {
	for l := first; l < other.N(); l++ {
		if other.Tuples(l) == 0 || other.MinStart(l) > maxEnd {
			continue
		}
		for idx := 0; idx < other.Pages(l); idx++ {
			if err := execctx.Check(ctx, op); err != nil {
				return err
			}
			if err := other.ReadPage(l, idx, v.pg); err != nil {
				return err
			}
			ys, err := v.pg.Tuples()
			if err != nil {
				return err
			}
			if err := fn(ys); err != nil {
				return err
			}
		}
	}
	return nil
}

// usable rejects operations on closed or poisoned views.
func (v *View) usable() error {
	if v.closed {
		return fmt.Errorf("incremental: view is closed")
	}
	if v.broken != nil {
		return fmt.Errorf("incremental: view poisoned by failed fold: %w", v.broken)
	}
	return nil
}

// InsertLeft appends x to the left base relation and folds its
// contribution into the view, returning the delta result rows this
// append produced (safe to retain). The fold probes only the right
// partitions that can hold matches, checking ctx at page granularity.
// A fold that fails after the base insert leaves the view poisoned —
// the base holds x but the view may lack part of its delta — and every
// later operation except Close reports the poisoning.
func (v *View) InsertLeft(ctx context.Context, x tuple.Tuple) ([]tuple.Tuple, error) {
	if err := v.usable(); err != nil {
		return nil, err
	}
	c0 := v.d.Counters()
	delta, err := v.foldLeft(ctx, x)
	v.stats.Maintenance = v.stats.Maintenance.Add(v.d.Counters().Sub(c0))
	if err != nil {
		v.broken = err
		return nil, err
	}
	v.stats.Appends++
	v.stats.DeltaRows += int64(len(delta))
	return delta, nil
}

func (v *View) foldLeft(ctx context.Context, x tuple.Tuple) ([]tuple.Tuple, error) {
	if err := v.left.Insert(x); err != nil {
		return nil, err
	}
	first, _ := v.parting.Range(x.V)
	v.deltaM.Reset([]tuple.Tuple{x})
	var delta []tuple.Tuple
	err := v.scanPartitions(ctx, v.right, first, x.V.End, "incremental: fold left", func(ys []tuple.Tuple) error {
		return v.deltaM.ProbeBatch(ys, func(z tuple.Tuple) error {
			delta = append(delta, z)
			return v.sink.AppendUnchecked(z)
		})
	})
	if err != nil {
		return nil, err
	}
	return delta, nil
}

// InsertRight appends y to the right base relation and folds its
// contribution into the view, returning the delta result rows. Same
// contract as InsertLeft, mirrored.
func (v *View) InsertRight(ctx context.Context, y tuple.Tuple) ([]tuple.Tuple, error) {
	if err := v.usable(); err != nil {
		return nil, err
	}
	c0 := v.d.Counters()
	delta, err := v.foldRight(ctx, y)
	v.stats.Maintenance = v.stats.Maintenance.Add(v.d.Counters().Sub(c0))
	if err != nil {
		v.broken = err
		return nil, err
	}
	v.stats.Appends++
	v.stats.DeltaRows += int64(len(delta))
	return delta, nil
}

func (v *View) foldRight(ctx context.Context, y tuple.Tuple) ([]tuple.Tuple, error) {
	if err := v.right.Insert(y); err != nil {
		return nil, err
	}
	first, _ := v.parting.Range(y.V)
	var delta []tuple.Tuple
	err := v.scanPartitions(ctx, v.left, first, y.V.End, "incremental: fold right", func(xs []tuple.Tuple) error {
		// The matcher's outer side is the plan's left side, so a
		// right-side delta probes page-sized outer batches of left
		// tuples.
		v.pageM.Reset(xs)
		return v.pageM.Probe(y, func(z tuple.Tuple) error {
			delta = append(delta, z)
			return v.sink.AppendUnchecked(z)
		})
	})
	if err != nil {
		return nil, err
	}
	return delta, nil
}

// Sync flushes the trailing partial result page to disk. Folds batch
// result rows through the builder's open page — flushing only when a
// page fills — so a view absorbing many small deltas writes full pages
// instead of one near-empty page per append; call Sync when the
// materialized relation must be complete on disk (e.g. before handing
// Result() to a scan-based consumer).
func (v *View) Sync() error {
	if err := v.usable(); err != nil {
		return err
	}
	return v.sink.Flush()
}

// Result returns the materialized view relation, or nil once the view
// is closed. Rows from folds since the last Sync may still be
// buffered; call Sync first if the consumer scans pages directly.
func (v *View) Result() *relation.Relation { return v.result }

// Tuples materializes the view's contents — the stored pages (a
// counted sequential scan) plus any rows still buffered in the open
// builder page — without forcing a flush. It errors on a closed view
// (whose backing relation is gone) or a poisoned one (whose contents
// are a partial delta).
func (v *View) Tuples() ([]tuple.Tuple, error) {
	if err := v.usable(); err != nil {
		return nil, err
	}
	out, err := v.result.All()
	if err != nil {
		return nil, err
	}
	buf, err := v.sink.Buffered()
	if err != nil {
		return nil, err
	}
	return append(out, buf...), nil
}

// Close drops the view's backing structures: both partitioned base
// copies and the materialized result. Idempotent; the first error is
// returned but all drops are attempted.
func (v *View) Close() error {
	if v.closed {
		return nil
	}
	v.closed = true
	return v.discard()
}

// discard drops whatever backing structures exist, keeping the first
// error. Used by Close and by New's error paths, where only a prefix
// of the structures may have been created.
func (v *View) discard() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if v.left != nil {
		keep(v.left.Drop())
		v.left = nil
	}
	if v.right != nil {
		keep(v.right.Drop())
		v.right = nil
	}
	if v.result != nil {
		keep(v.result.Drop())
		v.result = nil
	}
	return first
}

// Cost returns the weighted cost of all device I/O since the given
// baseline counter snapshot; convenience for measuring maintenance.
func Cost(d *disk.Disk, since disk.Counters, w cost.Weights) float64 {
	return w.Of(d.Counters().Sub(since))
}
