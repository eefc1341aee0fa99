package vtjoin

import (
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/cost"
	"vtjoin/internal/incremental"
	"vtjoin/internal/partition"
)

// View is a materialized valid-time join maintained incrementally
// under appends to either base relation — the incremental-evaluation
// adaptation the paper sketches in Sections 3.1 and 5. The base
// relations are kept partitioned by valid time; an inserted tuple's
// contribution is computed by joining the delta against only the
// partitions that can possibly hold matches, and each fold reports the
// delta result rows it produced. Close the view to reclaim its backing
// temporary files.
type View struct {
	db *DB
	v  *incremental.View
}

// ViewOptions configures NewView.
type ViewOptions struct {
	// MemoryPages is the buffer budget used when choosing the view's
	// valid-time partitioning (default 256).
	MemoryPages int
	// RandomCost weights the partitioning choice (default 5).
	RandomCost float64
	// Seed drives sampling (default 1).
	Seed int64
	// Partitions, when positive, overrides sampling-based planning
	// with an equi-width partitioning of the left relation's lifespan
	// into this many intervals.
	Partitions int
	// Predicate selects the temporal condition maintained pairs must
	// satisfy (default: intersecting intervals, the natural join).
	Predicate Predicate
}

// NewView materializes r ⋈V s as an incrementally maintainable view.
// The valid-time partitioning is chosen by the paper's sampling-based
// planner over r (or equi-width when opts.Partitions is set).
func NewView(r, s *Relation, opts ViewOptions) (*View, error) {
	return NewViewContext(context.Background(), r, s, opts)
}

// NewViewContext is NewView under a context: construction — the
// partitioning passes and the initial join — is cancelled
// cooperatively at page granularity, and on any error (including an
// abort) every temporary created so far is dropped.
func NewViewContext(ctx context.Context, r, s *Relation, opts ViewOptions) (*View, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("vtjoin: nil relation")
	}
	if r.db != s.db {
		return nil, fmt.Errorf("vtjoin: relations belong to different DBs")
	}
	if opts.MemoryPages == 0 {
		opts.MemoryPages = 256
	}
	if opts.RandomCost == 0 {
		opts.RandomCost = 5
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	mask, err := opts.Predicate.mask()
	if err != nil {
		return nil, err
	}

	var parting partition.Partitioning
	if opts.Partitions > 0 {
		ls := r.Lifespan()
		if ls.IsNull() {
			parting = partition.Single()
		} else {
			var cuts []Chronon
			width := ls.Duration() / int64(opts.Partitions)
			if width < 1 {
				width = 1
			}
			for c := int64(ls.Start) + width; c < int64(ls.End) && len(cuts) < opts.Partitions-1; c += width {
				cuts = append(cuts, Chronon(c))
			}
			parting, err = partition.FromCuts(cuts)
			if err != nil {
				return nil, err
			}
		}
	} else {
		plan, _, err := partition.DeterminePartIntervals(r.internal(), partition.PlanConfig{
			BuffSize: maxInt(1, opts.MemoryPages-3),
			Weights:  cost.Ratio(opts.RandomCost),
			Rng:      rand.New(rand.NewSource(opts.Seed)),
		})
		if err != nil {
			return nil, err
		}
		parting = plan.Partitioning
	}

	v, err := incremental.New(ctx, r.internal(), s.internal(), incremental.Config{
		Partitioning: parting,
		Predicate:    mask,
	})
	if err != nil {
		return nil, err
	}
	return &View{db: r.db, v: v}, nil
}

// InsertLeft appends a tuple to the left base relation and folds its
// join contribution into the view.
func (v *View) InsertLeft(t Tuple) error {
	_, err := v.v.InsertLeft(nil, t)
	return err
}

// InsertRight appends a tuple to the right base relation and folds its
// join contribution into the view.
func (v *View) InsertRight(t Tuple) error {
	_, err := v.v.InsertRight(nil, t)
	return err
}

// InsertLeftContext appends a tuple to the left base relation under a
// context checked at page granularity and returns the delta result
// rows this append contributed to the view (safe to retain).
func (v *View) InsertLeftContext(ctx context.Context, t Tuple) ([]Tuple, error) {
	return v.v.InsertLeft(ctx, t)
}

// InsertRightContext is InsertLeftContext for the right base relation.
func (v *View) InsertRightContext(ctx context.Context, t Tuple) ([]Tuple, error) {
	return v.v.InsertRight(ctx, t)
}

// Sync flushes the trailing partial result page to disk. Folds batch
// result rows through an open page, so call Sync before scanning
// Result() directly.
func (v *View) Sync() error { return v.v.Sync() }

// Close drops the view's backing structures (both partitioned base
// copies and the materialized result). Idempotent.
func (v *View) Close() error { return v.v.Close() }

// Result returns the materialized view as a relation.
func (v *View) Result() *Relation {
	return &Relation{db: v.db, rel: v.v.Result()}
}

// Tuples materializes the view's contents, including rows still
// buffered in the view's open result page.
func (v *View) Tuples() ([]Tuple, error) { return v.v.Tuples() }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
