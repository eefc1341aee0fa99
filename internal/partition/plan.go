package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/execctx"
	"vtjoin/internal/relation"
	"vtjoin/internal/sampling"
	"vtjoin/internal/trace"
)

// PlanConfig configures determinePartIntervals.
type PlanConfig struct {
	// Ctx cancels the planning phase cooperatively: it is checked per
	// candidate partition size and per page of the sampler's scan. Nil
	// means never cancelled.
	Ctx context.Context
	// BuffSize is the number of buffer pages available to hold an outer
	// relation partition (Figure 3's "buffSize" area; the inner page,
	// tuple-cache page and result page are budgeted separately).
	BuffSize int
	// Weights is the random:sequential access cost model used to score
	// candidate partition sizes.
	Weights cost.Weights
	// Rng drives sampling. Required.
	Rng *rand.Rand
	// CandidateStep is the granularity of the partSize search. The
	// paper's Appendix A.2 evaluates every partSize from 1 to buffSize;
	// the cost curve is the sum of a monotonically increasing sampling
	// cost and a monotonically decreasing cache-paging cost (Figure 4),
	// so a coarser grid finds a near-minimal candidate at a fraction of
	// the planning CPU time. Zero selects an automatic step of
	// buffSize/64 (at least 1), so a buffSize below 128 still evaluates
	// every partSize.
	CandidateStep int
	// TuplesPerPage converts tuple-count estimates to pages. If zero it
	// is derived from the relation (tuples / pages).
	TuplesPerPage float64
	// DisableScanOptimization forces per-sample random reads even when
	// a sequential scan would be cheaper — the naive strategy the paper
	// started from before discovering the Section 4.2 optimization.
	// Exists for the ablation benchmarks; leave false in production.
	DisableScanOptimization bool
	// Tracer, when non-nil, records the candidate cost curve, sampler
	// strategy switches and chosen plan on the current trace span.
	Tracer *trace.Tracer
	// Shards, when > 1, floors every candidate's requested partition
	// count at this value so the chosen partitioning can be coarsened
	// into that many time-shards (each shard boundary must coincide
	// with a partition boundary). Zero or one imposes no floor.
	Shards int
}

// Plan is the output of determinePartIntervals: the chosen partitioning
// plus the cost estimates that selected it (exposed so experiments can
// reproduce Figure 4's trade-off curves).
type Plan struct {
	Partitioning  Partitioning
	PartSize      int     // expected outer-partition size, pages
	ErrorSize     int     // buffSize - partSize, pages
	NumPartitions int     // partitions requested (>= actual N)
	SamplesDrawn  int     // cumulative samples backing the choice
	Csample       float64 // estimated sampling cost (weighted I/O)
	Cjoin         float64 // estimated partition-join cost (weighted I/O)
	CachePages    []float64
}

// EstimatedCost returns Csample + Cjoin, the objective the plan
// minimizes.
func (p *Plan) EstimatedCost() float64 { return p.Csample + p.Cjoin }

// Candidate records one evaluated partSize, for Figure 4.
type Candidate struct {
	PartSize int
	Csample  float64
	Cjoin    float64
	// CachePaging is the tuple-cache component of Cjoin in isolation —
	// the dashed curve of Figure 4.
	CachePaging float64
}

// incrementalSampler tops up a sample of r's tuple timestamps on
// demand, mirroring Appendix A.2's incremental draw: "Since the number
// of samples increases with partition size, we incrementally draw
// samples from r and add them to the sample set for increasing
// partSize." Once the cumulative random-read cost would exceed one
// sequential scan, it switches to the Section 4.2 optimization: scan
// the relation once and serve any number of samples from it.
type incrementalSampler struct {
	r     *relation.Relation
	w     cost.Weights
	rng   *rand.Rand
	drawn []chronon.Interval
	// index holds the sorted endpoints of the sample ensure last
	// returned, drawn[:indexed], so each candidate's quantiles and
	// cache estimates need no sort of their own. It is rebuilt only
	// when that sample's length changes: random top-ups only append,
	// and the scan that replaces drawn returns more tuples than any
	// sample before it. With the default candidate grid the planner
	// scans upfront and every candidate sees the same sample, so a plan
	// sorts once.
	index   sampling.CoverageIndex
	indexed int
	// drawer performs the per-sample random reads. It is created once
	// and kept across top-ups so its taken-set makes the *cumulative*
	// sample without-replacement; drawing each top-up independently
	// would re-admit earlier tuples and bias later candidates'
	// quantiles toward a with-replacement distribution.
	drawer   *sampling.Drawer
	scanned  bool
	scanCost float64
	spent    float64 // weighted I/O spent on sampling so far
	topUps   int     // random-strategy Draw calls served
	noScan   bool    // ablation: never switch to the scan strategy
	ctx      context.Context
	tr       *trace.Tracer
}

func newIncrementalSampler(r *relation.Relation, w cost.Weights, rng *rand.Rand) (*incrementalSampler, error) {
	pages, err := r.Pages()
	if err != nil {
		return nil, err
	}
	sc := 0.0
	if pages > 0 {
		sc = w.Rand + float64(pages-1)*w.Seq
	}
	return &incrementalSampler{r: r, w: w, rng: rng, scanCost: sc}, nil
}

// planAhead tells the sampler the largest sample size any candidate
// will request. If serving that outstanding demand by random reads
// would cost strictly more than a scan anyway, the sampler scans
// immediately — the global form of the Section 4.2 optimization,
// avoiding random draws that a later, larger request would render
// redundant. The predicate (remaining demand × Rand > scanCost,
// strictly, ties keeping the random strategy) is identical to
// sampling.Draw's and ensure's, so the boundary case is classified the
// same on every path.
func (s *incrementalSampler) planAhead(maxM int) error {
	if s.scanned || s.noScan {
		return nil
	}
	if total := int(s.r.Tuples()); maxM > total {
		maxM = total
	}
	remaining := maxM - len(s.drawn)
	if float64(remaining)*s.w.Rand > s.scanCost {
		_, err := s.ensure(int(s.r.Tuples()))
		return err
	}
	return nil
}

// ensure grows the sample to at least m timestamps and returns the
// current set, which s.index then covers. The returned slice must not
// be modified.
func (s *incrementalSampler) ensure(m int) ([]chronon.Interval, error) {
	sample, err := s.grow(m)
	if err != nil {
		return nil, err
	}
	if len(sample) != s.indexed {
		s.index.Build(sample)
		s.indexed = len(sample)
	}
	return sample, nil
}

// grow is ensure without the index upkeep.
func (s *incrementalSampler) grow(m int) ([]chronon.Interval, error) {
	if total := int(s.r.Tuples()); m > total {
		m = total
	}
	if m <= len(s.drawn) {
		return s.drawn[:len(s.drawn)], nil
	}
	need := m - len(s.drawn)
	// Same strategy predicate as sampling.Draw, over the *outstanding*
	// demand: switch to one scan exactly when serving `need` by random
	// reads costs strictly more; ties keep random. Cost already spent
	// on earlier top-ups is sunk and deliberately excluded — counting
	// it would flip the incremental path to scanning earlier than the
	// one-shot path for the same cumulative demand.
	if !s.scanned && !s.noScan && float64(need)*s.w.Rand > s.scanCost {
		// Cheaper to scan everything once: do so, keep every timestamp
		// in random order, and serve all future requests for free.
		prior := len(s.drawn)
		s.tr.Begin("sampler scan")
		sc := s.r.Scan()
		all := make([]chronon.Interval, 0, s.r.Tuples())
		for {
			if err := execctx.Check(s.ctx, "partition: sampler scan"); err != nil {
				s.tr.End()
				return nil, err
			}
			t, ok, err := sc.Next()
			if err != nil {
				s.tr.End()
				return nil, err
			}
			if !ok {
				break
			}
			all = append(all, t.V)
		}
		s.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		s.drawn = all
		s.scanned = true
		s.spent += s.scanCost
		s.tr.SetAttr("tuples", len(all))
		s.tr.SetAttr("randomDrawsBeforeSwitch", prior)
		s.tr.End()
		return s.drawn[:m], nil
	}
	if s.scanned {
		return s.drawn[:m], nil
	}
	if s.drawer == nil {
		dr, err := sampling.NewDrawer(s.r, s.rng)
		if err != nil {
			return nil, err
		}
		s.drawer = dr
	}
	sub, err := s.drawer.Draw(need)
	if err != nil {
		return nil, err
	}
	for _, t := range sub {
		s.drawn = append(s.drawn, t.V)
	}
	s.spent += float64(len(sub)) * s.w.Rand
	s.topUps++
	return s.drawn, nil
}

// DeterminePartIntervals is the paper's determinePartIntervals
// (Appendix A.2): for candidate partition sizes partSize in
// [1, buffSize], estimate Csample (from the Kolmogorov statistic) and
// Cjoin (partition reads plus tuple-cache paging, both relations), and
// return the partitioning whose candidate minimizes Csample + Cjoin.
//
// It also returns the full candidate trace so callers can plot the
// Figure 4 trade-off.
func DeterminePartIntervals(r *relation.Relation, cfg PlanConfig) (*Plan, []Candidate, error) {
	if cfg.BuffSize < 1 {
		return nil, nil, fmt.Errorf("partition: buffSize must be >= 1, got %d", cfg.BuffSize)
	}
	if cfg.Rng == nil {
		return nil, nil, fmt.Errorf("partition: PlanConfig.Rng is required")
	}
	relPages, err := r.Pages()
	if err != nil {
		return nil, nil, err
	}
	if relPages == 0 {
		return &Plan{Partitioning: Single(), PartSize: cfg.BuffSize, NumPartitions: 1}, nil, nil
	}
	tpp := cfg.TuplesPerPage
	if tpp <= 0 {
		tpp = float64(r.Tuples()) / float64(relPages)
	}
	step := cfg.CandidateStep
	if step <= 0 {
		step = cfg.BuffSize / 64
		if step < 1 {
			step = 1
		}
	}

	sampler, err := newIncrementalSampler(r, cfg.Weights, cfg.Rng)
	if err != nil {
		return nil, nil, err
	}
	sampler.noScan = cfg.DisableScanOptimization
	sampler.ctx = cfg.Ctx
	sampler.tr = cfg.Tracer
	scanCost := sampler.scanCost

	// The largest candidate partSize leaves the smallest error margin
	// and so demands the largest sample; if that demand already exceeds
	// one sequential scan, scan upfront instead of paying for random
	// draws that will be subsumed anyway.
	lastPartSize := 1
	for ps := 1; ps <= cfg.BuffSize; ps += step {
		lastPartSize = ps
	}
	maxWant := int(r.Tuples())
	if errSz := cfg.BuffSize - lastPartSize; errSz > 0 {
		var err error
		maxWant, err = sampling.SampleSize(relPages, errSz)
		if err != nil {
			return nil, nil, err
		}
	}
	if err := sampler.planAhead(maxWant); err != nil {
		return nil, nil, err
	}

	var (
		best       *Plan
		candidates []Candidate
	)
	for partSize := 1; partSize <= cfg.BuffSize; partSize += step {
		if err := execctx.Check(cfg.Ctx, "partition: plan"); err != nil {
			return nil, nil, err
		}
		errorSize := cfg.BuffSize - partSize
		var wantSamples int
		if errorSize <= 0 {
			// partSize == buffSize leaves no error margin; only an
			// exact (full-scan) sample avoids overflow.
			errorSize = 0
			wantSamples = int(r.Tuples())
		} else {
			var err error
			wantSamples, err = sampling.SampleSize(relPages, errorSize)
			if err != nil {
				return nil, nil, err
			}
		}

		// Csample under the Section 4.2 optimization: never more than
		// one sequential scan of the relation.
		csample := float64(wantSamples) * cfg.Weights.Rand
		if csample > scanCost && !cfg.DisableScanOptimization {
			csample = scanCost
		}

		numPartitions := (relPages + partSize - 1) / partSize
		if numPartitions < cfg.Shards {
			numPartitions = cfg.Shards
		}
		sampleSet, err := sampler.ensure(wantSamples)
		if err != nil {
			return nil, nil, err
		}
		part, err := chooseIntervals(&sampler.index, numPartitions)
		if err != nil {
			return nil, nil, err
		}
		fraction := 0.0
		if r.Tuples() > 0 {
			fraction = float64(len(sampleSet)) / float64(r.Tuples())
		}
		cachePages, err := estimateCacheSizes(&sampler.index, fraction, part, tpp)
		if err != nil {
			return nil, nil, err
		}

		// Cjoin (Appendix A.2): both relations' partitions are read —
		// one random seek per partition, the remaining pages
		// sequentially — and each partition's tuple cache is written
		// and read once (one random seek plus sequential accesses).
		// The paper's formula uses numPartitions × (partSize-1)
		// sequential reads; with sparse samples the realized
		// partitioning can have fewer (hence larger) partitions, so the
		// realized partition count and the true page volume give the
		// accurate estimate.
		n := float64(part.N())
		seqPages := float64(relPages) - n
		if seqPages < 0 {
			seqPages = 0
		}
		cjoin := 2 * (n*cfg.Weights.Rand + seqPages*cfg.Weights.Seq)
		cachePaging := 0.0
		for _, m := range cachePages {
			if m <= 0 {
				continue
			}
			mp := math.Ceil(m)
			cachePaging += 2 * (cfg.Weights.Rand + cfg.Weights.Seq*(mp-1))
		}
		cjoin += cachePaging

		candidates = append(candidates, Candidate{
			PartSize:    partSize,
			Csample:     csample,
			Cjoin:       cjoin,
			CachePaging: cachePaging,
		})

		total := csample + cjoin
		if best == nil || total <= best.EstimatedCost() {
			best = &Plan{
				Partitioning:  part,
				PartSize:      partSize,
				ErrorSize:     errorSize,
				NumPartitions: numPartitions,
				SamplesDrawn:  len(sampleSet),
				Csample:       csample,
				Cjoin:         cjoin,
				CachePages:    cachePages,
			}
		}
	}
	recordPlanTrace(cfg.Tracer, best, candidates, sampler, step)
	return best, candidates, nil
}

// recordPlanTrace attaches the Figure-4 candidate curve and the chosen
// plan to the tracer's current span.
func recordPlanTrace(tr *trace.Tracer, best *Plan, candidates []Candidate, sampler *incrementalSampler, step int) {
	if !tr.Enabled() {
		return
	}
	pts := make([]trace.CandidatePoint, len(candidates))
	for i, c := range candidates {
		pts[i] = trace.CandidatePoint{
			PartSize:    c.PartSize,
			Csample:     c.Csample,
			Cjoin:       c.Cjoin,
			CachePaging: c.CachePaging,
			Chosen:      best != nil && c.PartSize == best.PartSize,
		}
	}
	tr.SetAttr(trace.CandidatesAttr, pts)
	tr.SetAttr("candidateStep", step)
	strategy := "random"
	if sampler.scanned {
		strategy = "scan"
	}
	tr.SetAttr("samplerStrategy", strategy)
	tr.SetAttr("samplerTopUps", sampler.topUps)
	tr.SetAttr("samplerSpentCost", sampler.spent)
	if best != nil {
		tr.SetAttr("partSize", best.PartSize)
		tr.SetAttr("errorSize", best.ErrorSize)
		tr.SetAttr("numPartitions", best.Partitioning.N())
		tr.SetAttr("samplesDrawn", best.SamplesDrawn)
		tr.SetAttr("csampleEst", best.Csample)
		tr.SetAttr("cjoinEst", best.Cjoin)
	}
}
