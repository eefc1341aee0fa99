package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"time"

	"vtjoin/internal/cost"
	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/extsort"
	"vtjoin/internal/incremental"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/sampling"
	"vtjoin/internal/schema"
	"vtjoin/internal/serve"
	"vtjoin/internal/shard"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// The layer ladder times direct calls into each module's public
// functions on a workload's own inputs, one layer at a time, so an
// end-to-end number can be explained layer by layer. Every call is
// repeated reps times and reported as a median; every call is also
// recorded as a span whose parent is the layer that makes that call
// inside the program.

// ladderInput is what a workload hands the ladder.
type ladderInput struct {
	d      *disk.Disk
	r, s   *relation.Relation // catalog names "r" and "s"
	memory int                // per-join MemoryPages
	// joinQuery is the plain partition join of r and s; queries are the
	// workload's query texts (the mix, or joinQuery alone).
	joinQuery string
	queries   []string
	// batchR and batchS are append batches for the two relations,
	// derived from their contents.
	batchR, batchS []tuple.Tuple
	// srv is the workload's server; nil makes the ladder start one.
	srv  *serve.Server
	cat  *serve.Catalog // srv's catalog
	base string         // srv's HTTP base URL
	reps int
}

// ladderBatchRows is the size of the ladder's append batches.
const ladderBatchRows = 8

func ladderReps(c sizeClass) int {
	if c == sizeTiny {
		return 2
	}
	return 5
}

// ladderBatches derives append batches of n tuples for both sides:
// batchR copies evenly spaced tuples of rt (same key and interval, so
// they find the same partners) and batchS gives each of them a partner
// built on an s tuple, with the copy's key and interval. Ids are fresh,
// so every appended row is distinct, and every s append produces delta
// rows.
func ladderBatches(rt, st []tuple.Tuple, n int) (batchR, batchS []tuple.Tuple) {
	for i := 0; i < n && len(rt) > 0 && len(st) > 0; i++ {
		x := rt[(i*len(rt))/n].Clone()
		x.Values[1] = value.Int(1<<40 + int64(i))
		y := st[0].Clone()
		y.V, y.Values[0], y.Values[1] = x.V, x.Values[0], value.Int(2<<40+int64(i))
		batchR, batchS = append(batchR, x), append(batchS, y)
	}
	return batchR, batchS
}

// ladderResult holds the per-layer metrics plus the raw per-call times
// the workloads assemble their self-time tables from.
type ladderResult struct {
	metrics map[string]metric

	planMS, drawMS, quantilesMS                  float64
	candidates                                   int
	graceMS                                      float64
	phaseSampleMS, phasePartitionMS, phaseJoinMS float64
	probeAllMS                                   float64
	executeMS, httpMS, plan2MS, parseUS          float64
	csvWriteRowNS, csvParseRowNS                 float64
	appendTupleNS, foldUS, appendHTTPMS          float64
	resultRows                                   float64 // mean rows per ladder query
}

// ladderOpBase offsets the ladder's op ids (one per repetition) from
// the traffic's (one per operation).
const ladderOpBase = 1 << 32

// ladder times calls, recording each as a span.
type ladder struct {
	tr   *tracer
	reps int
}

// step times fn reps times under spans named name and returns the
// median duration in milliseconds and the first span's id.
func (l *ladder) step(parent int64, name string, fn func() error) (float64, int64, error) {
	var xs []float64
	var id int64
	for i := 0; i < l.reps; i++ {
		sid, d, err := l.tr.span(ladderOpBase+int64(i), parent, name, fn)
		if err != nil {
			return 0, 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		if id == 0 {
			id = sid
		}
		xs = append(xs, ms(d))
	}
	return median(xs), id, nil
}

func runLadder(tr *tracer, in *ladderInput) (*ladderResult, error) {
	ctx := context.Background()
	l := &ladder{tr: tr, reps: in.reps}
	res := &ladderResult{metrics: map[string]metric{}}
	m := res.metrics
	w := cost.Ratio(joinRandomCost)
	plan, err := schema.PlanNaturalJoin(in.r.Schema(), in.s.Schema())
	if err != nil {
		return nil, err
	}
	rPages, err := in.r.Pages()
	if err != nil {
		return nil, err
	}
	rt, err := in.r.All()
	if err != nil {
		return nil, err
	}
	st, err := in.s.All()
	if err != nil {
		return nil, err
	}
	in.batchR, in.batchS = ladderBatches(rt, st, ladderBatchRows)

	if in.srv == nil {
		cat := serve.NewCatalog()
		cat.Register("r", in.r)
		cat.Register("s", in.s)
		srv, err := serve.NewServer(serve.Config{Disk: in.d, Catalog: cat,
			TotalMemoryPages: 4 * in.memory, QueryMemoryPages: in.memory, Seed: joinSampleSeed})
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		in.srv, in.cat, in.base = srv, cat, hs.URL
	}

	// ---- join (whole algorithm, for its phase report) ----
	var rep *cost.Report
	var pstats *join.PartitionStats
	_, partID, err := l.step(0, "join.Partition", func() error {
		var sink relation.CountSink
		var err error
		rep, pstats, err = join.Partition(in.r, in.s, &sink, join.PartitionConfig{
			MemoryPages: in.memory, Weights: w, Rng: rand.New(rand.NewSource(joinSampleSeed)),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, ph := range rep.Phases {
		switch ph.Name {
		case "sample":
			res.phaseSampleMS = ms(ph.Wall)
		case "partition":
			res.phasePartitionMS = ms(ph.Wall)
		case "join":
			res.phaseJoinMS = ms(ph.Wall)
		}
	}
	m["join.phase_sample_ms"] = metric{res.phaseSampleMS, "ms"}
	m["join.phase_partition_ms"] = metric{res.phasePartitionMS, "ms"}
	m["join.phase_join_ms"] = metric{res.phaseJoinMS, "ms"}
	m["partition.cache_pages"] = metric{float64(pstats.CacheWrites), "pages"}
	m["partition.thrash_io"] = metric{float64(pstats.ThrashIO), "pages"}
	directTotal := rep.Total().Total()

	// ---- partition: planning and Grace partitioning ----
	var pplan *partition.Plan
	var cands []partition.Candidate
	res.planMS, _, err = l.step(partID, "partition.DeterminePartIntervals", func() error {
		var err error
		pplan, cands, err = partition.DeterminePartIntervals(in.r, partition.PlanConfig{
			BuffSize: in.memory - 3, Weights: w, Rng: rand.New(rand.NewSource(joinSampleSeed)),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	res.candidates = len(cands)
	m["partition.plan_ms"] = metric{res.planMS, "ms"}
	m["partition.candidates"] = metric{float64(len(cands)), "count"}

	var sample *sampling.Sample
	res.drawMS, _, err = l.step(partID, "sampling.Draw", func() error {
		var err error
		sample, err = sampling.Draw(in.r, pplan.SamplesDrawn, w, rand.New(rand.NewSource(joinSampleSeed)))
		return err
	})
	if err != nil {
		return nil, err
	}
	ivs := sample.Intervals()
	k := pplan.NumPartitions
	if k < 2 {
		k = 2
	}
	res.quantilesMS, _, err = l.step(partID, "sampling.CoverageQuantiles", func() error {
		_, err := sampling.CoverageQuantiles(ivs, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["sampling.draw_ms"] = metric{res.drawMS, "ms"}
	m["sampling.quantiles_ms"] = metric{res.quantilesMS, "ms"}
	m["sampling.sample_tuples"] = metric{float64(pplan.SamplesDrawn), "count"}

	var gracePages int
	res.graceMS, _, err = l.step(partID, "partition.DoPartitioningPair", func() error {
		rp, sp, err := partition.DoPartitioningPair(ctx, in.r, in.s, pplan.Partitioning)
		if err != nil {
			return err
		}
		gracePages = rp.TotalPages() + sp.TotalPages()
		if err := rp.Drop(); err != nil {
			return err
		}
		return sp.Drop()
	})
	if err != nil {
		return nil, err
	}
	m["partition.grace_ms"] = metric{res.graceMS, "ms"}
	m["partition.grace_pages"] = metric{float64(gracePages), "pages"}

	// ---- page codec ----
	if err := ladderPage(l, in, rt, m); err != nil {
		return nil, err
	}

	// ---- disk ----
	pg := in.d.NewPage()
	readMS, _, err := l.step(0, "disk.Read", func() error {
		for i := 0; i < rPages; i++ {
			if err := in.d.Read(in.r.File(), i, pg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["disk.read_ns_per_page"] = metric{readMS * 1e6 / float64(rPages), "ns"}
	writeMS, _, err := l.step(0, "disk.Append", func() error {
		f := in.d.Create()
		for i := 0; i < rPages; i++ {
			if _, err := in.d.Append(f, pg); err != nil {
				return err
			}
		}
		return in.d.Remove(f)
	})
	if err != nil {
		return nil, err
	}
	m["disk.write_ns_per_page"] = metric{writeMS * 1e6 / float64(rPages), "ns"}

	// ---- relation ----
	scanMS, _, err := l.step(0, "relation.Scan", func() error {
		sc := in.r.Scan()
		for {
			_, ok, err := sc.Next()
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["relation.scan_ns_per_page"] = metric{scanMS * 1e6 / float64(rPages), "ns"}
	appendMS, _, err := l.step(0, "relation.Builder.Append", func() error {
		tmp := relation.CreateFormat(in.d, in.r.Schema(), in.r.Format())
		b := tmp.NewBuilder()
		for _, t := range rt {
			if err := b.Append(t); err != nil {
				return err
			}
		}
		if err := b.Flush(); err != nil {
			return err
		}
		return tmp.Drop()
	})
	if err != nil {
		return nil, err
	}
	res.appendTupleNS = appendMS * 1e6 / float64(len(rt))
	m["relation.append_ns_per_tuple"] = metric{res.appendTupleNS, "ns"}

	// ---- extsort ----
	var sortPages int
	sortMS, _, err := l.step(0, "extsort.Sort", func() error {
		sorted, err := extsort.Sort(ctx, in.r, extsort.ByStartTime, in.memory)
		if err != nil {
			return err
		}
		sortPages = sorted.NumPages()
		return sorted.Drop()
	})
	if err != nil {
		return nil, err
	}
	m["extsort.sort_ms"] = metric{sortMS, "ms"}
	m["extsort.pages"] = metric{float64(sortPages), "pages"}

	// ---- join kernel ----
	mt, err := join.NewMatcher(plan, 0, join.KernelSweep, rt)
	if err != nil {
		return nil, err
	}
	per := perPage(in.s, len(st))
	var matches int64
	probeMS, _, err := l.step(partID, "join.Matcher.ProbeBatch", func() error {
		matches = 0
		for i := 0; i < len(st); i += per {
			j := min(i+per, len(st))
			if err := mt.ProbeBatch(st[i:j], func(tuple.Tuple) error { matches++; return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.probeAllMS = probeMS
	sweep, perTuple := mt.KernelDecisions()
	m["join.probe_ns_per_tuple"] = metric{probeMS * 1e6 / float64(len(st)), "ns"}
	m["join.matches_per_probe"] = metric{float64(matches) / float64(len(st)), "ratio"}
	m["join.sweep_share"] = metric{float64(sweep) / float64(max(sweep+perTuple, 1)), "ratio"}

	var smStats *join.SortMergeStats
	if _, _, err := l.step(0, "join.SortMerge", func() error {
		var sink relation.CountSink
		var err error
		_, smStats, err = join.SortMerge(in.r, in.s, &sink, join.SortMergeConfig{MemoryPages: in.memory})
		return err
	}); err != nil {
		return nil, err
	}
	m["join.rereads_per_read"] = metric{float64(smStats.InnerPageRereads) / float64(max(smStats.InnerPageReads, 1)), "ratio"}

	// ---- shard ----
	var shardRep *cost.Report
	shardMS, _, err := l.step(0, "shard.Join", func() error {
		var sink relation.CountSink
		var err error
		shardRep, _, err = shard.Join(shard.AlgorithmPartition, in.r, in.s, &sink, shard.Config{
			Shards: 2, MemoryPages: in.memory, Weights: w, Seed: joinSampleSeed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["shard.join_ms"] = metric{shardMS, "ms"}
	m["shard.io_pages_ratio"] = metric{float64(shardRep.Total().Total()) / float64(directTotal), "ratio"}

	// ---- query, plan2, serve ----
	if err := ladderServe(l, in, res); err != nil {
		return nil, err
	}

	// ---- incremental (replica view over the same relations) ----
	if err := ladderIncremental(l, in, pplan.Partitioning, res); err != nil {
		return nil, err
	}

	// ---- csvio ----
	var csvBuf bytes.Buffer
	writeMS, _, err = l.step(0, "csvio.WriteTuples", func() error {
		csvBuf.Reset()
		return csvio.WriteTuples(&csvBuf, in.r.Schema(), rt)
	})
	if err != nil {
		return nil, err
	}
	res.csvWriteRowNS = writeMS * 1e6 / float64(len(rt))
	parseMS, _, err := l.step(0, "csvio.ReadTuples", func() error {
		_, ts, err := csvio.ReadTuples(bytes.NewReader(csvBuf.Bytes()))
		if err == nil && len(ts) != len(rt) {
			err = fmt.Errorf("parsed %d rows, wrote %d", len(ts), len(rt))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.csvParseRowNS = parseMS * 1e6 / float64(len(rt))
	m["csvio.write_ns_per_row"] = metric{res.csvWriteRowNS, "ns"}
	m["csvio.parse_ns_per_row"] = metric{res.csvParseRowNS, "ns"}

	// ---- delivery lag: mutates r and s, so it runs last ----
	lag, appendMS, err := ladderDelivery(in)
	if err != nil {
		return nil, err
	}
	res.appendHTTPMS = appendMS
	m["serve.delivery_lag_ms"] = metric{lag, "ms"}
	return res, nil
}

// perPage returns the relation's mean tuples per page (at least 1), the
// batch size the engines probe with.
func perPage(r *relation.Relation, n int) int {
	pages, err := r.Pages()
	if err != nil || pages == 0 {
		return max(n, 1)
	}
	return max(n/pages, 1)
}

// ladderPage times the page codec: encoding the relation's tuples
// into fresh pages of its format and decoding its stored page images.
func ladderPage(l *ladder, in *ladderInput, rt []tuple.Tuple, m map[string]metric) error {
	rPages, err := in.r.Pages()
	if err != nil {
		return err
	}
	format := in.r.Format()
	encMS, _, err := l.step(0, "page.AppendTuple", func() error {
		p := page.MustNewFormat(in.d.PageSize(), format)
		for _, t := range rt {
			ok, err := p.AppendTuple(t)
			if err != nil {
				return err
			}
			if !ok {
				_ = p.Bytes()
				p.ResetTo(format)
				if _, err := p.AppendTuple(t); err != nil {
					return err
				}
			}
		}
		_ = p.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	images := make([][]byte, rPages)
	pg := in.d.NewPage()
	for i := range images {
		if err := in.r.ReadPage(i, pg); err != nil {
			return err
		}
		images[i] = append([]byte(nil), pg.Bytes()...)
	}
	decode := func() (int, error) {
		n := 0
		for _, img := range images {
			p, err := page.FromBytes(img)
			if err != nil {
				return 0, err
			}
			ts, err := p.Tuples()
			if err != nil {
				return 0, err
			}
			n += len(ts)
		}
		return n, nil
	}
	var decoded int
	decMS, _, err := l.step(0, "page.Tuples", func() error {
		var err error
		decoded, err = decode()
		return err
	})
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := decode(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m["page.encode_ns_per_tuple"] = metric{encMS * 1e6 / float64(len(rt)), "ns"}
	m["page.decode_ns_per_tuple"] = metric{decMS * 1e6 / float64(decoded), "ns"}
	m["page.decode_allocs_per_tuple"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(decoded), "count"}
	m["page.tuples_per_page"] = metric{float64(in.r.Tuples()) / float64(rPages), "count"}
	return nil
}

// ladderServe times the query front end, the plan2 executor and the
// server, in process and over HTTP. It starts a server when the
// workload has none.
func ladderServe(l *ladder, in *ladderInput, res *ladderResult) error {
	m := res.metrics
	cat := in.cat
	c0 := in.srv.Cache().Stats()
	rejects0 := in.srv.Stats().Rejects
	client := &http.Client{}
	defer client.CloseIdleConnections()

	var parse, exec, httpT, run []float64
	var rows float64
	for _, q := range in.queries {
		var n int64
		hMS, httpID, err := l.step(0, "HTTP POST /query", func() error {
			var err error
			n, err = postQuery(client, in.base, q)
			return err
		})
		if err != nil {
			return err
		}
		eMS, execID, err := l.step(httpID, "serve.Server.Execute", func() error {
			got, _, err := in.srv.Execute(context.Background(), q, func(tuple.Tuple) error { return nil })
			if err == nil && got != n {
				err = fmt.Errorf("Execute returned %d rows, HTTP %d", got, n)
			}
			return err
		})
		if err != nil {
			return err
		}
		var root plan2.Node
		pMS, _, err := l.step(execID, "query.Parse+plan2.Bind", func() error {
			pipe, err := query.Parse(q)
			if err != nil {
				return err
			}
			root, err = plan2.Bind(pipe, cat)
			return err
		})
		if err != nil {
			return err
		}
		rMS, _, err := l.step(execID, "plan2.Run", func() error {
			got, err := plan2.Run(plan2.Config{Disk: in.d, MemoryPages: in.memory, Seed: joinSampleSeed}, root,
				func(tuple.Tuple) error { return nil })
			if err == nil && got != n {
				err = fmt.Errorf("plan2.Run returned %d rows, HTTP %d", got, n)
			}
			return err
		})
		if err != nil {
			return err
		}
		parse = append(parse, pMS)
		run = append(run, rMS)
		exec = append(exec, eMS)
		httpT = append(httpT, hMS-eMS)
		rows += float64(n)
	}
	res.parseUS = mean(parse) * 1e3
	res.plan2MS = mean(run)
	res.executeMS = mean(exec)
	res.httpMS = mean(httpT)
	res.resultRows = rows / float64(len(in.queries))
	m["query.parse_bind_us"] = metric{res.parseUS, "us"}
	m["plan2.run_ms"] = metric{res.plan2MS, "ms"}
	m["serve.execute_ms"] = metric{res.executeMS, "ms"}
	m["serve.http_ms"] = metric{res.httpMS, "ms"}

	// The bridge: plan2.Run of the plain join minus the direct engine
	// call it makes (join.Partition with the same settings), per result
	// row. The two calls alternate so drift affects both alike.
	pipe, err := query.Parse(in.joinQuery)
	if err != nil {
		return err
	}
	root, err := plan2.Bind(pipe, cat)
	if err != nil {
		return err
	}
	var n int64
	var bridged, direct []float64
	for i := 0; i < 3*l.reps; i++ {
		id, d, err := l.tr.span(ladderOpBase+int64(i), 0, "plan2.Run (join)", func() error {
			var err error
			n, err = plan2.Run(plan2.Config{Disk: in.d, MemoryPages: in.memory, Seed: joinSampleSeed}, root,
				func(tuple.Tuple) error { return nil })
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder plan2.Run (join): %w", err)
		}
		bridged = append(bridged, ms(d))
		_, d, err = l.tr.span(ladderOpBase+int64(i), id, "join.Partition (plan2's engine call)", func() error {
			var sink relation.CountSink
			_, _, err := join.Partition(in.r, in.s, &sink, join.PartitionConfig{
				MemoryPages: in.memory, Weights: cost.Ratio(joinRandomCost), Rng: rand.New(rand.NewSource(joinSampleSeed)),
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder join.Partition: %w", err)
		}
		direct = append(direct, ms(d))
	}
	m["plan2.bridge_ns_per_row"] = metric{(median(bridged) - median(direct)) * 1e6 / float64(max(n, 1)), "ns"}

	c1 := in.srv.Cache().Stats()
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	m["serve.cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	m["serve.reject_ratio"] = metric{float64(in.srv.Stats().Rejects-rejects0) / float64(max(hits+misses, 1)), "ratio"}
	return nil
}

// postQuery runs one query over HTTP to its last trailer byte and
// returns the row count.
func postQuery(client *http.Client, base, q string) (int64, error) {
	var o opResult
	postQueryOp(client, base, q, &o)
	if o.status != "ok" {
		return 0, fmt.Errorf("query %q: %s", q, o.status)
	}
	return o.sum.Count, nil
}

// ladderIncremental folds the append batches into a replica view of r
// and s, built with the planner's partitioning.
func ladderIncremental(l *ladder, in *ladderInput, parting partition.Partitioning, res *ladderResult) error {
	ctx := context.Background()
	var folds, rows, pages, foldNS int64
	_, _, err := l.step(0, "incremental.View.Insert", func() error {
		view, err := incremental.New(ctx, in.r, in.s, incremental.Config{Partitioning: parting})
		if err != nil {
			return err
		}
		defer view.Close()
		// Construction is not part of a fold: restart the clock.
		t0 := time.Now()
		for _, t := range in.batchR {
			delta, err := view.InsertLeft(ctx, t)
			if err != nil {
				return err
			}
			rows += int64(len(delta))
		}
		for _, t := range in.batchS {
			delta, err := view.InsertRight(ctx, t)
			if err != nil {
				return err
			}
			rows += int64(len(delta))
		}
		folds += int64(len(in.batchR) + len(in.batchS))
		pages += view.Stats().Maintenance.Total()
		foldNS += time.Since(t0).Nanoseconds()
		return nil
	})
	if err != nil {
		return err
	}
	res.foldUS = float64(foldNS) / 1e3 / float64(folds)
	m := res.metrics
	m["incremental.fold_us_per_tuple"] = metric{res.foldUS, "us"}
	m["incremental.delta_rows_per_fold"] = metric{float64(rows) / float64(folds), "ratio"}
	m["incremental.pages_per_fold"] = metric{float64(pages) / float64(folds), "pages"}
	return nil
}

// ladderDelivery opens a subscription on the plain join and appends
// the batches over HTTP, one at a time. It returns the median lag from
// each append's response to the subscriber reading that append's last
// delta row, and the median append latency.
func ladderDelivery(in *ladderInput) (lagMS, appendMS float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		in.base+"/subscribe?q="+url.QueryEscape(in.joinQuery), nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, 0, fmt.Errorf("subscribe: HTTP %d: %s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		return 0, 0, fmt.Errorf("subscribe header: %w", err)
	}
	// One receipt time per delta row; sized for every row the appends
	// below can produce, so the reader never blocks on it.
	got := make(chan time.Time, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := br.ReadSlice('\n'); err != nil {
				return
			}
			select {
			case got <- time.Now():
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() { cancel(); <-done }()

	var lags, appends []float64
	for i := 0; i < in.reps*2; i++ {
		name, sch, batch := "r", in.r.Schema(), in.batchR
		if i%2 == 1 {
			name, sch, batch = "s", in.s.Schema(), in.batchS
		}
		// Fresh ids per append keep the rows distinct.
		b := make([]tuple.Tuple, len(batch))
		for j, t := range batch {
			b[j] = t.Clone()
			b[j].Values[1] = value.Int(t.Values[1].AsInt() + int64(i+1)<<20)
		}
		var body bytes.Buffer
		if err := csvio.WriteTuples(&body, sch, b); err != nil {
			return 0, 0, err
		}
		sent := time.Now()
		ar, err := client.Post(in.base+"/relations/"+name+"/append", "text/csv", &body)
		if err != nil {
			return 0, 0, err
		}
		var doc struct {
			DeltaRows int64 `json:"deltaRows"`
		}
		err = json.NewDecoder(ar.Body).Decode(&doc)
		ar.Body.Close()
		respAt := time.Now()
		appends = append(appends, ms(respAt.Sub(sent)))
		if err != nil {
			return 0, 0, fmt.Errorf("append response: %w", err)
		}
		if ar.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("append: HTTP %d", ar.StatusCode)
		}
		var last time.Time
		for j := int64(0); j < doc.DeltaRows; j++ {
			select {
			case last = <-got:
			case <-time.After(10 * time.Second):
				return 0, 0, fmt.Errorf("append %d: %d of %d delta rows delivered", i, j, doc.DeltaRows)
			}
		}
		if doc.DeltaRows > 0 {
			lags = append(lags, ms(last.Sub(respAt)))
		}
	}
	if len(lags) == 0 {
		return 0, 0, fmt.Errorf("no append produced a delta row")
	}
	return median(lags), median(appends), nil
}
