package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"vtjoin/internal/disk"
	"vtjoin/internal/relation"
	"vtjoin/internal/tuple"
)

// serve-query: Poisson arrivals at one fixed rate, open loop over
// queryConns connections, replaying a fixed mix of six query texts.
// Every relation fits inside the per-query memory, so each query does
// little work: the HTTP handler, CSV encoding, admission, plan cache,
// plan2 bridge, extsort and shard layers carry the time.

type querySizes struct {
	Tuples     int   // tuples of r and s
	HighTuples int   // tuples of rh and sh (high-overlap)
	Lifespan   int64 // chronons
	Rate       float64
}

func querySizesFor(c sizeClass) querySizes {
	if c == sizeTiny {
		return querySizes{Tuples: 200, HighTuples: 100, Lifespan: 10000, Rate: 50}
	}
	return querySizes{Tuples: 1000, HighTuples: 400, Lifespan: 100000, Rate: queryRate}
}

const (
	// queryRate is the fixed open-loop arrival rate (queries per second).
	queryRate = 30
	// queryConns is the number of client connections. One keeps a
	// query's latency its own: with two, queries that overlap share the
	// host's two cores, and how often they overlap grows with how slow
	// the host is, which turned host noise into a 20-30% swing in the
	// median over runs of the same code.
	queryConns = 1
)

// queryMix is the replayed mix, in order.
func queryMix(z querySizes) []string {
	lo, hi := z.Lifespan*2/5, z.Lifespan*2/5+z.Lifespan/50
	return []string{
		"scan r | select key < 4 | join (scan s | select key < 4) using partition memory 16",
		"scan rh | join scan sh using sortmerge memory 16 | aggregate count",
		"scan r | join scan s using nestedloop memory 16",
		"scan r | join scan s using partition shards 2 memory 16",
		"scan r | diff (scan r | select key < 8)",
		fmt.Sprintf("scan r | select vt overlaps [%d, %d]", lo, hi),
	}
}

const plainJoinQuery = "scan r | join scan s using partition memory 16"

// setupQuery generates the relations, loads them, starts the server
// and warms its plan cache with one pass over the mix.
func setupQuery(z querySizes, seed int64) (*serverEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	d := disk.New(4096)
	d.SetPageFormat(serveFormat)
	rels := map[string]*relation.Relation{}
	load := func(name string, ts []tuple.Tuple, left bool) error {
		sch := serveRightSchema
		if left {
			sch = serveLeftSchema
		}
		r, err := relation.FromTuples(d, sch, ts)
		rels[name] = r
		return err
	}
	short := z.Lifespan / 100
	if err := load("r", genSide(rng, z.Tuples, z.Lifespan, short, serveKeys, 0), true); err != nil {
		return nil, err
	}
	if err := load("s", genSide(rng, z.Tuples, z.Lifespan, short, serveKeys, 0), false); err != nil {
		return nil, err
	}
	if err := load("rh", genSide(rng, z.HighTuples, z.Lifespan, z.Lifespan/2, serveKeys, 0), true); err != nil {
		return nil, err
	}
	if err := load("sh", genSide(rng, z.HighTuples, z.Lifespan, z.Lifespan/2, serveKeys, 0), false); err != nil {
		return nil, err
	}
	env, err := startServer(rels, d)
	if err != nil {
		return nil, err
	}
	client := newConn()
	defer client.CloseIdleConnections()
	for _, q := range queryMix(z) {
		var o opResult
		postQueryOp(client, env.hs.URL, q, &o)
		if o.status != "ok" {
			env.close()
			return nil, fmt.Errorf("warm-up %q: %s", q, o.status)
		}
	}
	return env, nil
}

// runQueryLoad replays the mix open loop for seconds; tr, when
// non-nil, records a span for every query of every other pass over the
// mix.
func runQueryLoad(env *serverEnv, mix []string, rate, seconds float64, seed int64, tr *tracer) ([]opResult, []float64) {
	sched := poisson(rand.New(rand.NewSource(seed)), rate, seconds)
	ops := make([]opResult, len(sched))
	jobs, at, late, gen := dispatch(sched)
	var wg sync.WaitGroup
	for c := 0; c < queryConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for i := range jobs {
				o := &ops[i]
				o.kind, o.scheduled = i%len(mix), at[i]
				postQueryOp(client, env.hs.URL, mix[o.kind], o)
				alternate(tr, i, len(mix)).record(int64(i), 0, "HTTP POST /query", o.sent, o.done)
			}
		}()
	}
	wg.Wait()
	gen.Wait()
	return ops, late
}

// checkQueries verifies every ok response against its reference.
func checkQueries(ops []opResult, refs []lineSum, mix []string) error {
	for i, o := range ops {
		if o.status == "ok" && o.sum != refs[o.kind] {
			return fmt.Errorf("query %d (%q) returned %d rows (checksum %016x), reference %d rows (checksum %016x)",
				i, mix[o.kind], o.sum.Count, o.sum.Sum, refs[o.kind].Count, refs[o.kind].Sum)
		}
		if o.status != "ok" && o.status != "reject" {
			return fmt.Errorf("query %d (%q) failed: %s", i, mix[o.kind], o.status)
		}
	}
	return nil
}

func runServeQuery(cfg runConfig) (*outcome, error) {
	z := querySizesFor(cfg.size)
	mix := queryMix(z)
	var setups []float64
	var env *serverEnv
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := setupQuery(z, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if env != nil {
			env.close()
		}
		env = next
	}
	defer env.close()
	refs := make([]lineSum, len(mix))
	for i, q := range mix {
		var err error
		if refs[i], err = reference(env, q); err != nil {
			return nil, err
		}
	}
	if cfg.wrongReference {
		refs[0].Sum++
	}
	out := &outcome{rates: map[string]float64{
		"queryRatePerSec": z.Rate, "connections": queryConns, "latencyLimitMs": serveLatencyLimitMS,
		"queryMemoryPages": serveQueryMemory, "poolPages": servePoolPages,
	}}
	if cfg.trace {
		return traceServeQuery(cfg, z, env, mix, refs, out)
	}

	c0 := env.d.Counters()
	cache0 := env.srv.Cache().Stats()
	reg := beginRegion()
	ops, late := runQueryLoad(env, mix, z.Rate, cfg.seconds, cfg.seed, nil)
	rr := reg.end()
	io := env.d.Counters().Sub(c0)
	if err := checkQueries(ops, refs, mix); err != nil {
		return nil, err
	}
	failed := failures(ops)
	done := float64(int64(len(ops)) - failed)
	var lat []float64
	for k := range mix {
		lat = append(lat, latencies(ops, k)...)
	}
	p50, p90 := windowedMixQuantile(ops, len(mix), 0.5, cfg.seconds), mixQuantile(ops, len(mix), 0.9)
	p99 := quantile(lat, 0.99)
	cache1 := env.srv.Cache().Stats()
	out.attempted, out.failed = int64(len(ops)), failed
	out.e2e = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {rr.PeakMB, "MiB"},
		"cpu_ms_per_op":  {ms(rr.CPU) / done, "ms"},
		"op_p50_ms":      {p50, "ms"},
		"io_cost_per_op": {weightedIO(io) / done, "weighted_pages"},
	}
	out.named = []namedMetric{
		{"setup_s", median(setups), "s"},
		{"peak_heap_mb", rr.PeakMB, "MiB"},
		{"failed_ratio", float64(failed) / float64(len(ops)), "ratio"},
		{"cpu_ms_per_op", ms(rr.CPU) / done, "ms"},
		{"query_p50_ms (mix mean, windowed)", p50, "ms"},
		{"query_p50_ms (mix mean, whole run)", mixQuantile(ops, len(mix), 0.5), "ms"},
		{"query_p90_ms (mix mean)", p90, "ms"},
		{"query_p99_ms", p99, "ms"},
		{"p99_within_latency_limit", boolMetric(p99 <= serveLatencyLimitMS), "bool"},
		{"queries", float64(len(ops)), "count"},
		{"gen_late_p99_ms", quantile(late, 0.99), "ms"},
		{"cache_hits", float64(cache1.Hits - cache0.Hits), "count"},
	}
	for k := range mix {
		l := latencies(ops, k)
		out.named = append(out.named,
			namedMetric{fmt.Sprintf("query%d_p50_ms", k), quantile(l, 0.5), "ms"},
			namedMetric{fmt.Sprintf("query%d_p90_ms", k), quantile(l, 0.9), "ms"})
	}
	return out, nil
}

func traceServeQuery(cfg runConfig, z querySizes, env *serverEnv, mix []string, refs []lineSum, out *outcome) (*outcome, error) {
	tr := newTracer()
	c0 := env.d.Counters()
	cache0, rej0 := env.srv.Cache().Stats(), env.srv.Stats().Rejects
	ops, late := runQueryLoad(env, mix, z.Rate, cfg.seconds, cfg.seed, tr)
	io := env.d.Counters().Sub(c0)
	var plain, traced []opResult
	for i, o := range ops {
		if alternate(tr, i, len(mix)) != nil {
			traced = append(traced, o)
		} else {
			plain = append(plain, o)
		}
	}
	if err := checkQueries(ops, refs, mix); err != nil {
		return nil, err
	}
	cache1, rej1 := env.srv.Cache().Stats(), env.srv.Stats().Rejects
	failed := failures(ops)
	allLat := func(os []opResult) []float64 {
		var xs []float64
		for k := range mix {
			xs = append(xs, latencies(os, k)...)
		}
		return xs
	}
	meanLat := mean(allLat(ops))
	done := float64(int64(len(ops)) - failed)

	r, err := env.cat.Lookup("r")
	if err != nil {
		return nil, err
	}
	s, err := env.cat.Lookup("s")
	if err != nil {
		return nil, err
	}
	in := &ladderInput{
		d: env.d, r: r, s: s, memory: serveQueryMemory,
		joinQuery: plainJoinQuery, queries: mix,
		srv: env.srv, cat: env.cat, base: env.hs.URL, reps: ladderReps(cfg.size),
	}
	lad, err := runLadder(tr, in)
	if err != nil {
		return nil, err
	}
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	missShare := float64(misses) / float64(max(hits+misses, 1))

	out.attempted, out.failed = int64(len(ops)), failed
	out.layers = lad.metrics
	out.layers["disk.pages_per_op"] = metric{float64(io.Total()) / done, "pages"}
	out.layers["disk.random_share"] = metric{float64(io.Random()) / float64(max(io.Total(), 1)), "ratio"}
	out.layers["disk.bytes_per_op"] = metric{float64(io.BytesMoved) / done, "bytes"}
	out.layers["serve.cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	out.layers["serve.reject_ratio"] = metric{float64(rej1-rej0) / float64(len(ops)), "ratio"}
	out.layers["bench.gen_late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	out.layers["bench.trace_overhead_pct"] = metric{overheadPct(mixQuantile(traced, len(mix), 0.5), mixQuantile(plain, len(mix), 0.5)), "%"}

	rows := lad.resultRows
	root := node("HTTP POST /query, open loop (mean query latency)", meanLat,
		node("HTTP POST /query, unloaded (mix mean)", lad.httpMS+lad.executeMS,
			node(fmt.Sprintf("csvio.write (%.0f rows)", rows), rows*lad.csvWriteRowNS/1e6),
			node("serve.Server.Execute", lad.executeMS,
				node("query.Parse+plan2.Bind (cache misses only)", missShare*lad.parseUS/1e3),
				node("plan2.Run", lad.plan2MS))),
	)
	out.selfRows = selfTable(root)
	out.layers["bench.unexplained_share"] = metric{out.selfRows[0].SelfMS / meanLat, "ratio"}
	if err := finishTrace(cfg, "serve-query", tr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// mixQuantile is the mean over the mix's query texts of each text's
// latency quantile: unlike a quantile over all queries, it does not
// move with how many of each text a run happened to send.
func mixQuantile(ops []opResult, kinds int, q float64) float64 {
	var xs []float64
	for k := 0; k < kinds; k++ {
		xs = append(xs, quantile(latencies(ops, k), q))
	}
	return mean(xs)
}

// windowedMixQuantile is the median over the run's windows (see
// windowed) of each window's mixQuantile.
func windowedMixQuantile(ops []opResult, kinds int, q, seconds float64) float64 {
	at := make([]time.Time, len(ops))
	for i, o := range ops {
		at[i] = o.scheduled
	}
	var xs []float64
	for _, w := range windowed(at, seconds) {
		win := make([]opResult, len(w))
		for j, i := range w {
			win[j] = ops[i]
		}
		if x := mixQuantile(win, kinds, q); !math.IsNaN(x) {
			xs = append(xs, x)
		}
	}
	return median(xs)
}
