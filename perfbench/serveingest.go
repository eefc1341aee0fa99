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
	"net/url"
	"strconv"
	"sync"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// serve-ingest: one /subscribe stream on the partition join of r and s
// (bind_now set) and one connection sending a fixed-rate open-loop
// schedule of small CSV /append batches, alternating r and s, with
// some rows ongoing. Every queryEvery'th slot of that schedule is a
// query instead, reading the freshly appended pages. The CSV parse,
// relation append, incremental fold and delta delivery carry the time.

type ingestSizes struct {
	Tuples   int   // base tuples of r and s
	Lifespan int64 // chronons; appended rows start in its last tenth
	Rate     float64
}

func ingestSizesFor(c sizeClass) ingestSizes {
	if c == sizeTiny {
		return ingestSizes{Tuples: 200, Lifespan: 10000, Rate: 40}
	}
	return ingestSizes{Tuples: 1000, Lifespan: 100000, Rate: ingestRate}
}

const (
	ingestRate         = 25 // schedule slots per second on the writer connection
	ingestQueryEvery   = 5  // every fifth slot is a query: 5 queries/s, 20 appends/s
	ingestBatchRows    = 8
	ingestOngoingEvery = 4         // every fourth appended row is ongoing
	ingestIDBase       = 1_000_000 // appended rows' ids: base + append*64 + row
	ingestBaseOngoing  = 10        // every tenth base tuple is ongoing
	subscribeQuery     = "scan r | join scan s using partition memory 16"
)

// appendOf returns the index of the append that inserted the row with
// this id, or -1 for a base row.
func appendOf(id int64) int {
	if id < ingestIDBase {
		return -1
	}
	return int((id - ingestIDBase) / 64)
}

type ingestEnv struct {
	*serverEnv
	rt, st  []tuple.Tuple // current base contents, in memory
	bindNow chronon.Chronon
	sub     *subscriber
}

// subscriber reads the subscription stream on its own goroutine,
// folding every delivered row into the record of the append that
// caused it (a row count, a line checksum and the receipt time).
type subscriber struct {
	resp   *http.Response
	cancel context.CancelFunc
	done   chan struct{} // closed when the reader has exited

	mu   sync.Mutex
	got  map[int]*ingestDelivery
	rows int64
	err  error // first malformed or unattributable row
}

// ingestDelivery is what the subscriber received for one append.
type ingestDelivery struct {
	sum  lineSum
	last time.Time
}

func setupIngest(z ingestSizes, seed int64) (*ingestEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	d := disk.New(4096)
	d.SetPageFormat(serveFormat)
	rt := genSide(rng, z.Tuples, z.Lifespan, z.Lifespan/100, serveKeys, ingestBaseOngoing)
	st := genSide(rng, z.Tuples, z.Lifespan, z.Lifespan/100, serveKeys, ingestBaseOngoing)
	r, err := relation.FromTuples(d, serveLeftSchema, rt)
	if err != nil {
		return nil, err
	}
	s, err := relation.FromTuples(d, serveRightSchema, st)
	if err != nil {
		return nil, err
	}
	env, err := startServer(map[string]*relation.Relation{"r": r, "s": s}, d)
	if err != nil {
		return nil, err
	}
	ie := &ingestEnv{serverEnv: env, rt: rt, st: st, bindNow: chronon.Chronon(z.Lifespan)}
	if err := ie.subscribe(); err != nil {
		env.close()
		return nil, err
	}
	return ie, nil
}

// subscribe opens the subscription stream and starts its reader.
func (ie *ingestEnv) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	u := fmt.Sprintf("%s/subscribe?bind_now=%d&q=%s", ie.hs.URL, ie.bindNow, url.QueryEscape(subscribeQuery))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := newConn().Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe: HTTP %d: %s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe header: %w", err)
	}
	sub := &subscriber{resp: resp, cancel: cancel, done: make(chan struct{}), got: map[int]*ingestDelivery{}}
	ie.sub = sub
	go func() {
		defer close(sub.done)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			at := time.Now()
			line = line[:len(line)-1]
			a, err := rowAppend(line)
			sub.mu.Lock()
			if err != nil || a < 0 {
				if sub.err == nil {
					sub.err = fmt.Errorf("subscription row %q: not caused by an append (%v)", line, err)
				}
			} else {
				dl := sub.got[a]
				if dl == nil {
					dl = &ingestDelivery{}
					sub.got[a] = dl
				}
				dl.sum.addLine(line)
				dl.last = at
			}
			sub.rows++
			sub.mu.Unlock()
		}
	}()
	return nil
}

// stop ends the stream and waits for the reader.
func (sub *subscriber) stop() {
	sub.cancel()
	<-sub.done
	sub.resp.Body.Close()
}

// await waits until the subscriber has read want rows in all (or wait
// passes), then lingers briefly so a duplicate delivery would show, and
// returns a snapshot of the per-append records.
func (sub *subscriber) await(want int64, wait time.Duration) (map[int]*ingestDelivery, error) {
	deadline := time.Now().Add(wait)
	for {
		sub.mu.Lock()
		rows := sub.rows
		sub.mu.Unlock()
		if rows >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.err != nil {
		return nil, sub.err
	}
	if sub.rows != want {
		return nil, fmt.Errorf("subscriber received %d delta rows, reference %d", sub.rows, want)
	}
	out := make(map[int]*ingestDelivery, len(sub.got))
	for a, dl := range sub.got {
		c := *dl
		out[a] = &c
	}
	return out, nil
}

// rowAppend attributes a delivered row (vs,ve,key,rid,sid) to the
// append that caused it: the later of its two tuples' appends.
func rowAppend(line []byte) (int, error) {
	f := bytes.Split(bytes.TrimSuffix(line, []byte("\n")), []byte(","))
	if len(f) != 5 {
		return 0, fmt.Errorf("subscription row %q: want 5 fields", line)
	}
	rid, err1 := strconv.ParseInt(string(f[3]), 10, 64)
	sid, err2 := strconv.ParseInt(string(f[4]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("subscription row %q: bad ids", line)
	}
	return max(appendOf(rid), appendOf(sid)), nil
}

// close ends the subscription, waits for its reader and stops the
// server.
func (ie *ingestEnv) close() {
	if ie.sub != nil {
		ie.sub.stop()
		ie.sub = nil
	}
	ie.serverEnv.close()
}

// ingestOp is one slot of the writer schedule.
type ingestOp struct {
	opResult
	offset time.Duration // scheduled send, from the schedule's start
	query  bool
	side   string        // "r" or "s"
	append int           // append index (appends only)
	batch  []tuple.Tuple // appended rows
	window chronon.Interval
	prefix int // appends issued before this query
}

// buildIngest lays out the writer schedule's operations.
func buildIngest(z ingestSizes, seconds float64, seed int64) []ingestOp {
	rng := rand.New(rand.NewSource(seed))
	sched := fixedRate(z.Rate, seconds)
	ops := make([]ingestOp, len(sched))
	a := 0
	recent := z.Lifespan - z.Lifespan/10
	for i := range ops {
		o := &ops[i]
		o.offset = sched[i]
		o.prefix = a
		if i%ingestQueryEvery == ingestQueryEvery-1 {
			o.query, o.kind = true, 1
			o.side = []string{"r", "s"}[(i/ingestQueryEvery)%2]
			lo := recent + rng.Int63n(z.Lifespan/10)
			o.window = chronon.New(chronon.Chronon(lo), chronon.Chronon(lo+z.Lifespan/100))
			continue
		}
		o.side = []string{"r", "s"}[a%2]
		o.append = a
		for j := 0; j < ingestBatchRows; j++ {
			st := chronon.Chronon(recent + rng.Int63n(z.Lifespan/10))
			iv := chronon.New(st, st+chronon.Chronon(rng.Int63n(z.Lifespan/100+1)))
			if j%ingestOngoingEvery == ingestOngoingEvery-1 {
				iv = chronon.NewOngoing(st)
			}
			id := int64(ingestIDBase + a*64 + j)
			o.batch = append(o.batch, tuple.New(iv, value.Int(rng.Int63n(serveKeys)), value.Int(id)))
		}
		a++
	}
	return ops
}

func (o *ingestOp) queryText() string {
	return fmt.Sprintf("scan %s | select vt overlaps [%d, %d]", o.side, o.window.Start, o.window.End)
}

// runIngest plays the writer schedule on one connection; each slot is
// sent at its scheduled time or, when the previous one is still in
// flight, as soon as it completes.
func runIngest(ie *ingestEnv, ops []ingestOp, tr *tracer) ([]float64, error) {
	client := newConn()
	defer client.CloseIdleConnections()
	start := time.Now().Add(20 * time.Millisecond)
	var late []float64
	for i := range ops {
		o := &ops[i]
		o.scheduled = start.Add(o.offset)
		if d := time.Until(o.scheduled); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(o.scheduled)))
		if o.query {
			postQueryOp(client, ie.hs.URL, o.queryText(), &o.opResult)
			alternate(tr, i, ingestQueryEvery).record(int64(i), 0, "HTTP POST /query", o.sent, o.done)
			continue
		}
		sch := serveLeftSchema
		if o.side == "s" {
			sch = serveRightSchema
		}
		var body bytes.Buffer
		if err := csvio.WriteTuples(&body, sch, o.batch); err != nil {
			return nil, err
		}
		o.sent = time.Now()
		resp, err := client.Post(ie.hs.URL+"/relations/"+o.side+"/append", "text/csv", &body)
		if err != nil {
			o.done, o.status = time.Now(), err.Error()
			continue
		}
		var doc struct {
			Subscribers int `json:"subscribers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		o.done = time.Now()
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			o.status = "reject"
		case resp.StatusCode != http.StatusOK || err != nil:
			o.status = fmt.Sprintf("append HTTP %d", resp.StatusCode)
		case doc.Subscribers != 1:
			o.status = fmt.Sprintf("append reached %d subscribers, want 1", doc.Subscribers)
		default:
			o.status = "ok"
		}
		alternate(tr, i, ingestQueryEvery).record(int64(i), 0, "HTTP POST /append", o.sent, o.done)
	}
	return late, nil
}

// expectIngest computes, after the run, each append's expected delta
// (the appended rows joined with the other side's current contents,
// bound at bindNow) and each query's expected answer over the append
// prefix it saw; it advances ie.rt and ie.st to the final contents.
func expectIngest(ie *ingestEnv, ops []ingestOp) (map[int]lineSum, map[int]lineSum, error) {
	plan, err := schema.PlanNaturalJoin(serveLeftSchema, serveRightSchema)
	if err != nil {
		return nil, nil, err
	}
	deltas := map[int]lineSum{}
	answers := map[int]lineSum{}
	for i := range ops {
		o := &ops[i]
		if o.status != "ok" {
			if o.query {
				continue
			}
			return nil, nil, fmt.Errorf("append %d failed: %s", o.append, o.status)
		}
		if o.query {
			src := ie.rt
			if o.side == "s" {
				src = ie.st
			}
			var hit []tuple.Tuple
			for _, t := range src {
				if t.V.Overlaps(o.window) {
					hit = append(hit, t)
				}
			}
			answers[i] = csvLines(hit)
			continue
		}
		var zs []tuple.Tuple
		if o.side == "r" {
			zs = join.Reference(plan, o.batch, ie.st)
			ie.rt = append(ie.rt, o.batch...)
		} else {
			zs = join.Reference(plan, ie.rt, o.batch)
			ie.st = append(ie.st, o.batch...)
		}
		deltas[o.append] = csvLines(bindAll(zs, ie.bindNow))
	}
	return deltas, answers, nil
}

// bindAll applies the subscription's now-binding, dropping rows whose
// ongoing validity has not begun by then.
func bindAll(ts []tuple.Tuple, now chronon.Chronon) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, len(ts))
	for _, t := range ts {
		iv := t.V.BindNow(now)
		if iv.IsNull() {
			continue
		}
		t.V = iv
		out = append(out, t)
	}
	return out
}

// checkIngest verifies the queries against their prefixes and every
// append's delivery: exactly its expected rows, once.
func checkIngest(ops []ingestOp, deltas, answers map[int]lineSum, got map[int]*ingestDelivery) error {
	for i := range ops {
		o := &ops[i]
		if o.query {
			if o.status != "ok" && o.status != "reject" {
				return fmt.Errorf("query %d (%q) failed: %s", i, o.queryText(), o.status)
			}
			if o.status == "ok" && o.sum != answers[i] {
				return fmt.Errorf("query %d (%q) after %d appends returned %d rows (checksum %016x), prefix reference %d rows (checksum %016x)",
					i, o.queryText(), o.prefix, o.sum.Count, o.sum.Sum, answers[i].Count, answers[i].Sum)
			}
			continue
		}
		want := deltas[o.append]
		var have lineSum
		if dl := got[o.append]; dl != nil {
			have = dl.sum
		}
		if have != want {
			return fmt.Errorf("append %d: subscriber received %d delta rows (checksum %016x), reference %d rows (checksum %016x)",
				o.append, have.Count, have.Sum, want.Count, want.Sum)
		}
	}
	return nil
}

// ingestPhase runs one schedule and verifies it; it returns the ops,
// deliveries and generator lateness.
func ingestPhase(ie *ingestEnv, z ingestSizes, seconds float64, seed int64, tr *tracer) ([]ingestOp, map[int]*ingestDelivery, []float64, error) {
	ops := buildIngest(z, seconds, seed)
	late, err := runIngest(ie, ops, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	deltas, answers, err := expectIngest(ie, ops)
	if err != nil {
		return nil, nil, nil, err
	}
	var want int64
	for _, d := range deltas {
		want += d.Count
	}
	got, err := ie.sub.await(want, 10*time.Second)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := checkIngest(ops, deltas, answers, got); err != nil {
		return nil, nil, nil, err
	}
	return ops, got, late, nil
}

// checkFinalState compares the subscription's state — the initial
// join plus every delivered delta — with a batch re-join of the final
// relations.
func checkFinalState(ie *ingestEnv, initial lineSum, got map[int]*ingestDelivery) error {
	state := initial
	for _, dl := range got {
		state.add(dl.sum)
	}
	var final []tuple.Tuple
	if _, _, err := ie.srv.Execute(context.Background(), subscribeQuery, func(t tuple.Tuple) error {
		final = append(final, t.Clone())
		return nil
	}); err != nil {
		return fmt.Errorf("final re-join: %w", err)
	}
	want := csvLines(bindAll(final, ie.bindNow))
	if state != want {
		return fmt.Errorf("subscription state has %d rows (checksum %016x), batch re-join %d rows (checksum %016x)",
			state.Count, state.Sum, want.Count, want.Sum)
	}
	return nil
}

func initialJoin(ie *ingestEnv) (lineSum, error) {
	plan, err := schema.PlanNaturalJoin(serveLeftSchema, serveRightSchema)
	if err != nil {
		return lineSum{}, err
	}
	return csvLines(bindAll(join.Reference(plan, ie.rt, ie.st), ie.bindNow)), nil
}

type ingestStats struct {
	appendLat, deliveryLat, queryLat []float64
	failed, attempted                int64
}

func summarizeIngest(ops []ingestOp, got map[int]*ingestDelivery) ingestStats {
	var s ingestStats
	for i := range ops {
		o := &ops[i]
		s.attempted++
		if o.status != "ok" {
			s.failed++
			continue
		}
		if o.query {
			s.queryLat = append(s.queryLat, ms(o.latency()))
			continue
		}
		s.appendLat = append(s.appendLat, ms(o.latency()))
		if dl := got[o.append]; dl != nil {
			s.deliveryLat = append(s.deliveryLat, ms(dl.last.Sub(o.scheduled)))
		}
	}
	return s
}

// windowedAppendP50 is the median over the run's windows (see
// windowed) of each window's median latency of the ok appends.
func windowedAppendP50(ops []ingestOp, seconds float64) float64 {
	at := make([]time.Time, len(ops))
	for i, o := range ops {
		at[i] = o.scheduled
	}
	var xs []float64
	for _, w := range windowed(at, seconds) {
		var lat []float64
		for _, i := range w {
			if o := ops[i]; !o.query && o.status == "ok" {
				lat = append(lat, ms(o.latency()))
			}
		}
		if len(lat) > 0 {
			xs = append(xs, quantile(lat, 0.5))
		}
	}
	return median(xs)
}

func runServeIngest(cfg runConfig) (*outcome, error) {
	z := ingestSizesFor(cfg.size)
	var setups []float64
	var ie *ingestEnv
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := setupIngest(z, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ie != nil {
			ie.close()
		}
		ie = next
	}
	defer ie.close()
	initial, err := initialJoin(ie)
	if err != nil {
		return nil, err
	}
	if cfg.wrongReference {
		initial.Sum++
	}
	out := &outcome{rates: map[string]float64{
		"slotsPerSec": z.Rate, "appendsPerSec": z.Rate * (ingestQueryEvery - 1) / ingestQueryEvery,
		"queriesPerSec": z.Rate / ingestQueryEvery, "batchRows": ingestBatchRows, "connections": 2,
		"latencyLimitMs": serveLatencyLimitMS, "subscriptions": 1, "bindNow": float64(ie.bindNow),
	}}
	if cfg.trace {
		return traceServeIngest(cfg, z, ie, initial, out)
	}

	c0 := ie.d.Counters()
	reg := beginRegion()
	ops, got, late, err := ingestPhase(ie, z, cfg.seconds, cfg.seed, nil)
	rr := reg.end()
	if err != nil {
		return nil, err
	}
	io := ie.d.Counters().Sub(c0)
	if err := checkFinalState(ie, initial, got); err != nil {
		return nil, err
	}
	st := summarizeIngest(ops, got)
	done := float64(st.attempted - st.failed)
	out.attempted, out.failed = st.attempted, st.failed
	ap50, ap90 := windowedAppendP50(ops, cfg.seconds), quantile(st.appendLat, 0.9)
	out.e2e = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {rr.PeakMB, "MiB"},
		"cpu_ms_per_op":  {ms(rr.CPU) / done, "ms"},
		"op_p50_ms":      {ap50, "ms"},
		"io_cost_per_op": {weightedIO(io) / done, "weighted_pages"},
	}
	out.named = []namedMetric{
		{"setup_s", median(setups), "s"},
		{"peak_heap_mb", rr.PeakMB, "MiB"},
		{"failed_ratio", float64(st.failed) / float64(st.attempted), "ratio"},
		{"cpu_ms_per_op", ms(rr.CPU) / done, "ms"},
		{"append_p50_ms (windowed)", ap50, "ms"},
		{"append_p50_ms (whole run)", quantile(st.appendLat, 0.5), "ms"},
		{"append_p90_ms", ap90, "ms"},
		{"append_p99_ms", quantile(st.appendLat, 0.99), "ms"},
		{"p99_within_latency_limit", boolMetric(quantile(st.appendLat, 0.99) <= serveLatencyLimitMS), "bool"},
		{"delivery_p50_ms", quantile(st.deliveryLat, 0.5), "ms"},
		{"delivery_p99_ms", quantile(st.deliveryLat, 0.99), "ms"},
		{"query_p50_ms", quantile(st.queryLat, 0.5), "ms"},
		{"query_p99_ms", quantile(st.queryLat, 0.99), "ms"},
		{"appends", float64(len(st.appendLat)), "count"},
		{"gen_late_p99_ms", quantile(late, 0.99), "ms"},
	}
	return out, nil
}

func traceServeIngest(cfg runConfig, z ingestSizes, ie *ingestEnv, initial lineSum, out *outcome) (*outcome, error) {
	tr := newTracer()
	c0 := ie.d.Counters()
	rej0 := ie.srv.Stats().Rejects
	ops, got, late, err := ingestPhase(ie, z, cfg.seconds, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	io := ie.d.Counters().Sub(c0)
	if err := checkFinalState(ie, initial, got); err != nil {
		return nil, err
	}
	rej1 := ie.srv.Stats().Rejects
	st := summarizeIngest(ops, got)
	done := float64(st.attempted - st.failed)
	var plain, traced []float64
	for i, o := range ops {
		if o.query || o.status != "ok" {
			continue
		}
		if alternate(tr, i, ingestQueryEvery) != nil {
			traced = append(traced, ms(o.latency()))
		} else {
			plain = append(plain, ms(o.latency()))
		}
	}
	// The traffic subscriber is done; the ladder opens its own.
	ie.sub.stop()
	ie.sub = nil

	r, err := ie.cat.Lookup("r")
	if err != nil {
		return nil, err
	}
	s, err := ie.cat.Lookup("s")
	if err != nil {
		return nil, err
	}
	in := &ladderInput{
		d: ie.d, r: r, s: s, memory: serveQueryMemory,
		joinQuery: subscribeQuery, queries: []string{subscribeQuery, ops[ingestQueryEvery-1].queryText()},
		srv: ie.srv, cat: ie.cat, base: ie.hs.URL, reps: ladderReps(cfg.size),
	}
	lad, err := runLadder(tr, in)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = st.attempted, st.failed
	out.layers = lad.metrics
	out.layers["disk.pages_per_op"] = metric{float64(io.Total()) / done, "pages"}
	out.layers["disk.random_share"] = metric{float64(io.Random()) / float64(max(io.Total(), 1)), "ratio"}
	out.layers["disk.bytes_per_op"] = metric{float64(io.BytesMoved) / done, "bytes"}
	out.layers["serve.reject_ratio"] = metric{float64(rej1-rej0) / float64(st.attempted), "ratio"}
	out.layers["bench.gen_late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	out.layers["bench.trace_overhead_pct"] = metric{overheadPct(median(traced), median(plain)), "%"}

	meanAppend := mean(st.appendLat)
	rows := float64(ingestBatchRows)
	root := node("HTTP POST /append, open loop (mean append latency)", meanAppend,
		node("HTTP POST /append, unloaded (one at a time)", lad.appendHTTPMS,
			node(fmt.Sprintf("csvio.parse (%d rows)", ingestBatchRows), rows*lad.csvParseRowNS/1e6),
			node(fmt.Sprintf("relation.append (%d rows)", ingestBatchRows), rows*lad.appendTupleNS/1e6),
			node(fmt.Sprintf("incremental.fold (%d rows)", ingestBatchRows), rows*lad.foldUS/1e3)),
	)
	out.selfRows = selfTable(root)
	out.layers["bench.unexplained_share"] = metric{out.selfRows[0].SelfMS / meanAppend, "ratio"}
	if err := finishTrace(cfg, "serve-ingest", tr, out); err != nil {
		return nil, err
	}
	return out, nil
}
