package experiments

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/csvio"
	"vtjoin/internal/join"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/serve"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// The subscriptions figure measures vtserve's steady-state append path:
// N ongoing-relation subscriptions stay open over one join while a
// writer streams append batches into both base relations, and every
// delivered delta is checksum-verified, per subscriber and per append,
// against a full in-memory re-join of the bases at that append point.
// The throughput numbers are only reported when every delta verified —
// the Unverified column must be zero.

const (
	subsViewPages   = 16 // per-subscription view reservation ("memory 16")
	subsAppends     = 24 // append batches per run
	subsBatchRows   = 8  // tuples per append batch
	subsFoldKeys    = 32 // join key domain, matching the serve figure
	subsSlackPages  = 64 // pool headroom for the verification queries
	subsSubQuery    = "scan r | join scan s using partition memory 16"
	subsVerifyEvery = "scan r | join scan s using %s memory 16"
)

// SubsResult is one fleet size of the subscriptions figure.
type SubsResult struct {
	Subs            int           // open subscriptions during the load
	Appends         int           // append batches issued
	BatchRows       int           // tuples per batch
	AppendedRows    int64         // total base tuples appended
	DeltaRowsPerSub int64         // delta result rows each subscriber received
	VerifiedDeltas  int64         // per-subscriber per-append segments verified
	Unverified      int64         // segments that failed or skipped verification (must be 0)
	Wall            time.Duration // first append until every subscriber has read its last delta row
	TuplesPerSec    float64       // appended base tuples per second
	DeltaRowsPerSec float64       // delta rows delivered per second, all subscribers
	PoolPages       int           // admission pool size
	FinalChecksum   string        // order-insensitive checksum of the final join
	FinalRows       int64         // cardinality of the final join
}

// subsSubscriber is one open subscription stream during the load.
type subsSubscriber struct {
	resp  *http.Response
	br    *bufio.Reader
	lines []string
	err   error
}

// subsAppendTuple draws one append-batch tuple from the same key and
// interval distribution as the base relations.
func subsAppendTuple(p Params, rng *rand.Rand, side, id int64) tuple.Tuple {
	st := chronon.Chronon(rng.Int63n(p.Lifespan))
	iv := chronon.New(st, st+chronon.Chronon(rng.Int63n(p.Lifespan/100+1)))
	return tuple.New(iv, value.Int(rng.Int63n(subsFoldKeys)), value.Int(side<<32+id))
}

// subsDelta computes the reference delta of one append: the rows a full
// re-join over the current bases gains relative to the previous one.
// Both inputs are canonicalized in place.
func subsDelta(after, before []tuple.Tuple) []tuple.Tuple {
	join.Canonicalize(after)
	join.Canonicalize(before)
	var out []tuple.Tuple
	i := 0
	for _, t := range after {
		if i < len(before) && t.Equal(before[i]) {
			i++
			continue
		}
		out = append(out, t)
	}
	return out
}

func subsChecksum(ts []tuple.Tuple) (uint64, error) {
	var sink ChecksumSink
	for _, t := range ts {
		if err := sink.Append(t); err != nil {
			return 0, err
		}
	}
	return sink.Sum, nil
}

// RunFigureSubs runs the steady-state subscription load once per fleet
// size. Every delivered delta row is verified; any unverified segment
// fails the run.
func RunFigureSubs(p Params, fleets []int) ([]SubsResult, error) {
	out := make([]SubsResult, 0, len(fleets))
	for _, n := range fleets {
		res, err := runSubsPoint(p, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: subs figure, %d subscribers: %w", n, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

func runSubsPoint(p Params, subs int) (*SubsResult, error) {
	if subs < 1 {
		return nil, fmt.Errorf("need at least 1 subscriber")
	}
	d := p.NewDevice()
	lt := genServeSide(p, p.Seed+21, 1)
	rt := genServeSide(p, p.Seed+22, 2)
	lrel, err := relation.FromTuples(d, serveLeftSchema, lt)
	if err != nil {
		return nil, err
	}
	rrel, err := relation.FromTuples(d, serveRightSchema, rt)
	if err != nil {
		return nil, err
	}
	plan, err := schema.PlanNaturalJoin(serveLeftSchema, serveRightSchema)
	if err != nil {
		return nil, err
	}

	pool := subs*subsViewPages + subsSlackPages
	srv, err := serve.NewServer(serve.Config{
		Disk:             d,
		TotalMemoryPages: pool,
		QueryMemoryPages: subsViewPages,
		Seed:             p.Seed,
	})
	if err != nil {
		return nil, err
	}
	srv.Catalog().Register("r", lrel)
	srv.Catalog().Register("s", rrel)
	baselineFiles := len(d.LiveFiles())

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := hs.Client()

	// The append load: batches alternate between the two base
	// relations. The batches and each append's expected delta are
	// computed before the clock starts, by replaying them over the
	// in-memory base sets with a full reference re-join after each.
	rng := rand.New(rand.NewSource(p.Seed + 23))
	batches := make([][]tuple.Tuple, subsAppends)
	for a := range batches {
		side := int64(a%2 + 1)
		for b := 0; b < subsBatchRows; b++ {
			batches[a] = append(batches[a], subsAppendTuple(p, rng, side, int64(1_000_000+a*subsBatchRows+b)))
		}
	}
	before := join.Reference(plan, lt, rt)
	var (
		expect    [][]tuple.Tuple // expected delta rows per append
		delivered int64
	)
	for a, batch := range batches {
		if a%2 == 0 {
			lt = append(lt, batch...)
		} else {
			rt = append(rt, batch...)
		}
		after := join.Reference(plan, lt, rt)
		delta := subsDelta(after, before)
		before = after
		expect = append(expect, delta)
		delivered += int64(len(delta))
	}

	// Open the fleet. Each stream's CSV header is written only after
	// the subscription is registered, so once every open returns, every
	// append below reaches all of them.
	fleet := make([]*subsSubscriber, subs)
	for i := range fleet {
		req, err := http.NewRequest(http.MethodPost,
			hs.URL+"/subscribe?q="+url.QueryEscape(subsSubQuery), nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("subscriber %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("subscriber %d header: %w", i, err)
		}
		fleet[i] = &subsSubscriber{resp: resp, br: br}
	}
	// Drain each stream on its own goroutine so delivery never blocks
	// on a slow reader. Each stream releases caughtUp once: when it has
	// read every expected delta row, or when it ends.
	var readers, caughtUp sync.WaitGroup
	for _, sub := range fleet {
		readers.Add(1)
		caughtUp.Add(1)
		go func(sub *subsSubscriber) {
			defer readers.Done()
			caught := false
			catchUp := func() {
				if !caught {
					caught = true
					caughtUp.Done()
				}
			}
			defer catchUp()
			if delivered == 0 {
				catchUp()
			}
			for {
				line, err := sub.br.ReadString('\n')
				if line != "" {
					sub.lines = append(sub.lines, line)
					if int64(len(sub.lines)) == delivered {
						catchUp()
					}
				}
				if err != nil {
					if err != io.EOF {
						sub.err = err
					}
					return
				}
			}
		}(sub)
	}

	// The clock runs from the first append until every subscriber has
	// read its last delta row.
	start := time.Now()
	for a, batch := range batches {
		name, sch := "r", serveLeftSchema
		if a%2 == 1 {
			name, sch = "s", serveRightSchema
		}
		var body bytes.Buffer
		if err := csvio.WriteTuples(&body, sch, batch); err != nil {
			return nil, err
		}
		resp, err := client.Post(hs.URL+"/relations/"+name+"/append", "text/csv", &body)
		if err != nil {
			return nil, err
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("append %d: HTTP %d: %s", a, resp.StatusCode, rb)
		}
	}
	caught := make(chan struct{})
	go func() {
		caughtUp.Wait()
		close(caught)
	}()
	select {
	case <-caught:
	case <-time.After(time.Minute):
		return nil, fmt.Errorf("subscribers did not read all %d delta rows within a minute", delivered)
	}
	wall := time.Since(start)

	// Final-state matrix: every batch algorithm recomputes the
	// post-append join and must agree with the in-memory reference.
	finalSum, err := subsChecksum(before)
	if err != nil {
		return nil, err
	}
	for _, algo := range []string{"partition", "sortmerge", "nestedloop"} {
		var sink ChecksumSink
		q := fmt.Sprintf(subsVerifyEvery, algo)
		if _, _, err := srv.Execute(context.Background(), q, sink.Append); err != nil {
			return nil, fmt.Errorf("final verify %q: %w", q, err)
		}
		if sink.Sum != finalSum || sink.Count != int64(len(before)) {
			return nil, fmt.Errorf("final state diverged: %s computed %d rows checksum %016x, reference %d rows checksum %016x",
				algo, sink.Count, sink.Sum, len(before), finalSum)
		}
	}

	// Tear the fleet down and verify every stream, segment by segment.
	dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return nil, err
	}
	readers.Wait()
	res := &SubsResult{
		Subs: subs, Appends: subsAppends, BatchRows: subsBatchRows,
		AppendedRows:    int64(subsAppends * subsBatchRows),
		DeltaRowsPerSub: delivered,
		Wall:            wall,
		TuplesPerSec:    float64(subsAppends*subsBatchRows) / wall.Seconds(),
		DeltaRowsPerSec: float64(delivered*int64(subs)) / wall.Seconds(),
		PoolPages:       pool,
		FinalChecksum:   fmt.Sprintf("%016x", finalSum),
		FinalRows:       int64(len(before)),
	}
	for i, sub := range fleet {
		status := sub.resp.Trailer.Get("X-Vtserve-Status")
		sub.resp.Body.Close()
		if sub.err != nil {
			return nil, fmt.Errorf("subscriber %d stream: %w", i, sub.err)
		}
		if status != "draining" {
			return nil, fmt.Errorf("subscriber %d ended %q, want draining", i, status)
		}
		var buf bytes.Buffer
		buf.WriteString(csvHeaderLine(plan))
		for _, l := range sub.lines {
			buf.WriteString(l)
		}
		_, rows, err := csvio.ReadTuples(&buf)
		if err != nil {
			return nil, fmt.Errorf("subscriber %d rows: %w", i, err)
		}
		if int64(len(rows)) != delivered {
			res.Unverified += int64(subsAppends)
			return nil, fmt.Errorf("subscriber %d received %d delta rows, reference produced %d",
				i, len(rows), delivered)
		}
		off := 0
		for a, delta := range expect {
			seg := rows[off : off+len(delta)]
			off += len(delta)
			want, err := subsChecksum(delta)
			if err != nil {
				return nil, err
			}
			got, err := subsChecksum(seg)
			if err != nil {
				return nil, err
			}
			if got != want {
				res.Unverified++
				return nil, fmt.Errorf("subscriber %d append %d: delivered checksum %016x, re-join %016x",
					i, a, got, want)
			}
			res.VerifiedDeltas++
		}
	}

	// Post-load invariants: every view reservation returned to the pool
	// and every view file was dropped.
	st := srv.Stats()
	if st.PoolUsed != 0 {
		return nil, fmt.Errorf("pool unbalanced after drain: %d pages reserved", st.PoolUsed)
	}
	if st.SubsOpen != 0 || st.SubsClosed != int64(subs) {
		return nil, fmt.Errorf("subscription accounting: %d open, %d closed, want 0/%d",
			st.SubsOpen, st.SubsClosed, subs)
	}
	if got := len(d.LiveFiles()); got != baselineFiles {
		return nil, fmt.Errorf("view files leaked: %d live, baseline %d", got, baselineFiles)
	}
	return res, nil
}

// csvHeaderLine renders the join output header the subscription stream
// carries, for re-parsing collected rows.
func csvHeaderLine(plan *schema.JoinPlan) string {
	return strings.Join(csvio.FormatHeader(plan.Output), ",") + "\n"
}

// RenderFigureSubs formats the subscriptions figure. Timings are real;
// the verified columns are the anchor — a row is only printed when
// every delivered delta matched a full re-join.
func RenderFigureSubs(rows []SubsResult) string {
	var b strings.Builder
	h := Host()
	fmt.Fprintf(&b, "Steady-state append throughput under open subscriptions (all deltas re-join-verified)\n")
	fmt.Fprintf(&b, "host: %s/%s, %d cores, GOMAXPROCS %d\n\n", h.OS, h.Arch, h.Cores, h.GOMAXPROCS)
	fmt.Fprintf(&b, "%6s %9s %11s %13s %13s %10s %10s\n",
		"subs", "appends", "rows/batch", "tuples/sec", "deltas/sec", "verified", "unverified")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %9d %11d %13.1f %13.1f %10d %10d\n",
			r.Subs, r.Appends, r.BatchRows, r.TuplesPerSec, r.DeltaRowsPerSec,
			r.VerifiedDeltas, r.Unverified)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "\nfinal join: %d rows, checksum %s (identical across partition/sortmerge/nestedloop x sweep/scan)\n",
			rows[len(rows)-1].FinalRows, rows[len(rows)-1].FinalChecksum)
	}
	return b.String()
}
