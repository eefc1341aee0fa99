package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/serve"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// The serve figure measures the query service under concurrent load:
// many client sessions replay a fixed query mix over HTTP against an
// in-process server whose buffer pool is deliberately small, so
// admission control is exercised (rejected sessions back off and
// retry). Every successful response is checksum-verified against a
// direct, serverless execution of the same plan — the throughput and
// latency numbers are only reported for verified-correct answers.

// serveQueryPages is the per-query buffer reservation; every query in
// the mix hints "memory 16" so reservations are uniform and the
// concurrency ceiling is exactly servePoolPages/serveQueryPages.
const (
	serveQueryPages   = 16
	serveConcurrency  = 8 // queries the pool admits at once
	servePoolPages    = serveQueryPages * serveConcurrency
	serveQueriesEach  = 6 // queries per session
	serveRetryBackoff = time.Millisecond
	serveRetryCap     = 100_000 // per-query attempts before giving up
)

// serveQueryMix is the session script: joins across all three
// algorithms, a filtered subquery join, a temporal
// difference and an aggregate, so the executor's whole surface is
// under load. Sessions walk the mix round-robin from a per-session
// offset, so at any instant the in-flight mix is heterogeneous.
var serveQueryMix = []string{
	"scan r | join scan s using partition memory 16",
	"scan r | join scan s using sortmerge memory 16",
	"scan r | join scan s using nestedloop memory 16",
	"scan r | select key < 16 | join (scan s | select key < 16) using partition memory 16",
	"scan r | diff (scan r | select key < 8)",
	"scan r | join scan s using sortmerge memory 16 | aggregate count",
}

var (
	serveLeftSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "rid", Kind: value.KindInt},
	)
	serveRightSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "sid", Kind: value.KindInt},
	)
)

// ServeResult is the serve figure: service-level throughput and tail
// latency under admission control, with every counted query verified
// against a direct execution.
type ServeResult struct {
	Sessions   int           // concurrent client sessions
	PerSession int           // queries each session ran
	Queries    int64         // total verified-ok queries
	Rows       int64         // total result rows streamed
	Rejects    int64         // admission 503s observed by clients
	Wall       time.Duration // whole-load wall clock
	Throughput float64       // verified queries per second
	P50, P99   time.Duration // successful-request latency percentiles
	CacheHits  int64
	CacheMiss  int64
	PoolPages  int // admission pool size (pages)
	QueryPages int // per-query reservation (pages)
}

func genServeSide(p Params, seed, side int64) []tuple.Tuple {
	n := p.ScaleCount(16384)
	if n < 128 {
		n = 128
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		st := chronon.Chronon(rng.Int63n(p.Lifespan))
		iv := chronon.New(st, st+chronon.Chronon(rng.Int63n(p.Lifespan/100+1)))
		out = append(out, tuple.New(iv,
			value.Int(rng.Int63n(32)), value.Int(side<<32+int64(i))))
	}
	return out
}

// serveReference is the direct (serverless) execution of one query in
// the mix: same catalog, same device, no admission, no HTTP. Its
// order-insensitive checksum is the ground truth served responses are
// verified against.
type serveReference struct {
	sum  uint64
	rows int64
}

func serveReferences(p Params, d *disk.Disk, srv *serve.Server) (map[string]serveReference, error) {
	refs := make(map[string]serveReference, len(serveQueryMix))
	for _, q := range serveQueryMix {
		pipe, err := query.Parse(q)
		if err != nil {
			return nil, err
		}
		root, err := plan2.Bind(pipe, srv.Catalog())
		if err != nil {
			return nil, err
		}
		var sink ChecksumSink
		if _, err := plan2.Run(plan2.Config{
			Ctx:         p.Ctx,
			Disk:        d,
			MemoryPages: serveQueryPages,
			Seed:        p.Seed,
		}, root, sink.Append); err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		refs[q] = serveReference{sum: sink.Sum, rows: sink.Count}
	}
	return refs, nil
}

// RunFigureServe replays sessions concurrent client sessions (each
// running the full query mix) against an in-process vtserve and
// reports throughput, latency percentiles and admission rejects. Every
// ok response is checksum-verified against the direct execution; a
// mismatch fails the run. Rejected queries back off and retry until
// admitted, so the load survives pool exhaustion without deadlock.
func RunFigureServe(p Params, sessions int) (*ServeResult, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("experiments: serve figure needs at least 1 session, got %d", sessions)
	}
	d := p.NewDevice()
	r, err := relation.FromTuples(d, serveLeftSchema, genServeSide(p, p.Seed+11, 1))
	if err != nil {
		return nil, err
	}
	s, err := relation.FromTuples(d, serveRightSchema, genServeSide(p, p.Seed+12, 2))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Disk:             d,
		TotalMemoryPages: servePoolPages,
		QueryMemoryPages: serveQueryPages,
		CacheEntries:     len(serveQueryMix) * 2,
		Seed:             p.Seed,
	})
	if err != nil {
		return nil, err
	}
	srv.Catalog().Register("r", r)
	srv.Catalog().Register("s", s)

	refs, err := serveReferences(p, d, srv)
	if err != nil {
		return nil, err
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := hs.Client()

	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rows      int64
		rejects   int64
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	for sess := 0; sess < sessions; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			local := make([]time.Duration, 0, serveQueriesEach)
			var localRows, localRejects int64
			for i := 0; i < serveQueriesEach && !failed(); i++ {
				q := serveQueryMix[(sess+i)%len(serveQueryMix)]
				lat, n, rej, err := serveOneQuery(ctx, client, hs.URL, q, refs[q])
				if err != nil {
					fail(fmt.Errorf("session %d %q: %w", sess, q, err))
					return
				}
				local = append(local, lat)
				localRows += n
				localRejects += rej
			}
			mu.Lock()
			latencies = append(latencies, local...)
			rows += localRows
			rejects += localRejects
			mu.Unlock()
		}(sess)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	// Post-load invariants: the pool balanced (every reservation was
	// released) and the server counted the same rejects the clients saw.
	st := srv.Stats()
	if st.PoolUsed != 0 {
		return nil, fmt.Errorf("experiments: serve pool unbalanced after load: %d pages still reserved", st.PoolUsed)
	}
	if st.Rejects != rejects {
		return nil, fmt.Errorf("experiments: server counted %d rejects, clients observed %d", st.Rejects, rejects)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q int) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := len(latencies) * q / 100
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	return &ServeResult{
		Sessions:   sessions,
		PerSession: serveQueriesEach,
		Queries:    int64(len(latencies)),
		Rows:       rows,
		Rejects:    rejects,
		Wall:       wall,
		Throughput: float64(len(latencies)) / wall.Seconds(),
		P50:        pct(50),
		P99:        pct(99),
		CacheHits:  st.Cache.Hits,
		CacheMiss:  st.Cache.Misses,
		PoolPages:  servePoolPages,
		QueryPages: serveQueryPages,
	}, nil
}

// serveOneQuery posts one query, retrying with backoff while the
// server's admission control rejects it, then checksum-verifies the
// response. The reported latency is the successful request's alone;
// rejected attempts are counted separately.
func serveOneQuery(ctx context.Context, client *http.Client, base, q string, ref serveReference) (lat time.Duration, rows, rejects int64, err error) {
	for attempt := 0; attempt < serveRetryCap; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, rejects, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", strings.NewReader(q))
		if err != nil {
			return 0, 0, rejects, err
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, rejects, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			rejects++
			select {
			case <-ctx.Done():
				return 0, 0, rejects, ctx.Err()
			case <-time.After(serveRetryBackoff):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return 0, 0, rejects, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		var sink ChecksumSink
		_, ts, err := csvio.ReadTuples(resp.Body)
		if err != nil {
			resp.Body.Close()
			return 0, 0, rejects, err
		}
		lat = time.Since(start)
		for _, t := range ts {
			if err := sink.Append(t); err != nil {
				resp.Body.Close()
				return 0, 0, rejects, err
			}
		}
		status := resp.Trailer.Get("X-Vtserve-Status")
		resp.Body.Close()
		if status != "ok" {
			return 0, 0, rejects, fmt.Errorf("status trailer %q", status)
		}
		if sink.Sum != ref.sum || sink.Count != ref.rows {
			return 0, 0, rejects, fmt.Errorf("served %d rows checksum %016x, direct execution %d rows checksum %016x",
				sink.Count, sink.Sum, ref.rows, ref.sum)
		}
		return lat, sink.Count, rejects, nil
	}
	return 0, 0, rejects, fmt.Errorf("still rejected after %d attempts", serveRetryCap)
}

// RenderFigureServe formats the serve figure. Timings are real and
// nondeterministic; the verified-query count is the anchor — every
// query it counts returned a checksum-identical answer to a direct
// execution.
func RenderFigureServe(res *ServeResult) string {
	var b strings.Builder
	h := Host()
	fmt.Fprintf(&b, "Query service under concurrent load (all responses checksum-verified)\n")
	fmt.Fprintf(&b, "host: %s/%s, %d cores, GOMAXPROCS %d", h.OS, h.Arch, h.Cores, h.GOMAXPROCS)
	if h.SingleCoreHost {
		fmt.Fprintf(&b, "  [single_core_host: admission queueing dominates]")
	}
	fmt.Fprintf(&b, "\n\n")
	fmt.Fprintf(&b, "sessions: %d x %d queries, pool %d pages / %d per query (%d concurrent)\n\n",
		res.Sessions, res.PerSession, res.PoolPages, res.QueryPages, res.PoolPages/res.QueryPages)
	fmt.Fprintf(&b, "%-22s %12s\n", "verified queries", fmt.Sprint(res.Queries))
	fmt.Fprintf(&b, "%-22s %12s\n", "rows streamed", fmt.Sprint(res.Rows))
	fmt.Fprintf(&b, "%-22s %12s\n", "admission rejects", fmt.Sprint(res.Rejects))
	fmt.Fprintf(&b, "%-22s %12s\n", "wall", res.Wall.Round(time.Millisecond).String())
	fmt.Fprintf(&b, "%-22s %12.1f\n", "queries/sec", res.Throughput)
	fmt.Fprintf(&b, "%-22s %12s\n", "p50 latency", res.P50.Round(time.Microsecond).String())
	fmt.Fprintf(&b, "%-22s %12s\n", "p99 latency", res.P99.Round(time.Microsecond).String())
	fmt.Fprintf(&b, "%-22s %7d hit / %d miss\n", "plan cache", res.CacheHits, res.CacheMiss)
	return b.String()
}
