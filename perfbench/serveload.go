package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/serve"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Shared pieces of the two serving workloads: an in-process vtserve on
// loopback over v1 pages, driven open loop from one process.

const (
	serveFormat      = page.FormatV1
	serveQueryMemory = 16 // every query hints "memory 16"; the relations fit inside it
	servePoolPages   = 8 * serveQueryMemory
	serveKeys        = 32
	// serveLatencyLimitMS is the latency limit the open-loop rates are
	// chosen to meet at p99; each serving run prints whether it did.
	serveLatencyLimitMS = 100
)

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
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

// genSide draws n tuples with ids 0..n-1 and every ongoingEvery'th
// tuple ongoing (0: none). Starts spread over the lifespan, durations
// up to maxDur and keys from the shared domain are stratified: the
// tuples take the n strata of each (and each key n/keys times) in
// three random orders. The seed then moves which tuples meet but not
// how many of each kind there are; with plain uniform draws the result
// sizes of the serve-query mix swung by up to 15% between seeds.
func genSide(rng *rand.Rand, n int, lifespan, maxDur int64, keys int64, ongoingEvery int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, n)
	startP, durP, keyP := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	strata := int64(n)
	for i := 0; i < n; i++ {
		st := chronon.Chronon(lifespan*int64(startP[i])/strata + rng.Int63n(max(lifespan/strata, 1)))
		dur := chronon.Chronon((maxDur+1)*int64(durP[i])/strata + rng.Int63n(max((maxDur+1)/strata, 1)))
		iv := chronon.New(st, st+dur)
		if ongoingEvery > 0 && i%ongoingEvery == ongoingEvery-1 {
			iv = chronon.NewOngoing(st)
		}
		out = append(out, tuple.New(iv, value.Int(int64(keyP[i])%keys), value.Int(int64(i))))
	}
	return out
}

// serverEnv is one running server with its device and HTTP listener.
type serverEnv struct {
	d   *disk.Disk
	cat *serve.Catalog
	srv *serve.Server
	hs  *httptest.Server
}

func startServer(rels map[string]*relation.Relation, d *disk.Disk) (*serverEnv, error) {
	cat := serve.NewCatalog()
	for name, r := range rels {
		cat.Register(name, r)
	}
	srv, err := serve.NewServer(serve.Config{
		Disk: d, Catalog: cat, TotalMemoryPages: servePoolPages,
		QueryMemoryPages: serveQueryMemory, CacheEntries: 64, Seed: joinSampleSeed,
	})
	if err != nil {
		return nil, err
	}
	return &serverEnv{d: d, cat: cat, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

func (e *serverEnv) close() {
	e.hs.Close()
	_ = e.d.Close()
}

// reference runs a query serverlessly (plan2.Run over the same
// catalog) and returns the checksum of its CSV rendering.
func reference(e *serverEnv, q string) (lineSum, error) {
	pipe, err := query.Parse(q)
	if err != nil {
		return lineSum{}, err
	}
	root, err := plan2.Bind(pipe, e.cat)
	if err != nil {
		return lineSum{}, err
	}
	var ts []tuple.Tuple
	if _, err := plan2.Run(plan2.Config{Disk: e.d, MemoryPages: serveQueryMemory, Seed: joinSampleSeed}, root,
		func(t tuple.Tuple) error { ts = append(ts, t.Clone()); return nil }); err != nil {
		return lineSum{}, fmt.Errorf("reference %q: %w", q, err)
	}
	return csvLines(ts), nil
}

// opResult is the client-side record of one HTTP operation.
type opResult struct {
	kind      int // index into the workload's operation kinds
	scheduled time.Time
	sent      time.Time
	done      time.Time
	status    string // "ok", "reject", or the failure
	sum       lineSum
}

func (o opResult) latency() time.Duration { return o.done.Sub(o.scheduled) }

// newConn returns a client that keeps exactly one connection open.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// readQuery reads a /query response to its last trailer byte, folding
// every data line into sum; it returns the trailer verdict.
func readQuery(resp *http.Response, sum *lineSum) (string, error) {
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "reject", nil
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	br := bufio.NewReader(resp.Body)
	header := true
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		if header {
			header = false
			continue
		}
		sum.addLine(line[:len(line)-1])
	}
	return resp.Trailer.Get("X-Vtserve-Status"), nil
}

func postQueryOp(client *http.Client, base, q string, o *opResult) {
	o.sent = time.Now()
	resp, err := client.Post(base+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		o.done, o.status = time.Now(), err.Error()
		return
	}
	st, err := readQuery(resp, &o.sum)
	o.done = time.Now()
	switch {
	case err != nil:
		o.status = err.Error()
	case st == "ok", st == "reject":
		o.status = st
	default:
		o.status = "trailer " + st
	}
}

// weightedIO is the paper's cost of a counter set: random × 5 +
// sequential page accesses.
func weightedIO(c disk.Counters) float64 { return cost.Ratio(joinRandomCost).Of(c) }

// latencies returns the ok operations' latencies of one kind, in ms.
func latencies(ops []opResult, kind int) []float64 {
	var xs []float64
	for _, o := range ops {
		if o.kind == kind && o.status == "ok" {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

// failures counts operations that did not succeed.
func failures(ops []opResult) int64 {
	var failed int64
	for _, o := range ops {
		if o.status != "ok" {
			failed++
		}
	}
	return failed
}

// schedule is an open-loop arrival schedule, relative to its start.
type schedule []time.Duration

// poisson draws arrivals at rate per second for the given length.
func poisson(rng *rand.Rand, rate, seconds float64) schedule {
	var s schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return s
		}
		s = append(s, time.Duration(t*float64(time.Second)))
	}
}

// fixedRate spaces arrivals evenly.
func fixedRate(rate, seconds float64) schedule {
	n := int(rate * seconds)
	s := make(schedule, n)
	for i := range s {
		s[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return s
}

// dispatch releases op indices at their scheduled times into a channel
// buffered for the whole schedule, so the generator never waits on the
// system; it returns the absolute scheduled times and each release's
// lateness, which is filled in by the time the WaitGroup is done. The
// channel is closed after the last release.
func dispatch(sched schedule) (<-chan int, []time.Time, []float64, *sync.WaitGroup) {
	jobs := make(chan int, len(sched))
	at := make([]time.Time, len(sched))
	start := time.Now().Add(20 * time.Millisecond)
	for i, d := range sched {
		at[i] = start.Add(d)
	}
	late := make([]float64, len(sched))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := range at {
			if d := time.Until(at[i]); d > 0 {
				time.Sleep(d)
			}
			late[i] = ms(time.Since(at[i]))
			jobs <- i
		}
	}()
	return jobs, at, late, &wg
}
