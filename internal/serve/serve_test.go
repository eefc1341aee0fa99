package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

func iv(lo, hi int64) chronon.Interval { return chronon.New(chronon.Chronon(lo), chronon.Chronon(hi)) }

func genRel(t *testing.T, d *disk.Disk, payload string, seed int64, n int) *relation.Relation {
	t.Helper()
	sch, err := schema.New(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: payload, Kind: value.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.Create(d, sch)
	b := rel.NewBuilder()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		start := rng.Int63n(900)
		end := start + 1 + rng.Int63n(100)
		tp := tuple.New(iv(start, end), value.Int(rng.Int63n(40)), value.Int(int64(i)))
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return rel
}

func newTestServer(t *testing.T, cfg Config) (*Server, *disk.Disk) {
	t.Helper()
	d := disk.New(1024)
	cfg.Disk = d
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Catalog().Register("r", genRel(t, d, "a", 7, 200))
	srv.Catalog().Register("s", genRel(t, d, "b", 8, 200))
	return srv, d
}

func mustExecute(t *testing.T, srv *Server, q string) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if _, _, err := srv.Execute(context.Background(), q, func(tp tuple.Tuple) error {
		out = append(out, tp.Clone())
		return nil
	}); err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return out
}

func TestCacheNormalizationCollisions(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	// All variants of the same query must share one cache entry: first
	// run binds, the rest hit.
	variants := []string{
		"scan r | join scan s",
		"SCAN r | JOIN (scan s)",
		"scan r  |  join scan s using partition",
		"scan r | join scan s using partition on intersects",
		"scan r\n # comment\n | join scan s",
	}
	for _, q := range variants {
		mustExecute(t, srv, q)
	}
	st := srv.Cache().Stats()
	if st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (normalization must collide)", st.Entries)
	}
	if st.Hits != int64(len(variants)-1) || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, len(variants)-1)
	}
}

func TestCacheInvalidationOnDrop(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	before := mustExecute(t, srv, "scan r | select key < 10")

	// Drop r and register a replacement with different contents. The
	// cached plan bound the old relation and must not survive.
	old, err := srv.Catalog().Drop("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Drop(); err != nil {
		t.Fatal(err)
	}
	srv.Catalog().Register("r", genRel(t, d, "a", 99, 50))

	after := mustExecute(t, srv, "scan r | select key < 10")
	if len(after) == len(before) {
		t.Logf("before and after sizes coincide (%d); checking contents", len(before))
	}
	if srv.Cache().Stats().Invalidations == 0 {
		t.Error("no cache invalidation recorded after relation drop")
	}
	// The replacement must actually be read: rerun and compare against a
	// direct scan of the new relation.
	rel, err := srv.Catalog().Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	all, err := rel.All()
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, tp := range all {
		if tp.Values[0].AsInt() < 10 {
			want++
		}
	}
	if len(after) != want {
		t.Errorf("post-drop query returned %d tuples, want %d from the new relation", len(after), want)
	}
}

func TestCacheInvalidationOnFormatChange(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	mustExecute(t, srv, "scan r | aggregate count")

	// Rewrite r in the v2 page format and re-register under the same
	// name — a format migration. The version epoch bump must invalidate.
	rel, err := srv.Catalog().Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	all, err := rel.All()
	if err != nil {
		t.Fatal(err)
	}
	v2 := relation.CreateFormat(d, rel.Schema(), page.FormatV2)
	b := v2.NewBuilder()
	for _, tp := range all {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.Catalog().Register("r", v2)

	inv0 := srv.Cache().Stats().Invalidations
	got := mustExecute(t, srv, "scan r | aggregate count")
	if srv.Cache().Stats().Invalidations != inv0+1 {
		t.Errorf("invalidations = %d, want %d after page-format change",
			srv.Cache().Stats().Invalidations, inv0+1)
	}
	if len(got) == 0 {
		t.Error("aggregate over migrated relation returned nothing")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	srv, _ := newTestServer(t, Config{CacheEntries: 2})
	mustExecute(t, srv, "scan r")
	mustExecute(t, srv, "scan s")
	mustExecute(t, srv, "scan r | select key < 5") // evicts one
	st := srv.Cache().Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// "scan s" was the LRU victim? No: "scan r" was least recently used.
	mustExecute(t, srv, "scan s")
	if got := srv.Cache().Stats().Hits; got == 0 {
		t.Error("recently used entry was evicted")
	}
}

// TestCacheConcurrentHitMiss hammers the cache from many goroutines
// while relations are concurrently re-registered; run under -race this
// is the cache's thread-safety test.
func TestCacheConcurrentHitMiss(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	queries := []string{
		"scan r",
		"scan r | select key < 10",
		"scan r | join scan s using sortmerge",
		"scan s | aggregate count",
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		// Re-register "s" continuously: each Register atomically replaces
		// the binding and bumps the version, invalidating cached plans.
		// Old relations' storage stays live until in-flight readers are
		// done (dropping storage under active queries is the caller's
		// lifetime problem, not the catalog's).
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Catalog().Register("s", genRel(t, d, "b", int64(100+i), 50))
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := srv.Execute(context.Background(), q, func(tuple.Tuple) error { return nil }); err != nil {
					errc <- fmt.Errorf("%q: %w", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.Cache().Stats()
	if st.Hits == 0 {
		t.Error("no cache hits under concurrency")
	}
}

func TestAdmissionRejectsWhenPoolExhausted(t *testing.T) {
	srv, _ := newTestServer(t, Config{TotalMemoryPages: 100, QueryMemoryPages: 60})

	// First query blocks mid-stream holding its 60-page reservation.
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Execute(context.Background(), "scan r", func(tuple.Tuple) error {
			once.Do(func() { close(started) })
			<-hold
			return nil
		})
		done <- err
	}()
	<-started

	// Second query cannot fit 60 more pages into the remaining 40.
	_, _, err := srv.Execute(context.Background(), "scan s", func(tuple.Tuple) error { return nil })
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("error %v, want BusyError", err)
	}
	if busy.Need != 60 || busy.Free != 40 {
		t.Errorf("busy = need %d free %d, want 60/40", busy.Need, busy.Free)
	}
	if got := srv.Stats().Rejects; got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	// Pool must be whole again; the query fits now.
	mustExecute(t, srv, "scan s")
	if used := srv.Stats().PoolUsed; used != 0 {
		t.Errorf("pool used = %d pages after queries finished, want 0", used)
	}
}

func TestDrainRejectsAndWaits(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Execute(context.Background(), "scan r", func(tuple.Tuple) error {
			once.Do(func() { close(started) })
			<-hold
			return nil
		})
		done <- err
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let Drain mark the server

	if _, _, err := srv.Execute(context.Background(), "scan s", func(tuple.Tuple) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Errorf("query during drain: err = %v, want draining rejection", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before in-flight query finished", err)
	default:
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// ---- HTTP round trips ----

func TestHTTPQueryRoundTrip(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const q = "scan r | join scan s using sortmerge"
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sch, got, err := csvio.ReadTuples(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.Trailer.Get("X-Vtserve-Status"); st != "ok" {
		t.Fatalf("trailer status %q, want ok", st)
	}
	if rows := resp.Trailer.Get("X-Vtserve-Rows"); rows != fmt.Sprint(len(got)) {
		t.Errorf("trailer rows %q, body has %d", rows, len(got))
	}
	if sch.Index("key") < 0 || sch.Index("a") < 0 || sch.Index("b") < 0 {
		t.Errorf("served schema %v missing join columns", sch)
	}

	// Served rows must equal a direct in-process execution of the plan.
	pipe, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan2.Bind(pipe, srv.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	if _, err := plan2.Run(plan2.Config{Disk: d}, root, func(tp tuple.Tuple) error {
		want = append(want, tp.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("served %d rows, direct %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: served %v, direct %v", i, got[i], want[i])
		}
	}
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func TestHTTPBadQueryAndBusy(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{"", "scan nosuch", "scan r | selekt key = 1"} {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHTTPBusyIsRealReject pins the admission-reject wire format: a
// rejected query must get an actual 503 status — admission runs before
// the first response byte, so the reject is never a trailer on a 200
// CSV stream (which clients would misparse as a result).
func TestHTTPBusyIsRealReject(t *testing.T) {
	srv, _ := newTestServer(t, Config{TotalMemoryPages: 100, QueryMemoryPages: 60})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Execute(context.Background(), "scan r", func(tuple.Tuple) error {
			once.Do(func() { close(started) })
			<-hold
			return nil
		})
		done <- err
	}()
	<-started

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan s"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %q), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "busy") {
		t.Errorf("503 body %q does not name the busy condition", body)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	// The pool is whole again: the same query over HTTP now succeeds.
	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan s"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
}

func TestHTTPLoadQueryDropLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	csvBody := "vs,ve,city:string,pop:int\n0,10,ann,100\n5,20,bee,200\n"
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/relations/cities", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d, want 201", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan cities | select pop > 150"))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := csvio.ReadTuples(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Values[0].Text() != "bee" {
		t.Fatalf("query over loaded relation: got %v", got)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/relations/cities", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: status %d, want 204", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan cities"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query after drop: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPTimeoutAborts(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A cross-product-heavy nested loop with a 1ms budget cannot finish.
	resp, err := http.Post(ts.URL+"/query?timeout_ms=1", "text/plain",
		strings.NewReader("scan r | join scan s using nestedloop | join scan r using nestedloop"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	status := resp.Trailer.Get("X-Vtserve-Status")
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK && status != "aborted" && status != "ok" {
		t.Errorf("trailer status %q", status)
	}
	if status != "aborted" {
		t.Skipf("query finished within the timeout on this machine (status %q)", status)
	}
	if got := srv.Stats().Aborted; got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	mustExecute(t, srv, "scan r")
	mustExecute(t, srv, "scan r")
	st := srv.Stats()
	if st.Queries != 2 || st.Rows == 0 {
		t.Errorf("stats = %+v, want 2 queries with rows", st)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Device.BytesMoved == 0 {
		t.Error("device counters show no bytes moved")
	}
	if len(st.Recent) != 2 || st.Recent[0].Status != "ok" {
		t.Errorf("recent = %+v", st.Recent)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"queries"`, `"cache"`, `"bytesMoved"`, `"recent"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/stats missing %s in %s", want, buf.String())
		}
	}
}
