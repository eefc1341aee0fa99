package vtjoin

// Acceptance test for the query service: results served over the
// vtserve HTTP surface must be identical to the public JoinContext API
// across every algorithm × matching route (chosen by the join keys,
// testutil.Route) — the language, planner, executor and server must not
// change join semantics.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"vtjoin/internal/csvio"
	"vtjoin/internal/serve"
	"vtjoin/internal/testutil"
)

// buildServePair loads two relations sharing only the "key" column,
// keyed for the given matching route.
func buildServePair(t *testing.T, db *DB, route testutil.Route) (*Relation, *Relation) {
	t.Helper()
	gen := func(payload string, seed int64) *Relation {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]Tuple, 250)
		for i := range ts {
			start := rng.Int63n(900)
			ts[i] = NewTuple(Span(Chronon(start), Chronon(start+1+rng.Int63n(120))),
				Int(rng.Int63n(30)), Int(int64(i)))
		}
		rel, err := db.Load(NewSchema(Col("key", KindInt), Col(payload, KindInt)), route.Keys(ts, 0))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	return gen("a", 41), gen("b", 42)
}

func TestServedResultsMatchJoinContext(t *testing.T) {
	db := Open()
	srv, err := serve.NewServer(serve.Config{Disk: db.d})
	if err != nil {
		t.Fatal(err)
	}
	// Each route's pair is served as r_<route> and s_<route>.
	pairs := map[testutil.Route][2]*Relation{}
	for _, route := range testutil.Routes {
		r, s := buildServePair(t, db, route)
		srv.Catalog().Register("r_"+string(route), r.internal())
		srv.Catalog().Register("s_"+string(route), s.internal())
		pairs[route] = [2]*Relation{r, s}
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	algos := []struct {
		name string
		algo Algorithm
	}{
		{"partition", AlgorithmPartition},
		{"sortmerge", AlgorithmSortMerge},
		{"nestedloop", AlgorithmNestedLoop},
	}
	for _, a := range algos {
		for _, route := range testutil.Routes {
			p := pairs[route]
			t.Run(a.name+"/"+string(route), func(t *testing.T) {
				res, err := JoinContext(context.Background(), p[0], p[1], Options{
					Algorithm:   a.algo,
					MemoryPages: 32,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := res.Relation.All()
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("direct join is empty; fixture does not exercise the join")
				}

				q := fmt.Sprintf("scan r_%s | join scan s_%s using %s memory 32", route, route, a.name)
				resp, err := http.Post(hs.URL+"/query", "text/plain", strings.NewReader(q))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("HTTP %d", resp.StatusCode)
				}
				_, got, err := csvio.ReadTuples(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if st := resp.Trailer.Get("X-Vtserve-Status"); st != "ok" {
					t.Fatalf("status trailer %q", st)
				}

				sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
				sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
				if len(got) != len(want) {
					t.Fatalf("served %d tuples, direct API %d", len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("tuple %d: served %v, direct %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
