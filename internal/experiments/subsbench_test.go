package experiments

import "testing"

// TestRunFigureSubsSmall exercises the steady-state subscription
// harness at a small scale with two fleet sizes: every delivered delta
// segment must verify against the in-memory re-join, the final-state
// algorithm matrix must agree, and teardown must leave the pool
// balanced with no leaked view files (all asserted inside the run).
func TestRunFigureSubsSmall(t *testing.T) {
	p, err := Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 9
	rows, err := RunFigureSubs(p, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d fleet points, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Unverified != 0 {
			t.Fatalf("%d subscribers: %d unverified delta segments", r.Subs, r.Unverified)
		}
		if want := int64(r.Subs * r.Appends); r.VerifiedDeltas != want {
			t.Fatalf("%d subscribers: verified %d segments, want %d", r.Subs, r.VerifiedDeltas, want)
		}
		if r.DeltaRowsPerSub == 0 {
			t.Fatalf("%d subscribers: appends produced no delta rows", r.Subs)
		}
		if r.TuplesPerSec <= 0 {
			t.Fatalf("%d subscribers: throughput %v", r.Subs, r.TuplesPerSec)
		}
	}
	// The delivered delta stream is independent of fleet size.
	if rows[0].DeltaRowsPerSub != rows[1].DeltaRowsPerSub ||
		rows[0].FinalChecksum != rows[1].FinalChecksum {
		t.Fatalf("fleet size changed the deltas: %+v vs %+v", rows[0], rows[1])
	}
	if out := RenderFigureSubs(rows); out == "" {
		t.Fatal("empty render")
	}
}
