package vtjoin

import (
	"math/rand"
	"testing"

	"vtjoin/internal/disk"
)

// sumPhases totals the I/O of a phase list.
func sumPhases(phases []PhaseCost) IOCounters {
	var sum IOCounters
	for _, ph := range phases {
		sum.RandomReads += ph.IO.RandomReads
		sum.SequentialReads += ph.IO.SequentialReads
		sum.RandomWrites += ph.IO.RandomWrites
		sum.SequentialWrites += ph.IO.SequentialWrites
		sum.Retries += ph.IO.Retries
		sum.BytesMoved += ph.IO.BytesMoved
	}
	return sum
}

// TestPhaseCountersMatchDevice: the phases Join and JoinInto report
// must account for every counter the device moved during the join —
// retries after transient faults and bytes moved included.
func TestPhaseCountersMatchDevice(t *testing.T) {
	for _, into := range []bool{false, true} {
		name := "Join"
		if into {
			name = "JoinInto"
		}
		t.Run(name, func(t *testing.T) {
			// Two single-shot transient read faults, armed to fire
			// during the join's reads (loading only writes).
			d, fs := disk.NewFaulty(1024, disk.FaultPlan{Faults: []disk.Fault{
				{Kind: disk.FaultTransientRead, Page: -1, After: 5},
				{Kind: disk.FaultTransientRead, Page: -1, After: 40},
			}})
			db := &DB{d: d}
			rng := rand.New(rand.NewSource(3))
			gen := func(n int) []Tuple {
				ts := make([]Tuple, n)
				for i := range ts {
					start := rng.Int63n(3000)
					ts[i] = NewTuple(Span(Chronon(start), Chronon(start+1+rng.Int63n(50))), Int(rng.Int63n(40)), Int(int64(i)))
				}
				return ts
			}
			r, err := db.Load(NewSchema(Col("k", KindInt), Col("a", KindInt)), gen(800))
			if err != nil {
				t.Fatal(err)
			}
			s, err := db.Load(NewSchema(Col("k", KindInt), Col("b", KindInt)), gen(800))
			if err != nil {
				t.Fatal(err)
			}

			before := db.IOCounters()
			opts := Options{MemoryPages: 8}
			var phases []PhaseCost
			if into {
				phases, err = JoinInto(r, s, opts, func(Tuple) error { return nil })
			} else {
				var res *Result
				res, err = Join(r, s, opts)
				if res != nil {
					phases = res.Phases
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			moved := counterDelta(before, db.IOCounters())

			if got := fs.Stats().TransientReads; got != 2 {
				t.Fatalf("injected %d transient reads, want 2", got)
			}
			if moved.Retries != 2 || moved.BytesMoved == 0 {
				t.Fatalf("device moved %+v; want 2 retries and a non-zero byte count", moved)
			}
			if got := sumPhases(phases); got != moved {
				t.Errorf("phases account for\n  %+v\nbut the device moved\n  %+v", got, moved)
			}
		})
	}
}
