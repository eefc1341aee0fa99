package cost

import (
	"testing"

	"vtjoin/internal/disk"
	"vtjoin/internal/page"
)

func TestWeights(t *testing.T) {
	w := Ratio(5)
	c := disk.Counters{RandReads: 2, SeqReads: 10, RandWrites: 1, SeqWrites: 4}
	// 3 random * 5 + 14 sequential * 1 = 29
	if got := w.Of(c); got != 29 {
		t.Fatalf("cost = %g, want 29", got)
	}
	if w.String() != "5:1" {
		t.Fatalf("String = %q", w.String())
	}
}

func TestReport(t *testing.T) {
	r := &Report{Algorithm: "test"}
	r.AddPhase(Phase{Name: "a", Counters: disk.Counters{RandReads: 1}})
	r.AddPhase(Phase{Name: "b", Counters: disk.Counters{SeqReads: 3}})
	tot := r.Total()
	if tot.RandReads != 1 || tot.SeqReads != 3 {
		t.Fatalf("Total = %v", tot)
	}
	w := Ratio(10)
	if got := r.Cost(w); got != 13 {
		t.Fatalf("Cost = %g, want 13", got)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMeterAttributesPhases(t *testing.T) {
	d := disk.New(page.DefaultSize)
	f := d.Create()
	p := page.MustNew(page.DefaultSize)

	m := NewMeter(d, "algo")
	for i := 0; i < 3; i++ {
		if _, err := d.Append(f, p); err != nil {
			t.Fatal(err)
		}
	}
	m.EndPhase("build")
	for i := 0; i < 3; i++ {
		if err := d.Read(f, i, p); err != nil {
			t.Fatal(err)
		}
	}
	m.EndPhase("scan")

	rep := m.Report()
	if len(rep.Phases) != 2 {
		t.Fatalf("%d phases", len(rep.Phases))
	}
	build, scan := rep.Phases[0].Counters, rep.Phases[1].Counters
	if build.RandWrites != 1 || build.SeqWrites != 2 || build.Total() != 3 {
		t.Fatalf("build = %v", build)
	}
	if scan.RandReads != 1 || scan.SeqReads != 2 || scan.Total() != 3 {
		t.Fatalf("scan = %v", scan)
	}
}

func TestMeterIgnoresPriorAccesses(t *testing.T) {
	d := disk.New(page.DefaultSize)
	f := d.Create()
	p := page.MustNew(page.DefaultSize)
	if _, err := d.Append(f, p); err != nil { // before the meter exists
		t.Fatal(err)
	}
	m := NewMeter(d, "algo")
	m.EndPhase("empty")
	if tot := m.Report().Total(); tot.Total() != 0 {
		t.Fatalf("meter counted pre-existing accesses: %v", tot)
	}
}
