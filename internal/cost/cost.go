// Package cost implements the paper's weighted I/O cost model. Cost is
// the number of I/O operations, with random accesses weighted by the
// random:sequential cost ratio (the paper evaluates 2:1, 5:1 and 10:1).
package cost

import (
	"fmt"
	"time"

	"vtjoin/internal/disk"
)

// Weights holds the per-access costs. The paper fixes IOseq = 1 and
// varies IOrand.
type Weights struct {
	Rand float64 // cost of one random page access (IOran)
	Seq  float64 // cost of one sequential page access (IOseq)
}

// Ratio returns weights with IOseq = 1 and IOrand = r, the paper's
// "random/sequential cost ratio r:1".
func Ratio(r float64) Weights { return Weights{Rand: r, Seq: 1} }

// Of returns the weighted cost of the counted accesses.
func (w Weights) Of(c disk.Counters) float64 {
	return w.Rand*float64(c.Random()) + w.Seq*float64(c.Sequential())
}

// String renders the weights as "r:s".
func (w Weights) String() string { return fmt.Sprintf("%g:%g", w.Rand, w.Seq) }

// Phase names one stage of an evaluation algorithm, e.g. the paper's
// Csample, Cpartition and Cjoin components. Besides the simulated I/O
// counters it records the real wall-clock and process CPU time the
// phase consumed, so CPU-bound differences (e.g. in the matching
// kernel) are visible next to the I/O model.
type Phase struct {
	Name     string
	Counters disk.Counters
	// Wall is the elapsed wall-clock time of the phase.
	Wall time.Duration
	// CPU is the process CPU time (user+system) consumed during the
	// phase, from getrusage where available; zero on platforms without
	// a CPU clock. Unlike Wall it is unaffected by sleeping on I/O
	// simulation or scheduling.
	CPU time.Duration
}

// Report is a per-phase cost breakdown of one algorithm execution.
type Report struct {
	Algorithm string
	Phases    []Phase
}

// AddPhase records a fully-populated phase (counters and timings).
func (r *Report) AddPhase(p Phase) { r.Phases = append(r.Phases, p) }

// Total returns the summed counters over all phases.
func (r *Report) Total() disk.Counters {
	var t disk.Counters
	for _, p := range r.Phases {
		t = t.Add(p.Counters)
	}
	return t
}

// Cost returns the weighted total cost under w.
func (r *Report) Cost(w Weights) float64 { return w.Of(r.Total()) }

// String renders the report with per-phase access counts.
func (r *Report) String() string {
	s := r.Algorithm + ":"
	for _, p := range r.Phases {
		s += fmt.Sprintf(" %s[%v]", p.Name, p.Counters)
	}
	return s
}

// Meter measures phases against a disk's counters. Typical use:
//
//	m := cost.NewMeter(d, "partition join")
//	... sampling ...
//	m.EndPhase("sample")
//	... partitioning ...
//	m.EndPhase("partition")
type Meter struct {
	d        *disk.Disk
	report   *Report
	mark     disk.Counters
	wallMark time.Time
	cpuMark  time.Duration
}

// NewMeter starts measuring the named algorithm on d from the disk's
// current counter values.
func NewMeter(d *disk.Disk, algorithm string) *Meter {
	return &Meter{
		d:        d,
		report:   &Report{Algorithm: algorithm},
		mark:     d.Counters(),
		wallMark: time.Now(),
		cpuMark:  ProcessCPUTime(),
	}
}

// EndPhase closes the current phase, attributing to it every access —
// and all wall-clock and CPU time — since the previous EndPhase (or
// the meter's creation).
func (m *Meter) EndPhase(name string) {
	now := m.d.Counters()
	wall, cpu := time.Now(), ProcessCPUTime()
	m.report.AddPhase(Phase{
		Name:     name,
		Counters: now.Sub(m.mark),
		Wall:     wall.Sub(m.wallMark),
		CPU:      cpu - m.cpuMark,
	})
	m.mark, m.wallMark, m.cpuMark = now, wall, cpu
}

// Report returns the accumulated report.
func (m *Meter) Report() *Report { return m.report }
