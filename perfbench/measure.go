package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"vtjoin/internal/cost"
	"vtjoin/internal/csvio"
	"vtjoin/internal/tuple"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// statWindow is the length, in seconds, of the windows the serving
// workloads' op_p50_ms takes its median over.
const statWindow = 3

// windowed splits a run's ops into consecutive windows of statWindow
// seconds (at least one) by their scheduled send times at, which start
// with the first op, and returns each window's op indices. A median
// over the windows' figures stays where it was under a burst of load
// from outside the process that covers less than half the windows;
// over the whole run, such a burst shifts a quantile toward the tail.
func windowed(at []time.Time, seconds float64) [][]int {
	n := max(int(seconds/statWindow), 1)
	win := make([][]int, n)
	for i, t := range at {
		w := min(int(t.Sub(at[0]).Seconds()/seconds*float64(n)), n-1)
		win[w] = append(win[w], i)
	}
	return win
}

// lineSum is the order-insensitive checksum the timed paths keep: the
// sum of an FNV-1a hash of every CSV data line, plus the line count.
// It is cheap enough to run per response row, and the references
// below compute it over the same CSV rendering the server writes.
type lineSum struct {
	Sum   uint64
	Count int64
}

func (c *lineSum) addLine(line []byte) {
	h := uint64(14695981039346656037) // FNV-1a, inline so the read path allocates nothing
	for _, b := range line {
		h = (h ^ uint64(b)) * 1099511628211
	}
	c.Sum += h
	c.Count++
}

func (c *lineSum) add(o lineSum) {
	c.Sum += o.Sum
	c.Count += o.Count
}

// csvLines renders tuples exactly as the server does (csv.Writer over
// csvio.FormatRecord) and folds each rendered line into a lineSum.
func csvLines(ts []tuple.Tuple) lineSum {
	var out lineSum
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	var rec []string
	for _, t := range ts {
		if len(rec) != 2+len(t.Values) {
			rec = make([]string, 2+len(t.Values))
		}
		buf.Reset()
		_ = w.Write(csvio.FormatRecord(rec, t))
		w.Flush()
		out.addLine(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	return out
}

// heapSampler samples the in-use heap (runtime/metrics, no
// stop-the-world) every period and keeps the peak of each window. Its
// figure is the median of the window peaks: a single peak depends on
// where garbage collections happened to fall, the median of many does
// not.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64 // MiB, one per window; owned by the sampling goroutine until Stop
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = time.Second
)

func readHeapMB() float64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tk := time.NewTicker(period)
		defer tk.Stop()
		peak, windowEnd := readHeapMB(), time.Now().Add(heapWindow)
		for {
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, max(peak, readHeapMB()))
				return
			case now := <-tk.C:
				peak = max(peak, readHeapMB())
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, peak)
					peak, windowEnd = 0, now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median window peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks)
}

// region brackets a timed region: wall clock, process CPU (getrusage)
// and peak heap.
type region struct {
	start time.Time
	cpu0  time.Duration
	heap  *heapSampler
}

func beginRegion() *region {
	return &region{start: time.Now(), cpu0: cost.ProcessCPUTime(), heap: startHeapSampler(25 * time.Millisecond)}
}

type regionResult struct {
	Wall   time.Duration
	CPU    time.Duration
	PeakMB float64
}

func (r *region) end() regionResult {
	return regionResult{Wall: time.Since(r.start), CPU: cost.ProcessCPUTime() - r.cpu0, PeakMB: r.heap.Stop()}
}
