package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call made by the benchmark: a traffic operation or
// a ladder call into one layer's public function. Parent names the
// span of the layer that, inside the program, makes this call (the
// ladder times the calls separately, so a child does not nest inside
// its parent's interval); Op groups the spans of one operation or
// ladder repetition.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the run's epoch
	End    int64  `json:"endNs"`
}

// tracer holds spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its id (0 when disabled).
func (t *tracer) record(op, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// alternate returns tr for the ops of even-numbered groups of period
// consecutive ops and nil for the others, so one run holds traced and
// untraced ops side by side for the tracing-overhead comparison.
func alternate(tr *tracer, op, period int) *tracer {
	if (op/period)%2 == 0 {
		return tr
	}
	return nil
}

// overheadPct is the tracing overhead: the traced ops' latency against
// the untraced ones', in percent.
func overheadPct(traced, plain float64) float64 { return 100 * (traced - plain) / plain }

// span runs fn inside a span.
func (t *tracer) span(op, parent int64, name string, fn func() error) (int64, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return t.record(op, parent, name, start, end), end.Sub(start), err
}

// selfRow is one layer of a workload's self-time table: the layer's
// time per operation, and that time minus what the next layers down
// (its children in the ladder tree) account for.
type selfRow struct {
	Layer   string  `json:"layer"`
	Depth   int     `json:"depth"`
	TotalMS float64 `json:"totalMsPerOp"`
	SelfMS  float64 `json:"selfMsPerOp"`
}

// layerNode is a node of the ladder tree: a layer's per-operation time
// and the layers it calls.
type layerNode struct {
	name     string
	ms       float64
	children []*layerNode
}

func node(name string, ms float64, children ...*layerNode) *layerNode {
	return &layerNode{name: name, ms: ms, children: children}
}

// selfTable flattens the tree depth-first, computing self time as the
// node's time minus its children's.
func selfTable(root *layerNode) []selfRow {
	var out []selfRow
	var walk func(n *layerNode, depth int)
	walk = func(n *layerNode, depth int) {
		self := n.ms
		for _, c := range n.children {
			self -= c.ms
		}
		out = append(out, selfRow{Layer: n.name, Depth: depth, TotalMS: n.ms, SelfMS: self})
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// largestSelf returns the non-root row with the largest self time.
func largestSelf(rows []selfRow) selfRow {
	var best selfRow
	for _, r := range rows[1:] {
		if r.SelfMS > best.SelfMS {
			best = r
		}
	}
	return best
}

func renderSelfTable(workload string, rows []selfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "self-time table, %s (ms per operation; self = total minus the layers it calls)\n", workload)
	fmt.Fprintf(&b, "  %-56s %12s %12s\n", "layer", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-56s %12.3f %12.3f\n", strings.Repeat("  ", r.Depth)+r.Layer, r.TotalMS, r.SelfMS)
	}
	if top := largestSelf(rows); top.Layer != "" {
		fmt.Fprintf(&b, "  largest layer below the op: %s (%.3f ms self)\n", top.Layer, top.SelfMS)
	}
	return b.String()
}

// writeTrace writes the spans, sorted by start, and the self-time
// table to dir/<workload>-seed<seed>.trace.json.
func (t *tracer) writeTrace(dir, workload string, seed int64, rows []selfRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Workload  string    `json:"workload"`
		Seed      int64     `json:"seed"`
		SelfTable []selfRow `json:"selfTable"`
		Spans     []Span    `json:"spans"`
	}{workload, seed, rows, spans}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
