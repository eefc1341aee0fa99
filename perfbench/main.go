// Command perfbench is the repository's layered benchmark. It runs one
// seeded workload for a fixed time, checks every output against a
// reference computed outside the timed region, and prints the
// end-to-end metrics (tracing off) or, with --trace 1, the per-layer
// metrics of the layer ladder: direct calls into each module's public
// functions on the workload's own inputs.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve-query --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines above
// it name every metric with its unit and record the host. A failed
// output check exits 1 without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vtjoin/internal/experiments"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int64
	// e2e are the gated end-to-end metrics (tracing off).
	e2e map[string]metric
	// named are the workload's metrics under the names of the metric
	// table (join_p50_ms, query_p99_ms, ...), printed for humans.
	named []namedMetric
	// layers are the per-layer metrics of a traced run.
	layers map[string]metric
	// selfRows is the traced run's self-time table.
	selfRows []selfRow
	// rates records the fixed open-loop rates and latency limit.
	rates map[string]float64
}

type namedMetric struct {
	Name  string
	Value float64
	Unit  string
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	size    sizeClass
	out     string // directory for trace files; empty writes none
	// wrongReference perturbs the workload's reference checksum, so
	// the self-test can show that a mismatch fails the run.
	wrongReference bool
}

// sizeClass selects the benchmark's data sizes: full for measurement,
// tiny for the determinism self-test.
type sizeClass int

const (
	sizeFull sizeClass = iota
	sizeTiny
)

// setupReps is how many times each workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 11

// servingProcs is the GOMAXPROCS of the serving workloads. Their
// server and load generator hand every request between goroutines; on
// two Ps of a host shared with other tenants each handoff to the other
// thread waits whenever that vCPU is descheduled, and idle Ps spin for
// work. On the 2-vCPU reference host, one P cut the CPU per op of both
// serving workloads by a fifth and serve-ingest's run-to-run spread of
// op_p50_ms from 0.18 to 0.07 (IQR over median, five interleaved
// 15-second runs each; serve-query's spread showed no clear change).
// The serving results therefore claim no parallel speedup, and their
// host block says so.
const servingProcs = 1

var workloads = []struct {
	name string
	run  func(runConfig) (*outcome, error)
	// procs, when not 0, is the GOMAXPROCS the workload runs under.
	procs int
}{
	{"join-longlived", runJoinLonglived, 0},
	{"serve-query", runServeQuery, servingProcs},
	{"serve-ingest", runServeIngest, servingProcs},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: join-longlived, serve-query, serve-ingest or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the timed region in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end measurement")
		outDir  = flag.String("out", "", "directory for result and trace files (empty: none)")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, out: *outDir}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	for _, w := range workloads {
		if w.name == *name {
			os.Exit(runOne(w.name, w.run, w.procs, cfg))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runAll runs every workload in turn, printing each one's metrics; it
// fails when any workload's output check fails.
func runAll(cfg runConfig) int {
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		if c := runOne(w.name, w.run, w.procs, cfg); c != 0 {
			code = c
		}
	}
	return code
}

func runOne(name string, run func(runConfig) (*outcome, error), procs int, cfg runConfig) int {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if err := checkReported(out, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
		fmt.Print(renderSelfTable(name, out.selfRows))
	} else {
		for _, m := range out.named {
			fmt.Printf("%-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	printMetrics(metrics)
	h := hostBlock(cfg.seed, out.rates)
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, out.attempted, out.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if cfg.out != "" {
		if err := saveResult(cfg.out, name, cfg, h, res, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: saving result: %v\n", name, err)
			return 1
		}
	}
	fmt.Println(string(line))
	return 0
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-34s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// host describes the machine a result was measured on. Its
// single_core_host flag marks a result that claims no parallel speedup.
type host struct {
	experiments.HostInfo
	CPUModel  string             `json:"cpuModel"`
	GoVersion string             `json:"goVersion"`
	Seed      int64              `json:"seed"`
	Rates     map[string]float64 `json:"rates"`
}

func hostBlock(seed int64, rates map[string]float64) host {
	return host{HostInfo: experiments.Host(), CPUModel: cpuModel(), GoVersion: runtime.Version(), Seed: seed, Rates: rates}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func saveResult(dir, name string, cfg runConfig, h host, res any, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	named := map[string]metric{}
	for _, m := range out.named {
		named[m.Name] = metric{m.Value, m.Unit}
	}
	doc := map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": h, "result": res, "named": named, "when": time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.trace {
		doc["selfTable"] = out.selfRows
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tr := 0
	if cfg.trace {
		tr = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, tr)), b, 0o644)
}

// finishTrace writes the traced run's spans and self-time table.
func finishTrace(cfg runConfig, name string, tr *tracer, out *outcome) error {
	if cfg.out == "" {
		return nil
	}
	path, err := tr.writeTrace(cfg.out, name, cfg.seed, out.selfRows)
	if err == nil {
		fmt.Printf("trace written to %s\n", path)
	}
	return err
}
