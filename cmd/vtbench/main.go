// Command vtbench regenerates the evaluation figures of Soo, Snodgrass
// & Jensen, "Efficient Evaluation of the Valid-Time Natural Join"
// (ICDE 1994).
//
// Usage:
//
//	vtbench [-figure 4|5|6|7|8|all] [-scale N] [-seed S] [-workers W]
//	        [-timeout duration] [-audit] [-benchjson F]
//	        [-cpuprofile F] [-memprofile F]
//
// -audit runs every sort-merge and partition join under the trace
// invariant audits (exact counter attribution, partition coverage,
// buffer-budget balance, cache-paging symmetry); the emitted figures
// are identical, but any accounting violation fails the run.
//
// Scale divides the paper's tuple counts and memory sizes together
// (preserving every ratio); -scale 1 runs the full 32 MiB-per-relation
// configuration and takes correspondingly longer. Workers bounds how
// many figure data points evaluate concurrently; the emitted figures
// are identical for every setting (each point is self-contained), so
// -workers only changes wall-clock time.
//
// -timeout bounds the whole run: once the deadline passes (or the
// process is interrupted), in-flight joins abort cooperatively at the
// next page boundary and the process exits with a distinct code.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error,
// 3 deadline exceeded or interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vtjoin/internal/execctx"
	"vtjoin/internal/experiments"
	"vtjoin/internal/page"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 4, 5, 6, 7, 8, ablations, all, shards, codec, serve, or subs (timing-based figures are excluded from all)")
	scale := flag.Int("scale", 16, "scale divisor on tuple counts and memory (1 = paper scale)")
	seed := flag.Int64("seed", 1994, "base RNG seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent figure data points (1 = sequential; output is identical at any setting)")
	audit := flag.Bool("audit", false, "run every join under the trace invariant audits (figures are identical; violations fail the run)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); exits 3 on expiry")
	benchjson := flag.String("benchjson", "", "with -figure shards, codec, serve or subs: also write the results as JSON to this file (codec default: BENCH_pr8.json, serve default: BENCH_pr9.json)")
	pageFormat := flag.String("page-format", "v1", "page codec relations are written in: v1 (slotted) or v2 (delta intervals + per-page dictionaries); -figure codec sweeps both and ignores this")
	shards := flag.Int("shards", 8, "with -figure shards: largest shard count in the K sweep")
	sessions := flag.Int("sessions", 120, "with -figure serve: concurrent client sessions to replay")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	switch *figure {
	case "4", "5", "6", "7", "8", "ablations", "all", "shards", "codec", "serve", "subs":
	default:
		usage(fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, 8, ablations, all, shards, codec, serve or subs)", *figure))
	}
	if *benchjson != "" && *figure != "shards" && *figure != "codec" && *figure != "serve" && *figure != "subs" {
		usage(fmt.Errorf("-benchjson requires -figure shards, codec, serve or subs"))
	}
	if *shards < 1 {
		usage(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	if *sessions < 1 {
		usage(fmt.Errorf("-sessions must be >= 1, got %d", *sessions))
	}
	if *workers < 1 {
		usage(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}

	p, err := experiments.Scaled(*scale)
	if err != nil {
		usage(err)
	}
	p.Seed = *seed
	p.Workers = *workers
	p.Audit = *audit
	if p.PageFormat, err = page.ParseFormat(*pageFormat); err != nil {
		usage(err)
	}

	ctx, cancel := execctx.Bootstrap(*timeout)
	defer cancel()
	p.Ctx = ctx

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}

	run := func(name string, f func() error) {
		// "shards", "serve" and "subs" are timing-based and
		// opt-in only: "all" must stay byte-identical across runs and
		// worker counts.
		if *figure != name && (*figure != "all" || name == "shards" || name == "serve" || name == "subs") {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("figure %s: %w", name, err))
		}
		fmt.Printf("[figure %s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("5", func() error {
		fmt.Print(experiments.RenderParameterTable(p.ParameterTable()))
		return nil
	})
	run("4", func() error {
		points, err := experiments.RunFigure4(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure4(points))
		return nil
	})
	run("6", func() error {
		rows, err := experiments.RunFigure6(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure6(rows))
		return nil
	})
	run("7", func() error {
		rows, err := experiments.RunFigure7(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure7(rows))
		return nil
	})
	run("8", func() error {
		rows, err := experiments.RunFigure8(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure8(rows))
		return nil
	})
	run("shards", func() error {
		rows, err := experiments.RunFigureShards(p, *shards)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigureShards(rows))
		if *benchjson != "" {
			if err := writeShardsJSON(*benchjson, p, *shards, rows); err != nil {
				return err
			}
			fmt.Printf("\n[shard scaling written to %s]\n", *benchjson)
		}
		return nil
	})
	run("codec", func() error {
		rows, sums, err := experiments.RunFigureCodec(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigureCodec(rows, sums))
		out := *benchjson
		if out == "" {
			out = "BENCH_pr8.json"
		}
		if err := writeCodecJSON(out, p, rows, sums); err != nil {
			return err
		}
		fmt.Printf("\n[codec comparison written to %s]\n", out)
		return nil
	})
	run("serve", func() error {
		res, err := experiments.RunFigureServe(p, *sessions)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigureServe(res))
		out := *benchjson
		if out == "" {
			out = "BENCH_pr9.json"
		}
		if err := writeServeJSON(out, p, *sessions, res); err != nil {
			return err
		}
		fmt.Printf("\n[serve load figure written to %s]\n", out)
		return nil
	})
	run("subs", func() error {
		fleets := []int{1, 8, 32, 120}
		rows, err := experiments.RunFigureSubs(p, fleets)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigureSubs(rows))
		out := *benchjson
		if out == "" {
			out = "BENCH_pr10.json"
		}
		if err := writeSubsJSON(out, p, rows); err != nil {
			return err
		}
		fmt.Printf("\n[subscription figure written to %s]\n", out)
		return nil
	})
	run("ablations", func() error {
		repl, err := experiments.RunAblationReplication(p)
		if err != nil {
			return err
		}
		smpl, err := experiments.RunAblationSampling(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(repl, smpl))
		return nil
	})

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
	}
}

// writeShardsJSON records the multi-core shard-scaling sweep in the
// BENCH_*.json format the repo tracks across performance PRs. The host
// block carries the parallelism context (cores, GOMAXPROCS and the
// single_core_host flag) a reader needs to judge the speedup column.
func writeShardsJSON(path string, p experiments.Params, maxShards int, rows []experiments.ShardRow) error {
	type jsonRow struct {
		Config          string  `json:"config"`
		Shards          int     `json:"shards"`
		EffectiveShards int     `json:"effective_shards"`
		Workers         int     `json:"workers"`
		WallMS          float64 `json:"wall_ms"`
		CPUMS           float64 `json:"cpu_ms"`
		IOPages         int64   `json:"io_pages"`
		Results         int64   `json:"results"`
		Checksum        string  `json:"checksum"`
		Speedup         float64 `json:"speedup"`
	}
	doc := struct {
		experiments.BenchHeader
		Rows []jsonRow `json:"shard_scaling"`
	}{
		BenchHeader: experiments.NewBenchHeader(
			"Time-sharded partition join, multi-core scaling: per-shard pipelines over private devices with a deterministic merge. Checksums are order-insensitive over the result multiset and asserted identical across every row, so speedups are measured against a verified-equal answer.",
			fmt.Sprintf("vtbench -figure shards -scale %d -seed %d -shards %d", p.Scale, p.Seed, maxShards)),
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, r := range rows {
		name := "unsharded"
		if r.Shards > 0 {
			name = "sharded"
		}
		doc.Rows = append(doc.Rows, jsonRow{
			Config: name, Shards: r.Shards, EffectiveShards: r.EffectiveShards,
			Workers: r.Workers, WallMS: ms(r.Wall), CPUMS: ms(r.CPU),
			IOPages: r.IOPages, Results: r.Results,
			Checksum: fmt.Sprintf("%016x", r.Checksum), Speedup: r.Speedup,
		})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeCodecJSON records the page-codec comparison in the BENCH_*.json
// format the repo tracks across performance PRs: per-(workload, format)
// storage occupancy and join cost — page counts, bytes moved, per-phase
// CPU — plus the derived compression summaries. Checksums are asserted
// identical across formats before this is written, so every ratio in
// the file was bought with a verified-equal answer.
func writeCodecJSON(path string, p experiments.Params, rows []experiments.CodecRow, sums []experiments.CodecSummary) error {
	type jsonPhase struct {
		Phase   string  `json:"phase"`
		IOPages int64   `json:"io_pages"`
		IOBytes int64   `json:"io_bytes"`
		WallMS  float64 `json:"wall_ms"`
		CPUMS   float64 `json:"cpu_ms"`
	}
	type jsonRow struct {
		Workload      string      `json:"workload"`
		Format        string      `json:"format"`
		InputTuples   int64       `json:"input_tuples"`
		InputPages    int         `json:"input_pages"`
		TuplesPerPage float64     `json:"tuples_per_page"`
		JoinIOPages   int64       `json:"join_io_pages"`
		JoinIOBytes   int64       `json:"join_io_bytes"`
		Results       int64       `json:"results"`
		Checksum      string      `json:"checksum"`
		WallMS        float64     `json:"wall_ms"`
		CPUMS         float64     `json:"cpu_ms"`
		Phases        []jsonPhase `json:"phases"`
	}
	type jsonSummary struct {
		Workload           string  `json:"workload"`
		TuplesPerPageRatio float64 `json:"tuples_per_page_ratio"`
		CompressionRatio   float64 `json:"compression_ratio"`
		PageReductionPct   float64 `json:"page_reduction_pct"`
	}
	doc := struct {
		experiments.BenchHeader
		Rows      []jsonRow     `json:"codec_comparison"`
		Summaries []jsonSummary `json:"summaries"`
	}{
		BenchHeader: experiments.NewBenchHeader(
			"Page codec comparison: v1 slotted pages vs v2 (delta-encoded intervals + per-page value dictionaries) over high-overlap keyed, time-join and sparse workloads. Result checksums are order-insensitive over the result multiset and asserted identical across formats; the sparse workload asserts the dictionary fallback causes no page-count regression.",
			fmt.Sprintf("vtbench -figure codec -scale %d -seed %d", p.Scale, p.Seed)),
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, r := range rows {
		jr := jsonRow{
			Workload: r.Workload, Format: r.Format.String(),
			InputTuples: r.InputTuples, InputPages: r.InputPages,
			TuplesPerPage: r.TuplesPerPage,
			JoinIOPages:   r.JoinIOPages, JoinIOBytes: r.JoinIOBytes,
			Results: r.Results, Checksum: fmt.Sprintf("%016x", r.Checksum),
			WallMS: ms(r.Wall), CPUMS: ms(r.CPU),
		}
		for _, ph := range r.Phases {
			jr.Phases = append(jr.Phases, jsonPhase{
				Phase: ph.Name, IOPages: ph.IOPages, IOBytes: ph.IOBytes,
				WallMS: ms(ph.Wall), CPUMS: ms(ph.CPU),
			})
		}
		doc.Rows = append(doc.Rows, jr)
	}
	for _, s := range sums {
		doc.Summaries = append(doc.Summaries, jsonSummary{
			Workload:           s.Workload,
			TuplesPerPageRatio: s.TuplesPerPageRatio,
			CompressionRatio:   s.CompressionRatio,
			PageReductionPct:   100 * s.PageReduction,
		})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeServeJSON records the serve load figure in the BENCH_*.json
// format the repo tracks across performance PRs: service throughput,
// latency percentiles and admission behaviour under concurrent
// sessions. Every counted query was checksum-verified against a direct
// execution before this is written.
func writeServeJSON(path string, p experiments.Params, sessions int, res *experiments.ServeResult) error {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	doc := struct {
		experiments.BenchHeader
		Load struct {
			Sessions          int     `json:"sessions"`
			QueriesPerSession int     `json:"queries_per_session"`
			PoolPages         int     `json:"pool_pages"`
			QueryPages        int     `json:"query_pages"`
			VerifiedQueries   int64   `json:"verified_queries"`
			Rows              int64   `json:"rows"`
			AdmissionRejects  int64   `json:"admission_rejects"`
			WallMS            float64 `json:"wall_ms"`
			QueriesPerSec     float64 `json:"queries_per_sec"`
			P50MS             float64 `json:"p50_ms"`
			P99MS             float64 `json:"p99_ms"`
			CacheHits         int64   `json:"plan_cache_hits"`
			CacheMisses       int64   `json:"plan_cache_misses"`
		} `json:"serve_load"`
	}{
		BenchHeader: experiments.NewBenchHeader(
			"Query service under concurrent load: client sessions replay a mixed query script over HTTP against an in-process vtserve with a deliberately small admission pool. Rejected queries back off and retry; every counted query's response is checksum-verified against a direct (serverless) execution of the same plan.",
			fmt.Sprintf("vtbench -figure serve -scale %d -seed %d -sessions %d", p.Scale, p.Seed, sessions)),
	}
	doc.Load.Sessions = res.Sessions
	doc.Load.QueriesPerSession = res.PerSession
	doc.Load.PoolPages = res.PoolPages
	doc.Load.QueryPages = res.QueryPages
	doc.Load.VerifiedQueries = res.Queries
	doc.Load.Rows = res.Rows
	doc.Load.AdmissionRejects = res.Rejects
	doc.Load.WallMS = ms(res.Wall)
	doc.Load.QueriesPerSec = res.Throughput
	doc.Load.P50MS = ms(res.P50)
	doc.Load.P99MS = ms(res.P99)
	doc.Load.CacheHits = res.CacheHits
	doc.Load.CacheMisses = res.CacheMiss
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeSubsJSON records the subscription steady-state figure in the
// BENCH_*.json format the repo tracks across performance PRs: append
// throughput under N open subscriptions, with every delivered delta
// checksum-verified against a full re-join before this is written.
func writeSubsJSON(path string, p experiments.Params, rows []experiments.SubsResult) error {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	type jsonRow struct {
		Subscribers     int     `json:"subscribers"`
		Appends         int     `json:"appends"`
		RowsPerBatch    int     `json:"rows_per_batch"`
		AppendedRows    int64   `json:"appended_rows"`
		DeltaRowsPerSub int64   `json:"delta_rows_per_subscriber"`
		VerifiedDeltas  int64   `json:"verified_deltas"`
		Unverified      int64   `json:"unverified"`
		WallMS          float64 `json:"wall_ms"`
		TuplesPerSec    float64 `json:"tuples_per_sec"`
		DeltaRowsPerSec float64 `json:"delta_rows_per_sec"`
		PoolPages       int     `json:"pool_pages"`
		FinalRows       int64   `json:"final_rows"`
		FinalChecksum   string  `json:"final_checksum"`
	}
	doc := struct {
		experiments.BenchHeader
		Rows []jsonRow `json:"subscription_load"`
	}{
		BenchHeader: experiments.NewBenchHeader(
			"Steady-state append throughput under open ongoing-relation subscriptions: N subscribers hold one incremental join view each while append batches stream into both base relations. Every delivered delta segment is checksum-verified against a full in-memory re-join at that append point, and the final state is cross-checked across all three batch algorithms.",
			fmt.Sprintf("vtbench -figure subs -scale %d -seed %d", p.Scale, p.Seed)),
	}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, jsonRow{
			Subscribers: r.Subs, Appends: r.Appends, RowsPerBatch: r.BatchRows,
			AppendedRows: r.AppendedRows, DeltaRowsPerSub: r.DeltaRowsPerSub,
			VerifiedDeltas: r.VerifiedDeltas, Unverified: r.Unverified,
			WallMS: ms(r.Wall), TuplesPerSec: r.TuplesPerSec, DeltaRowsPerSec: r.DeltaRowsPerSec,
			PoolPages: r.PoolPages, FinalRows: r.FinalRows, FinalChecksum: r.FinalChecksum,
		})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// fatal reports a runtime failure (experiment execution) and exits 1 —
// or 3 when the failure is a cancellation or expired deadline.
func fatal(err error) { execctx.Fatal("vtbench", err) }

// usage reports a command-line mistake and exits 2.
func usage(err error) {
	execctx.Usage("vtbench", err,
		"vtbench [-figure 4|5|6|7|8|ablations|all|shards|codec|serve|subs] [-scale N] [-seed S] [-workers W] [-page-format v1|v2] [-benchjson F] [-cpuprofile F] [-memprofile F]")
}
