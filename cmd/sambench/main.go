// Command sambench regenerates the tables and figures of the paper's
// evaluation (Section 6) and the engine studies, and prints the same rows
// and series the paper reports.
//
// Usage:
//
//	sambench                 # run everything
//	sambench -exp fig12      # one experiment
//	sambench -exp table1,fig13a -scale 0.5
//	sambench -exp fig12 -json > BENCH.json     # machine-readable results
//	sambench -exp parallel -par 1,2,4,8,16     # lane-scaling study
//	sambench -exp opt -json > BENCH_PR4.json   # graph-optimizer study
//	sambench -exp comp -json > BENCH_PR5.json  # compiled-engine speedup study
//	sambench -exp artifact -json > BENCH_PR7.json # program-artifact encode/decode study
//
// Experiments: table1, table2, fig11, fig12, fig13a, fig13b, fig13c, fig14,
// fig15, pointlevel, parallel, opt, comp, artifact. Cycle counts come from
// the event engine, the one engine with a cycle model. The serving stack is
// measured by the fixed benchmark in ladder/ (python3 ladder/run.py), not
// here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"sam/internal/experiments"
)

var all = []string{"table1", "table2", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig14", "fig15", "pointlevel", "parallel", "opt", "comp", "artifact"}

// jsonResult is the machine-readable record emitted per experiment with
// -json, so perf trajectories can be tracked across PRs in BENCH_*.json.
// CPUs and GoMaxProcs pin the host parallelism of every row: wall-clock and
// throughput numbers are not comparable across rows measured under
// different core budgets.
type jsonResult struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	CPUs       int     `json:"cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Data       any     `json:"data"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the tool against explicit argument and output streams so the
// smoke tests can drive it in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments to run (see usage)")
	seed := fs.Int64("seed", 1, "random seed for synthetic data")
	scale := fs.Float64("scale", 1.0, "problem-size scale for fig11/fig12/parallel (1.0 = paper size)")
	par := fs.String("par", "", "comma-separated lane counts for the parallel experiment (default 1,2,4,8,16)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	lanes, err := parseLanes(*par)
	if err != nil {
		fmt.Fprintf(stderr, "sambench: %v\n", err)
		return 1
	}
	names := all
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	// Validate flag combinations up front: -par configures only the
	// parallel lane sweep, so asking for it without that experiment is a
	// mistake better reported now than silently ignored for a long run.
	if len(lanes) > 0 && !slices.Contains(names, "parallel") {
		fmt.Fprintf(stderr, "sambench: -par only applies to the parallel experiment; add -exp parallel (running: %s)\n", strings.Join(names, ","))
		return 1
	}
	var records []jsonResult
	for _, name := range names {
		start := time.Now()
		text, data, err := run(name, *seed, *scale, lanes)
		if err != nil {
			fmt.Fprintf(stderr, "sambench: %s: %v\n", name, err)
			return 1
		}
		elapsed := time.Since(start)
		if *asJSON {
			records = append(records, jsonResult{
				Experiment: name, Seed: *seed, Scale: *scale,
				CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
				ElapsedMS: float64(elapsed.Microseconds()) / 1000, Data: data,
			})
			continue
		}
		fmt.Fprintln(stdout, text)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(stderr, "sambench: %v\n", err)
			return 1
		}
	}
	return 0
}

// parseLanes reads the -par lane list.
func parseLanes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var lanes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -par lane count %q", part)
		}
		lanes = append(lanes, n)
	}
	return lanes, nil
}

// run executes one experiment, returning both the rendered table and the
// structured rows for -json.
func run(name string, seed int64, scale float64, lanes []int) (string, any, error) {
	switch name {
	case "table1":
		rows, err := experiments.Table1()
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderTable1(rows), rows, nil
	case "table2":
		rows, unique, total, err := experiments.Table2()
		if err != nil {
			return "", nil, err
		}
		data := map[string]any{"rows": rows, "unique": unique, "total": total}
		return experiments.RenderTable2(rows, unique, total), data, nil
	case "fig11":
		pts, err := experiments.Figure11(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure11(pts), pts, nil
	case "fig12":
		pts, err := experiments.Figure12(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure12(pts), pts, nil
	case "fig13a":
		pts, err := experiments.Figure13a(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13a: elementwise mul vs sparsity (urandom, dim 2000)", "nnz", pts), pts, nil
	case "fig13b":
		pts, err := experiments.Figure13b(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13b: elementwise mul vs run length (runs, nnz 400)", "run", pts), pts, nil
	case "fig13c":
		pts, err := experiments.Figure13c(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13c: elementwise mul vs block size (blocks, nnz 400)", "block", pts), pts, nil
	case "fig14":
		rows, err := experiments.Figure14(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure14(rows), rows, nil
	case "fig15":
		pts := experiments.Figure15(seed)
		return experiments.RenderFigure15(pts), pts, nil
	case "pointlevel":
		rows, err := experiments.PointVsLevel(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderPointVsLevel(rows), rows, nil
	case "parallel":
		pts, err := experiments.ParallelSpeedup(seed, scale, lanes)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderParallel(pts), pts, nil
	case "opt":
		rows, err := experiments.OptStudy(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderOpt(rows), rows, nil
	case "comp":
		rows, err := experiments.CompStudy(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderComp(rows), rows, nil
	case "artifact":
		res, err := experiments.ArtifactStudy(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderArtifact(res), res, nil
	}
	return "", nil, fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(all, ", "))
}
