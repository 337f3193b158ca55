// Command ladder is SAM's benchmark: three workloads, each a closed loop
// over a fixed operation list generated from a seed, measured end to end
// with tracing off, and layer by layer in a separate traced run.
//
//	ladder -workload serve-inline -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, its operation counts and its metrics; a readable table goes
// to standard error. Every run also appends a record to results.jsonl in
// the -out directory (run.py -compare reads those), traced runs write their
// spans there, and pins.json there holds the exact counts each workload and
// seed must repeat. See README.md for the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit, as BENCHMARK.json lists them. A run reports exactly the end-to-end set with -trace 0 and the per-layer set
// with -trace 1, on every workload; a layer a workload bypasses reads 0.
var (
	endToEnd = map[string]string{
		"throughput_ops":    "ops/s",
		"latency_p50_ms":    "ms",
		"latency_p90_ms":    "ms",
		"allocs_per_op":     "count",
		"alloc_kb_per_op":   "KiB",
		"setup_s":           "s",
		"peak_rss_mb":       "MiB",
		"sim_cycles":        "cycles",
		"sim_mcycles_per_s": "Mcycles/s",
	}
	perLayer = map[string]string{
		"serve.wire_decode_ms":       "ms",
		"serve.wire_decode_allocs":   "count",
		"serve.wire_encode_ms":       "ms",
		"serve.request_bytes":        "bytes",
		"serve.response_bytes":       "bytes",
		"serve.handler_ms":           "ms",
		"serve.handler_allocs":       "count",
		"serve.handler_self_ms":      "ms",
		"serve.admission_ms":         "ms",
		"serve.queue_wait_ms":        "ms",
		"serve.store_put_ms":         "ms",
		"serve.store_bind_hit_ratio": "ratio",
		"serve.cache_misses":         "count",
		"http.roundtrip_ms":          "ms",
		"http.self_ms":               "ms",
		"lang.parse_ms":              "ms",
		"custard.compile_ms":         "ms",
		"opt.graph_blocks":           "count",
		"sim.program_ms":             "ms",
		"bind.operands_ms":           "ms",
		"bind.operands_allocs":       "count",
		"comp.run_ms":                "ms",
		"comp.run_allocs":            "count",
		"sim.fixpoint_iter_ms":       "ms",
		"sim.fixpoint_iters":         "count",
		"core.event_run_ms":          "ms",
		"core.host_ns_per_cycle":     "ns",
		"go.gc_per_op":               "count",
		"trace.overhead_pct":         "%",
	}
)

// pinned lists the counts that fix the operation list and the program's
// semantics: for one build and one seed they must repeat exactly, in the
// untraced and the traced run alike.
var pinned = []string{"sim_cycles", "sim.fixpoint_iters", "opt.graph_blocks", "serve.request_bytes"}

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	out    string
	log    io.Writer
}

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	// raw holds the wall-clock metrics before scaling to the reference
	// machine speed, and speed the median speed the run measured.
	raw   map[string]float64
	speed float64
	pins  map[string]int64
	spans []span
}

// wall records wall-clock metrics: the scaled ones as the run's metrics,
// the raw ones beside them.
func (oc *outcome) wall(scaled bool, m map[string]float64) {
	dst := &oc.raw
	if scaled {
		dst = &oc.metrics
	}
	if *dst == nil {
		*dst = map[string]float64{}
	}
	for k, v := range m {
		(*dst)[k] = v
	}
}

// pick returns a when scaled is false and b otherwise.
func pick(scaled bool, a, b float64) float64 {
	if scaled {
		return b
	}
	return a
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"serve-inline": runServeInline,
	"serve-stored": runServeStored,
	"sim-sweep":    runSimSweep,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-inline, serve-stored or sim-sweep")
	seed := fs.Int64("seed", 1, "seed the operation list and its inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "ladder"), "directory for results.jsonl, pins.json and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ladder: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", sortedKeys(workloads))
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, log: stderr}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "ladder:", err)
		return 1
	}
	fmt.Fprintf(stderr, "ladder: %s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	oc, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ladder: %s: %v\n", *name, err)
		return 1
	}
	if err := checkPins(cfg, *name, oc.pins); err != nil {
		fmt.Fprintf(stderr, "ladder: %s: determinism guard: %v\n", *name, err)
		return 1
	}
	units := endToEnd
	if cfg.trace {
		units = perLayer
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, oc.spans); err != nil {
			fmt.Fprintln(stderr, "ladder:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(oc.spans))
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metric{}}
	for _, k := range sortedKeys(units) {
		v, ok := oc.metrics[k]
		if !ok {
			fmt.Fprintf(stderr, "ladder: %s: metric %s was not measured\n", *name, k)
			return 1
		}
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
		if raw, ok := oc.raw[k]; ok {
			fmt.Fprintf(stderr, "  %-28s %14.6g %-10s (raw %.6g)\n", k, v, units[k], raw)
		} else {
			fmt.Fprintf(stderr, "  %-28s %14.6g %s\n", k, v, units[k])
		}
	}
	fmt.Fprintf(stderr, "  attempted %d, failed %d; machine speed %.4g\n", res.Attempted, res.Failed, oc.speed)
	if err := appendRecord(cfg, *name, *seconds, res, oc); err != nil {
		fmt.Fprintln(stderr, "ladder:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ladder:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// appendRecord adds the run to results.jsonl, labelled with what produced
// it, for run.py -compare.
func appendRecord(cfg config, name string, seconds float64, res result, oc *outcome) error {
	rec, err := json.Marshal(map[string]any{"workload": name, "seed": cfg.seed, "seconds": seconds,
		"trace": cfg.trace, "result": res, "raw": oc.raw, "machine_speed": oc.speed})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkPins compares the run's pinned counts with those an earlier run of
// the same binary on the same workload and seed recorded, and records them
// on the first run.
func checkPins(cfg config, name string, got map[string]int64) error {
	for _, k := range pinned {
		if _, ok := got[k]; !ok {
			return fmt.Errorf("pinned count %s was not measured", k)
		}
	}
	exe, err := executableHash()
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "pins.json")
	all := map[string]map[string]int64{}
	switch buf, err := os.ReadFile(path); {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(buf, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	key := fmt.Sprintf("%s/%s/seed%d", exe, name, cfg.seed)
	if want, ok := all[key]; ok {
		for _, k := range pinned {
			if got[k] != want[k] {
				return fmt.Errorf("%s = %d, but an earlier run of this build with seed %d measured %d (%s)",
					k, got[k], cfg.seed, want[k], path)
			}
		}
		return nil
	}
	all[key] = got
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// executableHash identifies the running build.
func executableHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
