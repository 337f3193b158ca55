package main

import (
	"fmt"
	"math/rand"
	"time"

	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// The sim-sweep design space: Table 1 kernels, each at Par 1 and 4, all
// compiled with the optimizer on.
const (
	sweepN       = 48  // side of the SpM*SpM and SDDMM matrices
	sweepWide    = 192 // side of the SpMV and elementwise matrices
	sweepRank    = 16  // inner dimension of the SDDMM factors
	sweepDensity = 0.1
	sweepReplays = 3
)

var sweepPars = []int{1, 4}

// kernel is one point of the sweep before the Par choice.
type kernel struct {
	name   string
	expr   string
	order  []string
	skip   bool
	inputs func(rng *rand.Rand) tensorMap
}

func sweepKernels() []kernel {
	mat := func(rng *rand.Rand, name string, rows, cols int) *tensor.COO {
		return intTensor(rng, name, int(sweepDensity*float64(rows*cols)), rows, cols)
	}
	spmspm := func(rng *rand.Rand) tensorMap {
		return tensorMap{"B": mat(rng, "B", sweepN, sweepN), "C": mat(rng, "C", sweepN, sweepN)}
	}
	elem := func(rng *rand.Rand) tensorMap {
		return tensorMap{"B": mat(rng, "B", sweepWide, sweepWide), "C": mat(rng, "C", sweepWide, sweepWide)}
	}
	return []kernel{
		{name: "spmv", expr: "x(i) = B(i,j) * c(j)", inputs: func(rng *rand.Rand) tensorMap {
			return tensorMap{"B": mat(rng, "B", sweepWide, sweepWide), "c": intTensor(rng, "c", sweepWide/2, sweepWide)}
		}},
		{name: "spmspm-ijk", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"i", "j", "k"}, inputs: spmspm},
		{name: "spmspm-ikj", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"i", "k", "j"}, inputs: spmspm},
		{name: "spmspm-kij", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"k", "i", "j"}, inputs: spmspm},
		{name: "sddmm", expr: "X(i,j) = B(i,j) * C(i,k) * D(j,k)", inputs: func(rng *rand.Rand) tensorMap {
			return tensorMap{"B": mat(rng, "B", sweepN, sweepN), "C": mat(rng, "C", sweepN, sweepRank), "D": mat(rng, "D", sweepN, sweepRank)}
		}},
		{name: "elemmul", expr: "X(i,j) = B(i,j) * C(i,j)", inputs: elem},
		{name: "elemmul-skip", expr: "X(i,j) = B(i,j) * C(i,j)", skip: true, inputs: elem},
	}
}

// variant is one point of the sweep: a kernel, its schedule and its inputs.
type variant struct {
	name   string
	expr   string
	sched  lang.Schedule
	inputs tensorMap
	gold   *tensor.COO
	// cycles and blocks are what the first warm-up pass measured; every
	// later run of the variant must repeat them.
	cycles int
	blocks int
}

func runSimSweep(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var vs []*variant
	for _, k := range sweepKernels() {
		in := k.inputs(rng)
		gold, err := lang.Gold(lang.MustParse(k.expr), in)
		if err != nil {
			return nil, err
		}
		for _, par := range sweepPars {
			vs = append(vs, &variant{
				name: fmt.Sprintf("%s/par%d", k.name, par), expr: k.expr, inputs: in, gold: gold,
				sched: lang.Schedule{LoopOrder: k.order, UseSkip: k.skip, Par: par, Opt: 1},
			})
		}
	}
	var rec *recorder
	reps := setupReps
	if cfg.trace {
		rec = newRecorder()
		reps = 1
	}
	// sweepOp compiles variant op%len(vs) cold and runs it on the event
	// engine, checking the output and the cycle count.
	sweepOp := func(rec *recorder, op int) (int, error) {
		v := vs[op%len(vs)]
		root := rec.newID()
		t0 := time.Now()
		c, err := compileTraced(rec, op, root, v.expr, lang.Formats{}, v.sched)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", v.name, err)
		}
		var res *sim.Result
		cycles, _, err := eventRun(rec, op, root, func() (int, error) {
			var err error
			res, err = c.prog.Run(v.inputs, sim.Options{})
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		})
		if rec != nil {
			rec.add(op, root, -1, "sweep.op", t0, time.Since(t0), 0)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", v.name, err)
		}
		if err := checkOutput(res.Output, v.gold, 0); err != nil {
			return 0, fmt.Errorf("%s: %w", v.name, err)
		}
		if v.cycles == 0 {
			v.cycles, v.blocks = cycles, len(c.g.Nodes)
		} else if cycles != v.cycles || len(c.g.Nodes) != v.blocks {
			return 0, fmt.Errorf("%s: %d cycles and %d blocks, an earlier pass measured %d and %d",
				v.name, cycles, len(c.g.Nodes), v.cycles, v.blocks)
		}
		return cycles, nil
	}
	setup, setupScaled, err := setupMedian(reps, func() error {
		for i := range vs {
			if _, err := sweepOp(nil, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	var passCycles, blocks int64
	for _, v := range vs {
		passCycles += int64(v.cycles)
		blocks += int64(v.blocks)
	}
	loop := func(rec *recorder) loopResult {
		return closedLoop(1, cfg.window, func(op int) (string, bool, int64) {
			cycles, err := sweepOp(rec, op)
			if err != nil {
				fmt.Fprintln(cfg.log, "ladder: sim-sweep:", err)
			}
			return "variant", err == nil, int64(cycles)
		})
	}
	warm := closedLoop(1, warmup(cfg.window), func(op int) (string, bool, int64) {
		_, err := sweepOp(nil, op)
		return "variant", err == nil, 0
	})
	plain := loop(nil)
	oc := &outcome{
		attempted: int64(len(warm.ops) + len(plain.ops)), failed: warm.failures() + plain.failures(),
		pins: map[string]int64{"sim_cycles": passCycles, "opt.graph_blocks": blocks,
			"sim.fixpoint_iters": 0, "serve.request_bytes": 0},
	}
	if !cfg.trace {
		n := float64(len(plain.ops))
		oc.metrics = map[string]float64{
			"allocs_per_op":   float64(plain.mallocs) / n,
			"alloc_kb_per_op": float64(plain.bytes) / 1024 / n,
			"peak_rss_mb":     peakRSSMiB(),
			"sim_cycles":      float64(passCycles),
		}
		for _, scaled := range []bool{false, true} {
			// A pass is one operation of every variant in turn; the single
			// caller runs them back to back, so its latency is the sum.
			lats := plain.latencies("variant", scaled)
			var passes []float64
			for p := 0; (p+1)*len(vs) <= len(lats); p++ {
				var sum float64
				for _, l := range lats[p*len(vs) : (p+1)*len(vs)] {
					sum += l
				}
				passes = append(passes, sum)
			}
			oc.wall(scaled, map[string]float64{
				"throughput_ops":    plain.throughput(scaled),
				"latency_p50_ms":    percentile(passes, 0.50),
				"latency_p90_ms":    percentile(passes, 0.90),
				"setup_s":           pick(scaled, setup, setupScaled),
				"sim_mcycles_per_s": plain.rate(scaled, opValue) / 1e6,
			})
		}
		oc.speed = plain.machineSpeed()
		return oc, nil
	}

	traced := loop(rec)
	oc.attempted += int64(len(traced.ops))
	oc.failed += traced.failures()
	// Replay: bind and the comp engine on every variant, in process, so
	// the sweep's operands and kernels are measured below the event engine.
	for rep := 0; rep < sweepReplays; rep++ {
		for i, v := range vs {
			op := -1 - (rep*len(vs) + i)
			c, err := compileTraced(nil, op, -1, v.expr, lang.Formats{}, v.sched)
			if err != nil {
				return nil, err
			}
			if c, err = c.withComp(); err != nil {
				return nil, err
			}
			root := rec.newID()
			var bound map[string]*fiber.Tensor
			if err := rec.timedAllocs(op, root, "bind.operands", func() (err error) {
				bound, err = c.plan.Operands(v.inputs)
				return err
			}); err != nil {
				return nil, err
			}
			dims, err := c.plan.OutputDims(v.inputs)
			if err != nil {
				return nil, err
			}
			var out *tensor.COO
			if err := rec.timedAllocs(op, root, "comp.run", func() (err error) {
				out, err = c.comp.Run(bound, dims)
				return err
			}); err != nil {
				return nil, err
			}
			oc.attempted++
			if checkOutput(out, v.gold, 0) != nil {
				oc.failed++
			}
		}
	}
	oc.spans = rec.finish()
	l := newLayerStats(oc.spans)
	// Variants differ in cost on purpose, so each per-layer figure is the
	// mean over variants of that variant's median.
	perVariant := func(name string, pick func(span) float64) float64 {
		var sum float64
		for i := range vs {
			sum += l.median(name, func(op int) bool {
				if op < 0 {
					op = -op - 1
				}
				return op%len(vs) == i
			}, pick)
		}
		return sum / float64(len(vs))
	}
	thrPlain, thrTraced := plain.throughput(true), traced.throughput(true)
	oc.speed = plain.machineSpeed()
	oc.metrics = map[string]float64{
		"lang.parse_ms":          perVariant("lang.parse", spanMS),
		"custard.compile_ms":     perVariant("custard.compile", spanMS),
		"opt.graph_blocks":       float64(blocks),
		"sim.program_ms":         perVariant("sim.program", spanMS),
		"bind.operands_ms":       perVariant("bind.operands", spanMS),
		"bind.operands_allocs":   perVariant("bind.operands", spanAllocs),
		"comp.run_ms":            perVariant("comp.run", spanMS),
		"comp.run_allocs":        perVariant("comp.run", spanAllocs),
		"core.event_run_ms":      perVariant("core.event_run", spanMS),
		"core.host_ns_per_cycle": hostNSPerCycle(l, loopOp),
		"go.gc_per_op":           float64(traced.numGC) / float64(len(traced.ops)),
		"trace.overhead_pct":     (thrPlain - thrTraced) / thrPlain * 100,
	}
	// The sweep bypasses the serving layers and runs no fixpoint.
	for k := range perLayer {
		if _, ok := oc.metrics[k]; !ok {
			oc.metrics[k] = 0
		}
	}
	return oc, nil
}
