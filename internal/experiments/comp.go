package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// CompRow is one kernel × optimization × lane-count measurement of the
// compiled-engine study: event-engine and compiled-engine wall-clock on the
// same graph and inputs, with the compiled output proven bit-identical.
type CompRow struct {
	Kernel     string  `json:"kernel"`
	Opt        int     `json:"opt"`
	Par        int     `json:"par"`
	Blocks     int     `json:"blocks"`
	Cycles     int     `json:"cycles"` // event engine (comp has no cycle model)
	WallMSEv   float64 `json:"wall_ms_event"`
	WallMSComp float64 `json:"wall_ms_comp"`
	Speedup    float64 `json:"speedup"` // event wall / comp wall
	Identical  bool    `json:"outputs_identical"`
}

// CompStudy measures the compiled co-iteration engine (internal/comp,
// sim.EngineComp) against the event engine across every Table 1 kernel,
// Opt ∈ {0, 1} and Par ∈ {1, 4}: each configuration compiles once, runs on
// both engines over the same integer-quantized inputs, and fails unless the
// outputs are bit-identical. Wall-clock is averaged over reps runs after one
// warmup (the warmup also absorbs the comp lowering, which a served program
// pays once). Kernels whose loop order cannot parallelize are recorded at
// Par=1 only.
func CompStudy(seed int64, scale float64) ([]CompRow, error) {
	dims := map[string]int{
		"i": int(40 * scale), "j": int(36 * scale),
		"k": int(24 * scale), "l": int(12 * scale),
	}
	for v, d := range dims {
		if d < 6 {
			dims[v] = 6
		}
	}
	const reps = 3
	rng := rand.New(rand.NewSource(seed))
	var rows []CompRow
	for _, tc := range Table1Cases {
		e, err := lang.Parse(tc.Expr)
		if err != nil {
			return nil, err
		}
		inputs := map[string]*tensor.COO{}
		for _, a := range e.Accesses() {
			if _, ok := inputs[a.Tensor]; ok {
				continue
			}
			if len(a.Idx) == 0 {
				s := tensor.NewCOO(a.Tensor)
				s.Append(float64(rng.Intn(5) + 1))
				inputs[a.Tensor] = s
				continue
			}
			ds := make([]int, len(a.Idx))
			total := 1
			for i, v := range a.Idx {
				ds[i] = dims[v]
				total *= ds[i]
			}
			t := tensor.UniformRandom(a.Tensor, rng, total/6+1, ds...)
			tensor.QuantizeInts(rng, 7, t)
			inputs[a.Tensor] = t
		}
		for _, par := range []int{1, 4} {
			for _, optLevel := range []int{0, 1} {
				sched := lang.Schedule{LoopOrder: tc.Order, Par: par, Opt: optLevel}
				g, err := custard.Compile(e, nil, sched)
				if err != nil {
					if par > 1 {
						continue // loop order not parallelizable; Par=1 recorded
					}
					return nil, fmt.Errorf("comp %s O%d: compile: %w", tc.Name, optLevel, err)
				}
				p, err := sim.NewProgram(g)
				if err != nil {
					return nil, fmt.Errorf("comp %s O%d: program: %w", tc.Name, optLevel, err)
				}
				run := func(eng sim.EngineKind) (*sim.Result, float64, error) {
					opt := sim.Options{Engine: eng}
					res, err := p.Run(inputs, opt) // warmup; absorbs lowering
					if err != nil {
						return nil, 0, err
					}
					t0 := time.Now()
					for r := 0; r < reps; r++ {
						if res, err = p.Run(inputs, opt); err != nil {
							return nil, 0, err
						}
					}
					return res, float64(time.Since(t0).Microseconds()) / 1000 / reps, nil
				}
				rEv, wEv, err := run(sim.EngineEvent)
				if err != nil {
					return nil, fmt.Errorf("comp %s par%d O%d: event run: %w", tc.Name, par, optLevel, err)
				}
				rComp, wComp, err := run(sim.EngineComp)
				if err != nil {
					return nil, fmt.Errorf("comp %s par%d O%d: comp run: %w", tc.Name, par, optLevel, err)
				}
				if rComp.Engine != sim.EngineComp {
					return nil, fmt.Errorf("comp %s par%d O%d: fell back to %q", tc.Name, par, optLevel, rComp.Engine)
				}
				if err := tensor.IdenticalBits(rEv.Output, rComp.Output); err != nil {
					return nil, fmt.Errorf("comp %s par%d O%d: compiled output is not bit-identical to event: %w", tc.Name, par, optLevel, err)
				}
				if err := checkGold(tc.Expr, inputs, rComp); err != nil {
					return nil, fmt.Errorf("comp %s par%d O%d: gold: %w", tc.Name, par, optLevel, err)
				}
				speedup := 0.0
				if wComp > 0 {
					speedup = wEv / wComp
				}
				rows = append(rows, CompRow{
					Kernel: tc.Name, Opt: optLevel, Par: par,
					Blocks: len(g.Nodes), Cycles: rEv.Cycles,
					WallMSEv: wEv, WallMSComp: wComp,
					Speedup: speedup, Identical: true,
				})
			}
		}
	}
	return rows, nil
}

// RenderComp prints the compiled-engine study.
func RenderComp(rows []CompRow) string {
	header := []string{"Kernel", "Opt", "Par", "Blocks", "Cycles (event)", "Wall event (ms)", "Wall comp (ms)", "Speedup", "Bit-identical"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kernel, fmt.Sprint(r.Opt), fmt.Sprint(r.Par), fmt.Sprint(r.Blocks),
			fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.3f", r.WallMSEv), fmt.Sprintf("%.3f", r.WallMSComp),
			fmt.Sprintf("%.1fx", r.Speedup), fmt.Sprint(r.Identical),
		})
	}
	return "Compiled engine: Table 1 kernels, event vs comp wall-clock (internal/comp)\n" + table(header, body)
}
