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

// OptRow is one kernel × lane-count measurement of the optimizer study on
// the event engine: block count, simulated cycles, and wall-clock at levels
// 0 and 1, with the O1 output proven bit-identical to O0.
type OptRow struct {
	Kernel    string  `json:"kernel"`
	Par       int     `json:"par"`
	BlocksO0  int     `json:"blocks_o0"`
	BlocksO1  int     `json:"blocks_o1"`
	CyclesO0  int     `json:"cycles_o0"`
	CyclesO1  int     `json:"cycles_o1"`
	WallMSO0  float64 `json:"wall_ms_o0"`
	WallMSO1  float64 `json:"wall_ms_o1"`
	Identical bool    `json:"outputs_identical"`
}

// OptStudy measures the graph optimizer (internal/opt, Schedule.Opt) across
// every Table 1 kernel on the event engine at Par ∈ {1, 4}: each
// configuration compiles and simulates at O0 and O1, records blocks, cycles
// and wall-clock, and fails unless the two outputs are bit-identical
// (inputs are integer-quantized, so even reassociated reductions must match
// exactly). Kernels whose loop order cannot parallelize are recorded at
// Par=1 only.
func OptStudy(seed int64, scale float64) ([]OptRow, error) {
	dims := map[string]int{
		"i": int(40 * scale), "j": int(36 * scale),
		"k": int(24 * scale), "l": int(12 * scale),
	}
	for v, d := range dims {
		if d < 6 {
			dims[v] = 6
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []OptRow
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
			sched := lang.Schedule{LoopOrder: tc.Order, Par: par}
			g0, err := custard.Compile(e, nil, sched)
			if err != nil {
				if par > 1 {
					continue // loop order not parallelizable; Par=1 recorded
				}
				return nil, fmt.Errorf("opt %s: compile O0: %w", tc.Name, err)
			}
			sched.Opt = 1
			g1, err := custard.Compile(e, nil, sched)
			if err != nil {
				return nil, fmt.Errorf("opt %s par%d: compile O1: %w", tc.Name, par, err)
			}
			t0 := time.Now()
			r0, err := sim.Run(g0, inputs, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("opt %s par%d: O0 run: %w", tc.Name, par, err)
			}
			w0 := time.Since(t0)
			t1 := time.Now()
			r1, err := sim.Run(g1, inputs, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("opt %s par%d: O1 run: %w", tc.Name, par, err)
			}
			w1 := time.Since(t1)
			if err := tensor.IdenticalBits(r0.Output, r1.Output); err != nil {
				return nil, fmt.Errorf("opt %s par%d: O1 output is not bit-identical to O0: %w", tc.Name, par, err)
			}
			if err := checkGold(tc.Expr, inputs, r1); err != nil {
				return nil, fmt.Errorf("opt %s par%d: gold: %w", tc.Name, par, err)
			}
			rows = append(rows, OptRow{
				Kernel: tc.Name, Par: par,
				BlocksO0: len(g0.Nodes), BlocksO1: len(g1.Nodes),
				CyclesO0: r0.Cycles, CyclesO1: r1.Cycles,
				WallMSO0:  float64(w0.Microseconds()) / 1000,
				WallMSO1:  float64(w1.Microseconds()) / 1000,
				Identical: true,
			})
		}
	}
	return rows, nil
}

// RenderOpt prints the optimizer study.
func RenderOpt(rows []OptRow) string {
	header := []string{"Kernel", "Par", "Blocks O0→O1", "Cycles O0", "Cycles O1", "Δcycles", "Wall O0 (ms)", "Wall O1 (ms)", "Bit-identical"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kernel, fmt.Sprint(r.Par),
			fmt.Sprintf("%d→%d", r.BlocksO0, r.BlocksO1),
			fmt.Sprint(r.CyclesO0), fmt.Sprint(r.CyclesO1),
			fmt.Sprint(r.CyclesO0 - r.CyclesO1),
			fmt.Sprintf("%.2f", r.WallMSO0), fmt.Sprintf("%.2f", r.WallMSO1),
			fmt.Sprint(r.Identical),
		})
	}
	return "Optimizer: Table 1 kernels at Schedule.Opt 0 vs 1 (internal/opt)\n" + table(header, body)
}
