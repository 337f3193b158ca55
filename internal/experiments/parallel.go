package experiments

import (
	"fmt"
	"math/rand"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// ParallelPoint is one kernel × lane-count measurement of the lane-scaling
// study (paper Section 4.4).
type ParallelPoint struct {
	Kernel  string  `json:"kernel"`
	Lanes   int     `json:"lanes"`
	Cycles  int     `json:"cycles"`
	Speedup float64 `json:"speedup_vs_1"`
}

// DefaultParLanes is the lane sweep of the parallel study.
var DefaultParLanes = []int{1, 2, 4, 8, 16}

// ParallelSpeedup compiles the Figure 12 kernels (SpMV, SpM*SpM, and the
// elementwise SpMAdd control) under Schedule{Par: N} for every lane count
// and reports simulated cycles and speedup over the sequential graph. Every
// configuration is gold-checked and every parallel output is compared
// against the Par=1 output. The lane configurations of one kernel run
// concurrently through the batch runner; each job owns its net, so cycle
// counts are identical to sequential runs.
func ParallelSpeedup(seed int64, scale float64, lanes []int) ([]ParallelPoint, error) {
	if len(lanes) == 0 {
		lanes = DefaultParLanes
	}
	ij := int(250 * scale)
	kk := int(100 * scale)
	if ij < 8 {
		ij = 8
	}
	if kk < 4 {
		kk = 4
	}
	rng := rand.New(rand.NewSource(seed))
	b := sparseUniform("B", rng, ij, kk, 0.05)
	c := tensor.UniformRandom("c", rng, kk/2+1, kk)
	cc := sparseUniform("C", rng, kk, ij, 0.05)
	b2 := sparseUniform("B2", rng, ij, kk, 0.05)
	kernels := []struct {
		name   string
		expr   string
		inputs map[string]*tensor.COO
	}{
		{"SpMV", "x(i) = B(i,j) * c(j)", map[string]*tensor.COO{"B": b, "c": c}},
		{"SpM*SpM", "X(i,j) = B(i,k) * C(k,j)", map[string]*tensor.COO{"B": b, "C": cc}},
		{"SpMAdd", "X(i,j) = B(i,j) + C(i,j)", map[string]*tensor.COO{"B": b, "C": b2}},
	}
	var out []ParallelPoint
	for _, k := range kernels {
		e, err := lang.Parse(k.expr)
		if err != nil {
			return nil, err
		}
		jobs := make([]sim.Job, 0, len(lanes))
		for _, p := range lanes {
			g, err := custard.Compile(e, nil, lang.Schedule{Par: p})
			if err != nil {
				return nil, fmt.Errorf("parallel %s par=%d: %w", k.name, p, err)
			}
			jobs = append(jobs, sim.Job{
				Name:   fmt.Sprintf("parallel %s par=%d", k.name, p),
				Graph:  g,
				Inputs: k.inputs,
			})
		}
		results, err := sim.RunBatch(jobs, sim.Options{})
		if err != nil {
			return nil, err
		}
		// The speedup baseline and equivalence reference is the Par=1
		// result, wherever (or whether) 1 appears in the lane list.
		base := 0
		var baseOut *tensor.COO
		for i, res := range results {
			if lanes[i] == 1 {
				base = res.Cycles
				baseOut = res.Output
			}
		}
		if baseOut == nil {
			g, err := custard.Compile(e, nil, lang.Schedule{})
			if err != nil {
				return nil, fmt.Errorf("parallel %s par=1: %w", k.name, err)
			}
			res, err := sim.Run(g, k.inputs, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("parallel %s par=1: %w", k.name, err)
			}
			base = res.Cycles
			baseOut = res.Output
		}
		for i, res := range results {
			if err := checkGold(k.expr, k.inputs, res); err != nil {
				return nil, fmt.Errorf("%s: %w", jobs[i].Name, err)
			}
			if lanes[i] != 1 {
				if err := tensor.Equal(res.Output, baseOut, 1e-9); err != nil {
					return nil, fmt.Errorf("%s: differs from Par=1: %w", jobs[i].Name, err)
				}
			}
			sp := 0.0
			if base > 0 && res.Cycles > 0 {
				sp = float64(base) / float64(res.Cycles)
			}
			out = append(out, ParallelPoint{Kernel: k.name, Lanes: lanes[i], Cycles: res.Cycles, Speedup: sp})
		}
	}
	return out, nil
}

// RenderParallel prints the lane-scaling study.
func RenderParallel(pts []ParallelPoint) string {
	header := []string{"Kernel", "Lanes", "Cycles", "Speedup vs 1"}
	var body [][]string
	for _, p := range pts {
		body = append(body, []string{
			p.Kernel, fmt.Sprint(p.Lanes), fmt.Sprint(p.Cycles), fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return "Parallelization: Figure 12 kernels, cycles vs lane count (Schedule.Par)\n" + table(header, body)
}
