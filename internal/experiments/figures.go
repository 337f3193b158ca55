package experiments

import (
	"fmt"
	"math/rand"

	"sam/internal/ablation"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/memmodel"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// ---------------------------------------------------------------- Table 2

// Table2 runs the primitive-removal ablation over the synthetic corpus.
func Table2() ([]ablation.Row, int, int, error) { return ablation.Run() }

// RenderTable2 prints Table 2.
func RenderTable2(rows []ablation.Row, unique, all int) string {
	header := []string{"SAM Primitive Removed", "Unique lost", "All lost", "Unique %", "All %"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Primitive,
			fmt.Sprint(r.UniqueLost), fmt.Sprint(r.AllLost),
			fmt.Sprintf("%.2f", r.UniquePct), fmt.Sprintf("%.2f", r.AllPct),
		})
	}
	return fmt.Sprintf("Table 2: expressions lost per removed primitive (corpus: %d unique, %d total)\n", unique, all) +
		table(header, body)
}

// ---------------------------------------------------------------- Figure 11

// Fig11Point is one SDDMM fusion measurement.
type Fig11Point struct {
	K                int
	Unfused          int
	FusedLocating    int
	FusedCoiteration int
}

// Figure11 reproduces the fused-vs-unfused SDDMM study: I=J=250 with a 95%
// sparse uniform B and dense C, D, sweeping K over {1, 10, 100}. The unfused
// variant factorizes into a dense matrix multiplication T = C*D^T followed
// by an elementwise sample X = B .* T, with the cycle counts of the two
// kernels added.
func Figure11(seed int64, scale float64) ([]Fig11Point, error) {
	ij := int(250 * scale)
	if ij < 8 {
		ij = 8
	}
	var out []Fig11Point
	for _, k := range []int{1, 10, 100} {
		rng := rand.New(rand.NewSource(seed))
		b := sparseUniform("B", rng, ij, ij, 0.05)
		c := tensor.UniformRandom("C", rng, ij*k, ij, k)
		d := tensor.UniformRandom("D", rng, ij*k, ij, k)
		inputs := map[string]*tensor.COO{"B": b, "C": c, "D": d}
		denseCD := lang.Formats{
			"C": lang.Uniform(2, fiber.Dense),
			"D": lang.Uniform(2, fiber.Dense),
		}
		expr := "X(i,j) = B(i,j) * C(i,k) * D(j,k)"

		coit, _, err := compileRun(expr, denseCD, lang.Schedule{}, inputs)
		if err != nil {
			return nil, fmt.Errorf("fig11 coiteration K=%d: %w", k, err)
		}
		if err := checkGold(expr, inputs, coit); err != nil {
			return nil, fmt.Errorf("fig11 coiteration K=%d: %w", k, err)
		}
		loc, _, err := compileRun(expr, denseCD, lang.Schedule{UseLocators: true}, inputs)
		if err != nil {
			return nil, fmt.Errorf("fig11 locating K=%d: %w", k, err)
		}

		// Unfused: T(i,j) = C(i,k) * D(j,k) as a dense kernel, then the
		// elementwise sample X = B .* T.
		tRes, _, err := compileRun("T(i,j) = C(i,k) * D(j,k)", denseCD,
			lang.Schedule{}, map[string]*tensor.COO{"C": c, "D": d})
		if err != nil {
			return nil, fmt.Errorf("fig11 unfused matmul K=%d: %w", k, err)
		}
		sample, _, err := compileRun("X(i,j) = B(i,j) * T(i,j)", nil,
			lang.Schedule{}, map[string]*tensor.COO{"B": b, "T": tRes.Output})
		if err != nil {
			return nil, fmt.Errorf("fig11 unfused sample K=%d: %w", k, err)
		}
		out = append(out, Fig11Point{
			K:                k,
			Unfused:          tRes.Cycles + sample.Cycles,
			FusedLocating:    loc.Cycles,
			FusedCoiteration: coit.Cycles,
		})
	}
	return out, nil
}

// RenderFigure11 prints the three series of Figure 11.
func RenderFigure11(pts []Fig11Point) string {
	header := []string{"K", "Unfused", "Fused locating", "Fused coiteration"}
	var body [][]string
	for _, p := range pts {
		body = append(body, []string{
			fmt.Sprint(p.K), fmt.Sprint(p.Unfused), fmt.Sprint(p.FusedLocating), fmt.Sprint(p.FusedCoiteration),
		})
	}
	return "Figure 11: fused vs unfused SDDMM cycles\n" + table(header, body)
}

// ---------------------------------------------------------------- Figure 12

// Fig12Point is one SpM*SpM dataflow-order measurement.
type Fig12Point struct {
	Order  string
	Cycles int
}

// fig12Orders are the six ijk permutations of the dataflow-order study.
var fig12Orders = [][]string{
	{"i", "j", "k"}, {"j", "i", "k"}, {"i", "k", "j"}, {"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"},
}

// fig12Jobs compiles the six-permutation study into batch jobs over shared
// inputs.
func fig12Jobs(seed int64, scale float64) ([]sim.Job, string, error) {
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
	c := sparseUniform("C", rng, kk, ij, 0.05)
	inputs := map[string]*tensor.COO{"B": b, "C": c}
	expr := "X(i,j) = B(i,k) * C(k,j)"
	e, err := lang.Parse(expr)
	if err != nil {
		return nil, expr, err
	}
	jobs := make([]sim.Job, 0, len(fig12Orders))
	for _, order := range fig12Orders {
		g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order})
		if err != nil {
			return nil, expr, fmt.Errorf("fig12 order %v: %w", order, err)
		}
		jobs = append(jobs, sim.Job{
			Name:   "fig12 order " + order[0] + order[1] + order[2],
			Graph:  g,
			Inputs: inputs,
		})
	}
	return jobs, expr, nil
}

// Figure12 simulates all six ijk permutations of SpM*SpM on two distinct
// 95% sparse uniform matrices with I=J=250 and K=100. The six permutations
// run concurrently through the batch runner; each job owns its net, so the
// cycle counts are identical to sequential runs.
func Figure12(seed int64, scale float64) ([]Fig12Point, error) {
	jobs, expr, err := fig12Jobs(seed, scale)
	if err != nil {
		return nil, err
	}
	results, err := sim.RunBatch(jobs, sim.Options{})
	if err != nil {
		return nil, err
	}
	var out []Fig12Point
	for i, res := range results {
		if err := checkGold(expr, jobs[i].Inputs, res); err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].Name, err)
		}
		order := fig12Orders[i]
		out = append(out, Fig12Point{Order: order[0] + order[1] + order[2], Cycles: res.Cycles})
	}
	return out, nil
}

// RenderFigure12 prints the dataflow-order series.
func RenderFigure12(pts []Fig12Point) string {
	header := []string{"Index order", "Cycles"}
	var body [][]string
	for _, p := range pts {
		body = append(body, []string{p.Order, fmt.Sprint(p.Cycles)})
	}
	return "Figure 12: SpM*SpM dataflow orders (cycles)\n" + table(header, body)
}

// ---------------------------------------------------------------- Figure 13

// Fig13Config names one optimization configuration of Figure 13.
type Fig13Config string

// The six configurations of Figure 13.
const (
	CfgDense    Fig13Config = "Dense"
	CfgCrd      Fig13Config = "Crd"
	CfgCrdSkip  Fig13Config = "Crd w/ Skip"
	CfgCrdSplit Fig13Config = "Crd w/ Split"
	CfgBV       Fig13Config = "BV"
	CfgBVSplit  Fig13Config = "BV w/ Split"
)

// Fig13Configs lists the configurations in the paper's legend order.
var Fig13Configs = []Fig13Config{CfgCrd, CfgDense, CfgCrdSkip, CfgCrdSplit, CfgBVSplit, CfgBV}

// Fig13Point is one elementwise-multiplication measurement.
type Fig13Point struct {
	X      int // sweep coordinate: nnz, run length, or block size
	Config Fig13Config
	Cycles int
}

// elementwiseCycles runs x(i) = b(i) * c(i) under one configuration.
func elementwiseCycles(cfg Fig13Config, b, c *tensor.COO, split int) (int, error) {
	expr := "x(i) = b(i) * c(i)"
	inputs := map[string]*tensor.COO{"b": b, "c": c}
	switch cfg {
	case CfgDense:
		formats := lang.Formats{"b": lang.Uniform(1, fiber.Dense), "c": lang.Uniform(1, fiber.Dense)}
		res, _, err := compileRun(expr, formats, lang.Schedule{}, inputs)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	case CfgCrd:
		res, _, err := compileRun(expr, nil, lang.Schedule{}, inputs)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	case CfgCrdSkip:
		res, _, err := compileRun(expr, nil, lang.Schedule{UseSkip: true}, inputs)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	case CfgCrdSplit:
		bs, err := b.Split("b", 0, split)
		if err != nil {
			return 0, err
		}
		cs, err := c.Split("c", 0, split)
		if err != nil {
			return 0, err
		}
		res, _, err := compileRun("x(i0,i1) = b(i0,i1) * c(i0,i1)", nil, lang.Schedule{},
			map[string]*tensor.COO{"b": bs, "c": cs})
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	case CfgBV:
		e := lang.MustParse(expr)
		g, err := custard.CompileBitvector(e, lang.Formats{
			"b": lang.Uniform(1, fiber.Bitvector), "c": lang.Uniform(1, fiber.Bitvector),
		})
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(g, inputs, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	case CfgBVSplit:
		bs, err := b.Split("b", 0, split)
		if err != nil {
			return 0, err
		}
		cs, err := c.Split("c", 0, split)
		if err != nil {
			return 0, err
		}
		e := lang.MustParse("x(i0,i1) = b(i0,i1) * c(i0,i1)")
		g, err := custard.CompileBitvector(e, nil)
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(g, map[string]*tensor.COO{"b": bs, "c": cs}, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	return 0, fmt.Errorf("unknown configuration %q", cfg)
}

// Fig13Dim is the vector dimension of the Figure 13 study.
const Fig13Dim = 2000

// fig13SplitFactor is the paper's split factor s = 64.
const fig13SplitFactor = 64

// Figure13a sweeps sparsity with uniformly random vectors of size 2000.
func Figure13a(seed int64) ([]Fig13Point, error) {
	var out []Fig13Point
	for _, nnz := range []int{10, 20, 40, 100, 200, 400, 1000} {
		rng := rand.New(rand.NewSource(seed + int64(nnz)))
		b := tensor.UniformRandom("b", rng, nnz, Fig13Dim)
		c := tensor.UniformRandom("c", rng, nnz, Fig13Dim)
		for _, cfg := range Fig13Configs {
			cy, err := elementwiseCycles(cfg, b, c, fig13SplitFactor)
			if err != nil {
				return nil, fmt.Errorf("fig13a nnz=%d %s: %w", nnz, cfg, err)
			}
			out = append(out, Fig13Point{X: nnz, Config: cfg, Cycles: cy})
		}
	}
	return out, nil
}

// Figure13b sweeps run length with the paper's runs pattern (nnz=400).
func Figure13b(seed int64) ([]Fig13Point, error) {
	var out []Fig13Point
	for _, run := range []int{1, 2, 4, 8, 16, 32, 64, 100} {
		rng := rand.New(rand.NewSource(seed + int64(run)))
		b, c := tensor.RunsPair(rng, Fig13Dim, 400, run)
		for _, cfg := range Fig13Configs {
			cy, err := elementwiseCycles(cfg, b, c, fig13SplitFactor)
			if err != nil {
				return nil, fmt.Errorf("fig13b run=%d %s: %w", run, cfg, err)
			}
			out = append(out, Fig13Point{X: run, Config: cfg, Cycles: cy})
		}
	}
	return out, nil
}

// Figure13c sweeps block size with the paper's blocks pattern (nnz=400).
func Figure13c(seed int64) ([]Fig13Point, error) {
	var out []Fig13Point
	for _, block := range []int{1, 2, 4, 8, 16, 32, 64, 100} {
		rng := rand.New(rand.NewSource(seed + int64(block)))
		b, c := tensor.BlocksPair(rng, Fig13Dim, 400, block)
		for _, cfg := range Fig13Configs {
			cy, err := elementwiseCycles(cfg, b, c, fig13SplitFactor)
			if err != nil {
				return nil, fmt.Errorf("fig13c block=%d %s: %w", block, cfg, err)
			}
			out = append(out, Fig13Point{X: block, Config: cfg, Cycles: cy})
		}
	}
	return out, nil
}

// RenderFigure13 prints one Figure 13 panel as a series table.
func RenderFigure13(title, xlabel string, pts []Fig13Point) string {
	xs := []int{}
	seen := map[int]bool{}
	for _, p := range pts {
		if !seen[p.X] {
			seen[p.X] = true
			xs = append(xs, p.X)
		}
	}
	header := []string{xlabel}
	for _, cfg := range Fig13Configs {
		header = append(header, string(cfg))
	}
	var body [][]string
	for _, x := range xs {
		row := []string{fmt.Sprint(x)}
		for _, cfg := range Fig13Configs {
			val := "-"
			for _, p := range pts {
				if p.X == x && p.Config == cfg {
					val = fmt.Sprint(p.Cycles)
				}
			}
			row = append(row, val)
		}
		body = append(body, row)
	}
	return title + "\n" + table(header, body)
}

// ---------------------------------------------------------------- Figure 15

// Figure15 runs the ExTensor recreation sweep.
func Figure15(seed int64) []memmodel.Point {
	return memmodel.Sweep(memmodel.PaperDims(), memmodel.PaperNNZs(), memmodel.DefaultConfig(), seed)
}

// RenderFigure15 prints cycles per (nnz, dim).
func RenderFigure15(pts []memmodel.Point) string {
	dims := memmodel.PaperDims()
	header := []string{"Dim"}
	for _, nnz := range memmodel.PaperNNZs() {
		header = append(header, fmt.Sprintf("%d NNZ", nnz))
	}
	var body [][]string
	for _, d := range dims {
		row := []string{fmt.Sprint(d)}
		for _, nnz := range memmodel.PaperNNZs() {
			for _, p := range pts {
				if p.Dim == d && p.NNZ == nnz {
					row = append(row, fmt.Sprintf("%.3g", p.Cycles))
				}
			}
		}
		body = append(body, row)
	}
	return "Figure 15: ExTensor SpM*SpM recreation (runtime cycles)\n" + table(header, body)
}
