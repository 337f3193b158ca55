// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), one benchmark per artifact, plus microbenchmarks for the
// dataflow primitives and ablations for the design choices DESIGN.md calls
// out. Run `go test -bench=. -benchmem` or use cmd/sambench to print the
// rows/series the paper reports.
package sam

import (
	"fmt"
	"math/rand"
	"testing"

	"sam/internal/experiments"
	"sam/internal/lang"
	"sam/internal/memmodel"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// BenchmarkTable1 compiles the twelve Table 1 expressions and counts
// primitives.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 14 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkTable2 runs the primitive-removal ablation over the synthetic
// corpus.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the fused-vs-unfused SDDMM study
// (I=J=250, K in {1,10,100}).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(1, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates the SpM*SpM dataflow-order study
// (all six ijk permutations, I=J=250, K=100, 95% sparse).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(1, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13a regenerates the sparsity sweep of the elementwise
// format study.
func BenchmarkFigure13a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13a(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13b regenerates the run-length sweep.
func BenchmarkFigure13b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13b(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13c regenerates the block-size sweep.
func BenchmarkFigure13c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13c(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure14 regenerates the stream token-breakdown study over the
// fifteen Table 3 stand-in matrices.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure15 regenerates the ExTensor recreation sweep (48 points).
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure15(1)
		if len(pts) != 48 {
			b.Fatalf("got %d points", len(pts))
		}
	}
}

// BenchmarkPointVsLevel regenerates the Section 3.8 stream representation
// analysis.
func BenchmarkPointVsLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PointVsLevel(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBatch measures the batched parallel runner on the
// Figure 12 six-permutation study at increasing worker counts.
func BenchmarkSimulateBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 1250, 250, 100)
	mc := RandomTensor("C", rng, 1250, 100, 250)
	inputs := Inputs{"B": mb, "C": mc}
	var jobs []Job
	for _, order := range [][]string{
		{"i", "j", "k"}, {"j", "i", "k"}, {"i", "k", "j"}, {"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"},
	} {
		g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil, Schedule{LoopOrder: order})
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, Job{Name: order[0] + order[1] + order[2], Graph: g, Inputs: inputs})
	}
	for _, workers := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateBatch(jobs, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationSkip compares plain two-finger intersection against
// coordinate skipping on run-structured vectors (the Figure 13b mechanism).
func BenchmarkAblationSkip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vb, vc := tensor.RunsPair(rng, 2000, 400, 64)
	inputs := Inputs{"b": vb, "c": vc}
	for _, skip := range []bool{false, true} {
		b.Run(fmt.Sprintf("skip=%v", skip), func(b *testing.B) {
			g, err := Compile("x(i) = b(i) * c(i)", nil, Schedule{UseSkip: skip})
			if err != nil {
				b.Fatal(err)
			}
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := Simulate(g, inputs, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationQueueDepth measures the cost of finite inter-block
// buffering (backpressure) on SpM*SpM.
func BenchmarkAblationQueueDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 1250, 250, 100)
	mc := RandomTensor("C", rng, 1250, 100, 250)
	inputs := Inputs{"B": mb, "C": mc}
	g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil, Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 2, 8, 64} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := Simulate(g, inputs, Options{QueueCap: cap})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationDataflowOrder reports per-order SpM*SpM cycles as
// metrics (the Figure 12 ablation at benchmark scale).
func BenchmarkAblationDataflowOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 1250, 250, 100)
	mc := RandomTensor("C", rng, 1250, 100, 250)
	inputs := Inputs{"B": mb, "C": mc}
	for _, order := range []string{"ijk", "ikj", "kij"} {
		b.Run(order, func(b *testing.B) {
			g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil,
				Schedule{LoopOrder: []string{string(order[0]), string(order[1]), string(order[2])}})
			if err != nil {
				b.Fatal(err)
			}
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := Simulate(g, inputs, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkMemModelTilePair measures the analytic memory model against a
// single full sweep point.
func BenchmarkMemModelTilePair(b *testing.B) {
	cfg := memmodel.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 25000, 5032, 5032)
	mc := RandomTensor("C", rng, 25000, 5032, 5032)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memmodel.SpMSpM(mb, mc, cfg)
	}
}

// ------------------------------------------------------- microbenchmarks

// BenchmarkSimulatorThroughput measures engine block-tick throughput on the
// linear-combination SpM*SpM pipeline.
func BenchmarkSimulatorThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 3125, 250, 100)
	mc := RandomTensor("C", rng, 1250, 100, 250)
	inputs := Inputs{"B": mb, "C": mc}
	g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil, Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(g, inputs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

// BenchmarkGoldEvaluator measures the dense reference evaluator.
func BenchmarkGoldEvaluator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mb := RandomTensor("B", rng, 1250, 100, 100)
	mc := RandomTensor("C", rng, 1250, 100, 100)
	e, err := lang.Parse("X(i,j) = B(i,k) * C(k,j)")
	if err != nil {
		b.Fatal(err)
	}
	inputs := Inputs{"B": mb, "C": mc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Gold(e, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures Custard compilation itself.
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, Schedule{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitvectorPipeline measures the vectorized bitvector pipeline.
func BenchmarkBitvectorPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vb := RandomTensor("b", rng, 400, 2000)
	vc := RandomTensor("c", rng, 400, 2000)
	g, err := CompileBitvector("x(i) = b(i) * c(i)", Formats{
		"b": Uniform(1, Bitvector),
		"c": Uniform(1, Bitvector),
	})
	if err != nil {
		b.Fatal(err)
	}
	inputs := Inputs{"b": vb, "c": vc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, inputs, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelLanes demonstrates Section 4.4's coarse-grained
// parallelism via graph duplication: B's rows are partitioned across P
// SpMV pipelines and the runtime is the slowest lane.
func BenchmarkParallelLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	B := RandomTensor("B", rng, 8000, 400, 200)
	c := RandomTensor("c", rng, 200, 200)
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			// Partition rows round-robin into per-lane matrices.
			parts := make([]*tensor.COO, lanes)
			for l := range parts {
				parts[l] = tensor.NewCOO("B", B.Dims...)
			}
			for _, p := range B.Pts {
				parts[int(p.Crd[0])%lanes].Append(p.Val, p.Crd...)
			}
			g, err := Compile("x(i) = B(i,j) * c(j)", nil, Schedule{})
			if err != nil {
				b.Fatal(err)
			}
			worst := 0
			for i := 0; i < b.N; i++ {
				worst = 0
				for l := 0; l < lanes; l++ {
					res, err := Simulate(g, Inputs{"B": parts[l], "c": c}, Options{})
					if err != nil {
						b.Fatal(err)
					}
					if res.Cycles > worst {
						worst = res.Cycles
					}
				}
			}
			b.ReportMetric(float64(worst), "cycles")
		})
	}
}
