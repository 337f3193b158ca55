package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"sam/internal/core"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// naiveEngine is the event engine with its scheduler swapped for the
// tick-all reference loop (core.Net.RunNaive): the oracle the event-driven
// scheduler must match bit for bit. It is not an engine kind; only this
// package's tests reach it.
var naiveEngine = eventEngine{tick: (*core.Net).RunNaive}

// runNaive is Run on the tick-all reference loop.
func runNaive(g *graph.Graph, inputs map[string]*tensor.COO, opt Options) (*Result, error) {
	return naiveEngine.Run(g, inputs, opt)
}

// cycleRunners pairs the event scheduler with its tick-all oracle, for
// batteries that must agree across both.
var cycleRunners = []struct {
	name string
	eng  Engine
}{{"event", eventEngine{}}, {"naive", naiveEngine}}

// sameCycleRun demands that an event run and a naive run of one graph agree
// exactly: failure parity with identical messages, identical cycle counts,
// bitwise-identical outputs and identical per-stream statistics.
func sameCycleRun(event, naive *Result, errEvent, errNaive error) error {
	if errEvent != nil || errNaive != nil {
		if errEvent == nil || errNaive == nil || errEvent.Error() != errNaive.Error() {
			return fmt.Errorf("failure parity broken: event=%v naive=%v", errEvent, errNaive)
		}
		return nil
	}
	if event.Cycles != naive.Cycles {
		return fmt.Errorf("cycles: event %d, naive %d", event.Cycles, naive.Cycles)
	}
	if err := tensor.IdenticalBits(event.Output, naive.Output); err != nil {
		return fmt.Errorf("outputs differ: %v", err)
	}
	if len(event.Streams) != len(naive.Streams) {
		return fmt.Errorf("stream sets differ: %d vs %d", len(event.Streams), len(naive.Streams))
	}
	for label, ns := range naive.Streams {
		es, ok := event.Streams[label]
		if !ok {
			return fmt.Errorf("stream %q missing from event run", label)
		}
		if *es != *ns {
			return fmt.Errorf("stream %q stats: event %+v, naive %+v", label, *es, *ns)
		}
	}
	return nil
}

// TestNaiveOracleTable1 is the event-vs-naive differential over the paper's
// Table 1 kernels (plus the repeated-operand shapes the optimizer rewrites,
// the skip/locate SpMV schedules, and all-empty results from disjoint
// operand supports) at every optimization level and lane count:
// Opt{0,1} × Par{1,2,4,8}. Integer-exact inputs keep lane reassociation
// exact.
func TestNaiveOracleTable1(t *testing.T) {
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}},
		{"spmv-skip", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{UseSkip: true}},
		{"spmv-locate", "x(i) = B(i,j) * c(j)", lang.Formats{"c": lang.Uniform(1, fiber.Dense)}, lang.Schedule{UseLocators: true}},
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"spmspm-ijk", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		{"spmspm-kij", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, lang.Schedule{}},
		{"innerprod", "x = B(i,j,k) * C(i,j,k)", nil, lang.Schedule{}},
		{"ttv", "X(i,j) = B(i,j,k) * c(k)", nil, lang.Schedule{}},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil, lang.Schedule{}},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, lang.Schedule{}},
		{"residual", "x(i) = b(i) - C(i,j) * d(j)", nil, lang.Schedule{}},
		{"mattransmul", "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", nil, lang.Schedule{}},
		{"mmadd", "X(i,j) = B(i,j) + C(i,j)", nil, lang.Schedule{}},
		{"plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, lang.Schedule{}},
		{"plus2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", nil, lang.Schedule{}},
		{"hadamard-square", "X(i,j) = B(i,j) * B(i,j)", nil, lang.Schedule{}},
		{"double-broadcast", "x(i) = B(i,j) * c(j) * c(j)", nil, lang.Schedule{}},
		{"add-self-product", "X(i,j) = B(i,j) + B(i,j) * B(i,j)", nil, lang.Schedule{}},
	}
	rng := rand.New(rand.NewSource(41))
	compared := 0
	compare := func(name string, e *lang.Einsum, formats lang.Formats, sched lang.Schedule, inputs map[string]*tensor.COO) {
		for _, par := range []int{1, 2, 4, 8} {
			for _, opt := range []int{0, 1} {
				sched.Par, sched.Opt = par, opt
				g, err := custard.Compile(e, formats, sched)
				if err != nil {
					if par > 1 {
						continue // kernel not parallelizable under this loop order
					}
					t.Fatalf("%s O%d: compile: %v", name, opt, err)
				}
				event, errEvent := Run(g, inputs, Options{})
				naive, errNaive := runNaive(g, inputs, Options{})
				if err := sameCycleRun(event, naive, errEvent, errNaive); err != nil {
					t.Errorf("%s par%d O%d: %v", name, par, opt, err)
				}
				compared++
			}
		}
	}
	for _, tc := range cases {
		inputs, e := corpusInputs(tc.expr, rng.Int63())
		quantizeInputs(rng, inputs)
		compare(tc.name, e, tc.formats, tc.sched, inputs)
	}
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		inputs := map[string]*tensor.COO{}
		for n, a := range e.Accesses() {
			ds := make([]int, len(a.Idx))
			crd := make([]int64, len(a.Idx))
			for i := range ds {
				ds[i] = 8
				crd[i] = int64(n % 2) // disjoint even/odd supports
			}
			op := tensor.NewCOO(a.Tensor, ds...)
			op.Append(float64(n+1), crd...)
			inputs[a.Tensor] = op
		}
		compare(tc.name+"-empty", e, tc.formats, tc.sched, inputs)
	}
	if compared < 200 {
		t.Fatalf("only %d kernel configurations compared", compared)
	}
}

// BenchmarkEngineSpMSpM compares the naive tick-all loop against the
// event-driven ready-set scheduler on a sparse SpM*SpM workload (the
// Figure 12 linear-combination dataflow). The event engine's advantage
// comes from skipping starved and backpressured blocks; the acceptance
// floor for this repository is a 1.5x wall-clock win on sparse workloads.
func BenchmarkEngineSpMSpM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 3125, 250, 100),
		"C": tensor.UniformRandom("C", rng, 1250, 100, 250),
	}
	g, err := custard.Compile(lang.MustParse("X(i,j) = B(i,k) * C(k,j)"), nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range cycleRunners {
		b.Run(r.name, func(b *testing.B) {
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := r.eng.Run(g, inputs, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
