package prog_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// An artifact is a source of a comp program, and its correctness bar
// matches the compiled engine's: bitwise COO equality against the event
// engine (tensor.IdenticalBits), plus one invariant the in-process engine
// doesn't have — the same bits must come out of a program that went
// through encode → decode with no access to the source graph, as a
// separate process loading the artifact would run it.

// artifactInputs draws integer-exact inputs for a statement (the comp
// battery's generator, reproduced here so the package stays
// self-contained).
func artifactInputs(rng *rand.Rand, e *lang.Einsum, dimOf func(v string) int) map[string]*tensor.COO {
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
			ds[i] = dimOf(v)
			total *= ds[i]
		}
		t := tensor.UniformRandom(a.Tensor, rng, total/5+1, ds...)
		tensor.QuantizeInts(rng, 7, t)
		inputs[a.Tensor] = t
	}
	return inputs
}

// runArtifactDifferential compiles one (expr, formats, schedule)
// configuration at every requested (opt, par) point and checks the full
// artifact contract: the cross-process path — Encode(g), Decode,
// NewProgramFromArtifact, Run on comp with no graph in sight — produces
// bits identical to the event engine and to comp on the graph, with
// run-failure parity against both, from a byte-stable artifact that equals
// the graph-backed program's own Program.Artifact.
func runArtifactDifferential(t *testing.T, name, expr string, formats lang.Formats, sched lang.Schedule, lanes []int, inputs map[string]*tensor.COO) {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	for _, par := range lanes {
		for _, opt := range []int{0, 1} {
			s := sched
			s.Par = par
			s.Opt = opt
			g, err := custard.Compile(e, formats, s)
			if err != nil {
				if par > 1 {
					continue // kernel not parallelizable under this loop order
				}
				t.Fatalf("%s O%d: compile: %v", name, opt, err)
			}
			label := fmt.Sprintf("%s par%d O%d", name, par, opt)

			// Cross-process path: serialize, forget the graph, reload.
			enc, err := prog.Encode(g)
			if err != nil {
				t.Errorf("%s: encode: %v", label, err)
				continue
			}
			bp, err := prog.Decode(enc)
			if err != nil {
				t.Errorf("%s: decode: %v", label, err)
				continue
			}
			if re := prog.EncodeIR(bp.IR()); !bytes.Equal(re, enc) {
				t.Errorf("%s: re-encode is not byte-stable", label)
			}
			gp, err := sim.NewProgram(g)
			if err != nil {
				t.Fatalf("%s: NewProgram: %v", label, err)
			}
			if art, err := gp.Artifact(); err != nil || !bytes.Equal(art, enc) {
				t.Errorf("%s: Program.Artifact differs from Encode (err=%v)", label, err)
			}
			sp, err := sim.NewProgramFromArtifact(bp)
			if err != nil {
				t.Errorf("%s: NewProgramFromArtifact: %v", label, err)
				continue
			}

			ref, errRef := gp.Run(inputs, sim.Options{Engine: sim.EngineEvent})
			cmp, errCmp := gp.Run(inputs, sim.Options{Engine: sim.EngineComp})
			got, errGot := sp.Run(inputs, sim.Options{Engine: sim.EngineComp})
			if errRef != nil || errGot != nil || errCmp != nil {
				// Loading from an artifact must not change whether a graph
				// runs — in either direction, and never diverging from comp.
				if (errRef == nil) != (errGot == nil) {
					t.Errorf("%s: run-failure parity broken: event err=%v, artifact err=%v", label, errRef, errGot)
				}
				if (errCmp == nil) != (errGot == nil) {
					t.Errorf("%s: artifact/comp failure parity broken: comp err=%v, artifact err=%v", label, errCmp, errGot)
				}
				continue
			}
			if got.Engine != sim.EngineComp {
				t.Errorf("%s: decoded artifact ran on %q, want comp", label, got.Engine)
			}
			if got.Cycles != 0 {
				t.Errorf("%s: artifact run reported %d cycles, want 0 (no cycle model)", label, got.Cycles)
			}
			if err := tensor.IdenticalBits(ref.Output, got.Output); err != nil {
				t.Errorf("%s: artifact output differs from event: %v", label, err)
			}
			if err := tensor.IdenticalBits(cmp.Output, got.Output); err != nil {
				t.Errorf("%s: artifact output differs from comp on the graph: %v", label, err)
			}
		}
	}
}

// TestArtifactDifferentialKernels is the fixed half of the battery: every paper
// kernel plus gallop, locator, format and deep-reduction shapes, across
// Opt ∈ {0, 1} and Par ∈ {1, 4}.
func TestArtifactDifferentialKernels(t *testing.T) {
	csr2 := lang.Formats{"B": lang.CSR(2)}
	dense1 := lang.Formats{"c": lang.Uniform(1, fiber.Dense)}
	llOut := lang.Formats{"X": lang.Uniform(2, fiber.LinkedList)}
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}},
		{"spmv-csr", "x(i) = B(i,j) * c(j)", csr2, lang.Schedule{}},
		{"spmv-skip", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{UseSkip: true}},
		{"spmv-locate", "x(i) = B(i,j) * c(j)", dense1, lang.Schedule{UseLocators: true}},
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"spmspm-ijk", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		{"spmspm-kij", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}},
		{"spmspm-skip", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}, UseSkip: true}},
		{"spmspm-llout", "X(i,j) = B(i,k) * C(k,j)", llOut, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, lang.Schedule{}},
		{"ttv", "X(i,j) = B(i,j,k) * c(k)", nil, lang.Schedule{}},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil, lang.Schedule{}},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, lang.Schedule{}},
		{"innerprod", "x = B(i,j,k) * C(i,j,k)", nil, lang.Schedule{}},
		{"residual", "x(i) = b(i) - C(i,j) * d(j)", nil, lang.Schedule{}},
		{"mattransmul", "x(i) = alpha * Bt(i,j) * c(j) + beta * d(i)", nil, lang.Schedule{}},
		{"mmadd", "X(i,j) = B(i,j) + C(i,j)", nil, lang.Schedule{}},
		{"plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, lang.Schedule{}},
		{"hadamard-square", "X(i,j) = B(i,j) * B(i,j)", nil, lang.Schedule{}},
		{"deep-reduce", "X(i,j,k) = B(i,j,k,l) * c(l)", nil, lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}},
	}
	dims := map[string]int{"i": 24, "j": 20, "k": 14, "l": 10}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		inputs := artifactInputs(rng, e, func(v string) int { return dims[v] })
		runArtifactDifferential(t, tc.name, tc.expr, tc.formats, tc.sched, []int{1, 4}, inputs)
	}
}

// TestArtifactDifferentialEmptyResults drives all-empty shapes: disjoint
// operand supports make every intersection empty, the shapes where a
// decoded writer table diverges from the compiled one first.
func TestArtifactDifferentialEmptyResults(t *testing.T) {
	cases := []struct {
		name  string
		expr  string
		order []string
	}{
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil},
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
			tt := tensor.NewCOO(a.Tensor, ds...)
			tt.Append(float64(n+1), crd...)
			inputs[a.Tensor] = tt
		}
		runArtifactDifferential(t, tc.name+"-empty", tc.expr, nil, lang.Schedule{LoopOrder: tc.order}, []int{1, 4}, inputs)
	}
}

// artifactRandomCase derives one randomized configuration from a seed: an
// expression from the template pool, random dimensions, a random loop-order
// permutation, and a random skip toggle.
func artifactRandomCase(seed int64) (name, expr string, sched lang.Schedule, inputs map[string]*tensor.COO) {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{
		"x(i) = B(i,j) * c(j)",
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = B(i,j) * C(i,j)",
		"X(i,j) = B(i,j) * B(i,j)",
		"X(i,j) = B(i,j) + C(i,j) + B(i,j)",
		"x(i) = B(i,j) * c(j) * c(j)",
		"X(i,j) = B(i,j,k) * c(k)",
		"x = B(i,j) * C(i,j)",
		"x(i) = b(i) + C(i,j) * d(j)",
		"X(i,j) = B(i,j) * C(i,k) * D(j,k)",
		"X(i,j) = B(i,j) + B(i,j) * C(i,j)",
		"x(i) = alpha * B(i,j) * c(j) + alpha * d(i)",
		"X(i,j,k) = B(i,j,k,l) * c(l)",
	}
	expr = pool[rng.Intn(len(pool))]
	e := lang.MustParse(expr)
	vars := e.AllVars()
	order := append([]string(nil), vars...)
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	sched = lang.Schedule{LoopOrder: order}
	if rng.Intn(3) == 0 {
		sched.UseSkip = true
	}
	dims := map[string]int{}
	for _, v := range vars {
		dims[v] = 4 + rng.Intn(9)
	}
	inputs = artifactInputs(rng, e, func(v string) int { return dims[v] })
	name = fmt.Sprintf("seed%d:%s:%v", seed, expr, order)
	return name, expr, sched, inputs
}

// TestArtifactDifferentialRandom is the randomized half of the battery: 60 seeded
// random (expression, schedule, data) draws (12 in -short), each checked
// across Opt ∈ {0, 1} and Par ∈ {1, 4}.
func TestArtifactDifferentialRandom(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := int64(0); seed < int64(n); seed++ {
		name, expr, sched, inputs := artifactRandomCase(seed)
		runArtifactDifferential(t, name, expr, nil, sched, []int{1, 4}, inputs)
	}
}
