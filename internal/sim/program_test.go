package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/tensor"
)

// identical fails unless two results carry bit-identical outputs (same
// dimensions, points, and values — no tolerance) and equal cycle counts.
func identical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d != %d", label, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.Output.Dims, want.Output.Dims) {
		t.Fatalf("%s: dims %v != %v", label, got.Output.Dims, want.Output.Dims)
	}
	if !reflect.DeepEqual(got.Output.Pts, want.Output.Pts) {
		t.Fatalf("%s: output points differ", label)
	}
}

// TestProgramDifferential proves cached-program execution is bit-identical
// to uncached sim.Run: for a battery of kernels, the event engine and its
// tick-all oracle, and Par in {1, 4}, a Program built once and run
// repeatedly (the cache hit path) must reproduce the fresh-compile path
// exactly, including cycle counts.
func TestProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := tensor.UniformRandom("B", rng, 300, 60, 50)
	c := tensor.UniformRandom("c", rng, 25, 50)
	cc := tensor.UniformRandom("C", rng, 300, 50, 60)
	kernels := []struct {
		name   string
		expr   string
		inputs map[string]*tensor.COO
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", map[string]*tensor.COO{"B": b, "c": c}},
		{"spmspm", "X(i,j) = B(i,k) * C(k,j)", map[string]*tensor.COO{"B": b, "C": cc}},
	}
	for _, k := range kernels {
		e := lang.MustParse(k.expr)
		for _, par := range []int{1, 4} {
			g, err := custard.Compile(e, nil, lang.Schedule{Par: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", k.name, par, err)
			}
			prog, err := NewProgram(g)
			if err != nil {
				t.Fatalf("%s par=%d: NewProgram: %v", k.name, par, err)
			}
			for _, r := range cycleRunners {
				label := fmt.Sprintf("%s par=%d %s", k.name, par, r.name)
				fresh, err := r.eng.Run(g, k.inputs, Options{})
				if err != nil {
					t.Fatalf("%s: uncached: %v", label, err)
				}
				// Two cached runs: the second exercises genuine reuse.
				for trial := 0; trial < 2; trial++ {
					cached, err := r.eng.RunProgram(prog, k.inputs, Options{})
					if err != nil {
						t.Fatalf("%s: cached run %d: %v", label, trial, err)
					}
					identical(t, label, cached, fresh)
				}
			}
		}
	}
}

// TestProgramConcurrentRuns shares one Program across goroutines (the
// serving cache does exactly this) and checks, under -race, that concurrent
// runs neither interfere nor diverge.
func TestProgramConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 200, 40, 40),
		"c": tensor.UniformRandom("c", rng, 20, 40),
	}
	g, err := custard.Compile(lang.MustParse("x(i) = B(i,j) * c(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := prog.Run(inputs, Options{})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Cycles != want.Cycles || !reflect.DeepEqual(res.Output.Pts, want.Output.Pts) {
				errs[i] = fmt.Errorf("run %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestProgramBatch routes precompiled programs through RunBatch and checks
// parity with per-job Run.
func TestProgramBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 200, 40, 40),
		"c": tensor.UniformRandom("c", rng, 20, 40),
	}
	g, err := custard.Compile(lang.MustParse("x(i) = B(i,j) * c(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("job%d", i), Program: prog, Inputs: inputs}
	}
	results, err := RunBatch(jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		identical(t, fmt.Sprintf("batch job %d", i), res, want)
	}
}

// TestNewProgramRejectsInvalid checks validation happens at program build
// time, not mid-run.
func TestNewProgramRejectsInvalid(t *testing.T) {
	if _, err := NewProgram(nil); err == nil {
		t.Errorf("NewProgram(nil) = nil error")
	}
	g := &graph.Graph{Name: "broken"}
	n := g.AddNode(&graph.Node{Kind: graph.Repeat, Label: "rep"})
	_ = n
	if _, err := NewProgram(g); err == nil {
		t.Errorf("NewProgram on a graph with unconnected ports = nil error")
	}
}

// TestCheckEngine checks the up-front engine validation: programs of every
// graph shape (plain, Par and gallop) accept both engines, an unknown engine
// errors with the registry, and an artifact-backed program refuses the event
// engine, which needs the source graph.
func TestCheckEngine(t *testing.T) {
	spmv := lang.MustParse("x(i) = B(i,j) * c(j)")
	plain, err := custard.Compile(spmv, nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := custard.Compile(spmv, nil, lang.Schedule{Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	gallop, err := custard.Compile(spmv, nil, lang.Schedule{UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{plain, par, gallop} {
		gp, err := NewProgram(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range Engines() {
			if err := gp.CheckEngine(kind); err != nil {
				t.Errorf("%s program CheckEngine(%s) = %v", g.Name, kind, err)
			}
		}
		if err := gp.CheckEngine("warp"); err == nil || !strings.Contains(err.Error(), `"comp"`) {
			t.Errorf("%s program CheckEngine(warp) = %v, want the registry listed", g.Name, err)
		}
	}
	if _, err := EngineFor("warp"); err == nil || !strings.Contains(err.Error(), `"comp"`) {
		t.Errorf("EngineFor(warp) = %v, want the registry listed", err)
	}
	enc, err := prog.Encode(plain)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := prog.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgramFromArtifact(bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckEngine(EngineComp); err != nil {
		t.Errorf("artifact program CheckEngine(comp) = %v", err)
	}
	for _, kind := range []EngineKind{"", EngineEvent} {
		if err := p.CheckEngine(kind); err == nil || !strings.Contains(err.Error(), "source graph") {
			t.Errorf("artifact program CheckEngine(%q) = %v, want a source-graph error", kind, err)
		}
	}
}

// BenchmarkRequestColdSetup measures the full per-request setup of the
// uncached path: parse, compile, and program build (input binding and
// execution excluded). Compare with BenchmarkRequestWarmSetup.
func BenchmarkRequestColdSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := lang.Parse("x(i) = B(i,j) * c(j)")
		if err != nil {
			b.Fatal(err)
		}
		g, err := custard.Compile(e, nil, lang.Schedule{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewProgram(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestWarmSetup measures the cache-hit path's setup: a canonical
// key computation (what the serving cache pays before its map lookup).
func BenchmarkRequestWarmSetup(b *testing.B) {
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	for i := 0; i < b.N; i++ {
		_ = lang.CanonicalKey(e, nil, lang.Schedule{})
	}
}
