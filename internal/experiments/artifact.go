package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// ArtifactRow is one kernel × optimization measurement of the program-
// artifact pipeline (internal/prog): the encoded size, the setup cost of a
// cold compile against decoding the artifact, and the comp engine's
// wall-clock on the compiled program against the decoded one — with the
// artifact-run output proven bit-identical to the event engine.
type ArtifactRow struct {
	Kernel    string  `json:"kernel"`
	Opt       int     `json:"opt"`
	Bytes     int     `json:"artifact_bytes"`
	CompileUS float64 `json:"compile_us"` // custard + optimizer + lowering, per call
	EncodeUS  float64 `json:"encode_us"`  // lower + encode, per call
	DecodeUS  float64 `json:"decode_us"`  // decode + materialize, per call
	WallMSCmp float64 `json:"wall_ms_comp"`
	WallMSArt float64 `json:"wall_ms_artifact"`
	Identical bool    `json:"outputs_identical"`
}

// ArtifactResult is the artifact study for BENCH_PR7.json.
type ArtifactResult struct {
	CPUs int           `json:"cpus"`
	Rows []ArtifactRow `json:"rows"`
}

// ArtifactStudy measures the portable-artifact pipeline for every Table 1
// kernel at Opt ∈ {0, 1}: artifact size, encode cost, a cold compile against
// a decode — the cold-start cost the artifact format exists to shorten — and
// the comp engine on the compiled program against the decoded artifact, with
// bit-identity to the event engine enforced.
func ArtifactStudy(seed int64, scale float64) (*ArtifactResult, error) {
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
	out := &ArtifactResult{CPUs: runtime.NumCPU()}
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
		for _, optLevel := range []int{0, 1} {
			sched := lang.Schedule{LoopOrder: tc.Order, Opt: optLevel}
			g, err := custard.Compile(e, nil, sched)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: compile: %w", tc.Name, optLevel, err)
			}
			enc, err := prog.Encode(g)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: encode: %w", tc.Name, optLevel, err)
			}
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := prog.Encode(g); err != nil {
					return nil, fmt.Errorf("artifact %s O%d: encode: %w", tc.Name, optLevel, err)
				}
			}
			encUS := float64(time.Since(t0).Nanoseconds()) / 1000 / reps
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				if _, err := prog.Decode(enc); err != nil {
					return nil, fmt.Errorf("artifact %s O%d: decode: %w", tc.Name, optLevel, err)
				}
			}
			decUS := float64(time.Since(t0).Nanoseconds()) / 1000 / reps
			// A cold compile is the work a decode replaces: custard, the
			// optimizer and the comp lowering.
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				gc, err := custard.Compile(e, nil, sched)
				if err == nil {
					_, err = comp.Compile(gc)
				}
				if err != nil {
					return nil, fmt.Errorf("artifact %s O%d: cold compile: %w", tc.Name, optLevel, err)
				}
			}
			compileUS := float64(time.Since(t0).Nanoseconds()) / 1000 / reps

			compiled, err := sim.NewProgram(g)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: program: %w", tc.Name, optLevel, err)
			}
			bp, err := prog.Decode(enc)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: decode: %w", tc.Name, optLevel, err)
			}
			loaded, err := sim.NewProgramFromArtifact(bp)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: artifact program: %w", tc.Name, optLevel, err)
			}
			run := func(p *sim.Program) (*sim.Result, float64, error) {
				opt := sim.Options{Engine: sim.EngineComp}
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
			rEv, err := compiled.Run(inputs, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: event run: %w", tc.Name, optLevel, err)
			}
			rCmp, wCmp, err := run(compiled)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: comp run: %w", tc.Name, optLevel, err)
			}
			rArt, wArt, err := run(loaded)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: artifact run: %w", tc.Name, optLevel, err)
			}
			if rArt.Engine != sim.EngineComp {
				return nil, fmt.Errorf("artifact %s O%d: artifact run on %q, want comp", tc.Name, optLevel, rArt.Engine)
			}
			if err := tensor.IdenticalBits(rEv.Output, rArt.Output); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: artifact output is not bit-identical to event: %w", tc.Name, optLevel, err)
			}
			if err := tensor.IdenticalBits(rCmp.Output, rArt.Output); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: artifact output is not bit-identical to compiled comp: %w", tc.Name, optLevel, err)
			}
			if err := checkGold(tc.Expr, inputs, rArt); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: gold: %w", tc.Name, optLevel, err)
			}
			out.Rows = append(out.Rows, ArtifactRow{
				Kernel: tc.Name, Opt: optLevel, Bytes: len(enc),
				CompileUS: compileUS, EncodeUS: encUS, DecodeUS: decUS,
				WallMSCmp: wCmp, WallMSArt: wArt,
				Identical: true,
			})
		}
	}
	return out, nil
}

// RenderArtifact prints the artifact study.
func RenderArtifact(r *ArtifactResult) string {
	header := []string{"Kernel", "Opt", "Bytes", "Encode", "Cold compile", "Decode", "Wall comp (ms)", "Wall artifact (ms)", "Bit-identical"}
	var body [][]string
	for _, row := range r.Rows {
		body = append(body, []string{
			row.Kernel, fmt.Sprint(row.Opt), fmt.Sprint(row.Bytes),
			fmt.Sprintf("%.1fus", row.EncodeUS), fmt.Sprintf("%.1fus", row.CompileUS),
			fmt.Sprintf("%.1fus", row.DecodeUS),
			fmt.Sprintf("%.3f", row.WallMSCmp), fmt.Sprintf("%.3f", row.WallMSArt),
			fmt.Sprint(row.Identical),
		})
	}
	return fmt.Sprintf("Artifacts: Table 1 kernels, cold compile vs artifact decode, comp on each (internal/prog, %d CPUs)\n", r.CPUs) + table(header, body)
}
