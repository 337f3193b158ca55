package prog_test

import (
	"bytes"
	"math/rand"
	"testing"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// FuzzDecode feeds arbitrary bytes to the artifact decoder. The contract
// under fuzz: Decode never panics; whatever it accepts must be a closed
// canonical form — re-encoding the decoded IR yields bytes Decode accepts
// again, and that second pass is a byte-level fixpoint. Seeds cover valid
// artifacts plus each corruption family from TestDecodeErrors so the fuzzer
// starts at the interesting boundaries. Run with
// go test -fuzz=FuzzDecode ./internal/prog.
func FuzzDecode(f *testing.F) {
	for _, k := range goldenKernels {
		g := compile(f, k.expr, k.sched)
		enc, err := prog.Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flip := bytes.Clone(enc)
		flip[len(flip)/3] ^= 0x41
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("SAMBC"))
	f.Add([]byte("SAMBC\x01\x00garbage body with no checksum at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := prog.Decode(data)
		if err != nil {
			return // rejected; the only requirement is no panic
		}
		re := prog.EncodeIR(p.IR())
		p2, err := prog.Decode(re)
		if err != nil {
			t.Fatalf("re-encode of an accepted artifact does not decode: %v", err)
		}
		if got := prog.EncodeIR(p2.IR()); !bytes.Equal(got, re) {
			t.Fatalf("canonical form is not a fixpoint: %d vs %d bytes", len(got), len(re))
		}
	})
}

// fuzzPool is the statement pool the round-trip fuzzer draws from,
// mirroring the compiled-engine differential fuzzer's shapes.
var fuzzPool = []string{
	"x(i) = B(i,j) * c(j)",
	"X(i,j) = B(i,k) * C(k,j)",
	"X(i,j) = B(i,j) * C(i,j)",
	"X(i,j) = B(i,j) + C(i,j) + B(i,j)",
	"X(i,j) = B(i,j,k) * c(k)",
	"x = B(i,j) * C(i,j)",
	"x(i) = b(i) - C(i,j) * d(j)",
	"X(i,j) = B(i,j) * C(i,k) * D(j,k)",
	"x(i) = alpha * B(i,j) * c(j) + alpha * d(i)",
	"X(i,j,k) = B(i,j,k,l) * c(l)",
}

// FuzzEncodeDecodeRoundTrip explores the (statement, schedule) space: every
// compilable configuration must encode, decode byte-stably, and run through
// the decoded artifact to output bits identical to the event engine on the
// source graph. Run with go test -fuzz=FuzzEncodeDecodeRoundTrip
// ./internal/prog.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(23), uint8(0), uint8(1))
	f.Add(int64(77), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, optLevel, lanes uint8) {
		rng := rand.New(rand.NewSource(seed))
		expr := fuzzPool[rng.Intn(len(fuzzPool))]
		e := lang.MustParse(expr)
		vars := e.AllVars()
		order := append([]string(nil), vars...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		sched := lang.Schedule{
			LoopOrder: order,
			UseSkip:   rng.Intn(3) == 0,
			Par:       1 << (lanes % 3), // 1, 2 or 4
			Opt:       int(optLevel % 2),
		}
		g, err := custard.Compile(e, nil, sched)
		if err != nil {
			return // not schedulable under this order; nothing to round-trip
		}
		enc, err := prog.Encode(g)
		if err != nil {
			t.Fatalf("%s %v: encode failed on a compilable graph: %v", expr, order, err)
		}
		p, err := prog.Decode(enc)
		if err != nil {
			t.Fatalf("%s %v: decode(encode(G)): %v", expr, order, err)
		}
		if re := prog.EncodeIR(p.IR()); !bytes.Equal(re, enc) {
			t.Fatalf("%s %v: re-encode is not byte-stable", expr, order)
		}

		dims := map[string]int{}
		for _, v := range vars {
			dims[v] = 4 + rng.Intn(7)
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
			tt := tensor.UniformRandom(a.Tensor, rng, total/5+1, ds...)
			tensor.QuantizeInts(rng, 7, tt)
			inputs[a.Tensor] = tt
		}
		sp, err := sim.NewProgramFromArtifact(p)
		if err != nil {
			t.Fatalf("%s %v: artifact program: %v", expr, order, err)
		}
		ref, err := sim.Run(g, inputs, sim.Options{Engine: sim.EngineEvent})
		got, gotErr := sp.Run(inputs, sim.Options{Engine: sim.EngineComp})
		if err != nil {
			// Run-failure parity: the artifact path must not run what the
			// event engine rejects, nor vice versa.
			if gotErr == nil {
				t.Fatalf("%s %v: artifact ran where event failed: %v", expr, order, err)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%s %v: artifact run failed where event ran: %v", expr, order, gotErr)
		}
		if err := tensor.IdenticalBits(ref.Output, got.Output); err != nil {
			t.Fatalf("%s %v: artifact output differs from event: %v", expr, order, err)
		}
	})
}
