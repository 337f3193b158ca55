package experiments

import "testing"

// TestOptStudy runs the optimizer study at a small scale and checks the
// acceptance properties: every row is bit-identical, block counts never
// grow, and at least two distinct Table 1 kernels show both fewer blocks
// and strictly fewer simulated cycles at O1.
func TestOptStudy(t *testing.T) {
	rows, err := OptStudy(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	improved := map[string]bool{}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s par%d: outputs not bit-identical", r.Kernel, r.Par)
		}
		if r.BlocksO1 > r.BlocksO0 {
			t.Errorf("%s par%d: O1 grew blocks %d -> %d", r.Kernel, r.Par, r.BlocksO0, r.BlocksO1)
		}
		if r.CyclesO1 > r.CyclesO0 {
			t.Errorf("%s par%d: O1 slower: %d vs %d cycles", r.Kernel, r.Par, r.CyclesO1, r.CyclesO0)
		}
		if r.BlocksO1 < r.BlocksO0 && r.CyclesO1 < r.CyclesO0 {
			improved[r.Kernel] = true
		}
	}
	if len(improved) < 2 {
		t.Errorf("only %d kernels improved in both blocks and cycles, want >= 2: %v", len(improved), improved)
	}
	if out := RenderOpt(rows); len(out) == 0 {
		t.Error("empty rendering")
	}
}
