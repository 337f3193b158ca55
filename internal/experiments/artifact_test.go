package experiments

import "testing"

// TestArtifactStudy runs the artifact study at a tiny scale and checks the
// acceptance shape: every Table 1 kernel appears at both optimization levels
// with bit-identity proven and non-degenerate timings.
func TestArtifactStudy(t *testing.T) {
	res, err := ArtifactStudy(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(Table1Cases); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d (every kernel at O0 and O1)", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if !r.Identical {
			t.Errorf("%s O%d: outputs not bit-identical", r.Kernel, r.Opt)
		}
		if r.Bytes <= 0 || r.EncodeUS <= 0 || r.DecodeUS <= 0 || r.CompileUS <= 0 {
			t.Errorf("%s O%d: degenerate measurement %+v", r.Kernel, r.Opt, r)
		}
	}
	if res.CPUs <= 0 {
		t.Errorf("cpus = %d", res.CPUs)
	}
	if RenderArtifact(res) == "" {
		t.Error("empty rendering")
	}
}
