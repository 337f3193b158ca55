package experiments

import "testing"

// TestArtifactStudy runs the artifact study at a tiny scale and checks the
// acceptance shape: every Table 1 kernel appears at both optimization levels
// with bit-identity proven, and every serve point resolved its fresh-server
// request from the warm disk.
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
	if len(res.Serve) == 0 {
		t.Fatal("no serve points")
	}
	for _, p := range res.Serve {
		if p.ColdSetupNS <= 0 || p.DiskSetupNS <= 0 {
			t.Errorf("%s: setup times cold=%d disk=%d", p.Kernel, p.ColdSetupNS, p.DiskSetupNS)
		}
		if p.Cycles != 0 {
			t.Errorf("%s: comp serve point reported %d cycles, want 0", p.Kernel, p.Cycles)
		}
	}
	if res.CPUs <= 0 {
		t.Errorf("cpus = %d", res.CPUs)
	}
	if RenderArtifact(res) == "" {
		t.Error("empty rendering")
	}
}
