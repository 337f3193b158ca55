package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmokeParallelJSON runs the parallel experiment at a tiny scale and
// golden-checks the -json output shape.
func TestSmokeParallelJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "parallel", "-scale", "0.05", "-par", "1,2,4", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var records []jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(records) != 1 || records[0].Experiment != "parallel" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Scale != 0.05 || records[0].CPUs < 1 || records[0].GoMaxProcs < 1 {
		t.Errorf("record metadata = %+v", records[0])
	}
	rows, ok := records[0].Data.([]any)
	if !ok {
		t.Fatalf("data is %T, want a row list", records[0].Data)
	}
	// 3 kernels x 3 lane counts.
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("row is %T", rows[0])
	}
	for _, field := range []string{"kernel", "lanes", "cycles", "speedup_vs_1"} {
		if _, ok := row[field]; !ok {
			t.Errorf("row missing field %q: %v", field, row)
		}
	}
}

// TestSmokeTextOutput checks the plain text rendering of a small experiment.
func TestSmokeTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "fig12", "-scale", "0.05"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Figure 12", "Index order", "ijk", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRetiredServingExperiments pins the removal of the HTTP serving
// studies: the fixed benchmark in ladder/ measures the serving stack, so each
// retired name fails like any unknown experiment and the diagnostic lists the
// experiments that remain.
func TestRetiredServingExperiments(t *testing.T) {
	for _, name := range []string{"serve", "throughput", "obs", "state", "shard"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain([]string{"-exp", name}, &stdout, &stderr); code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if want := strings.Join(all, ", "); !strings.Contains(stderr.String(), want) {
				t.Errorf("diagnostic %q does not list the valid experiments %q", stderr.String(), want)
			}
		})
	}
}

// TestParFlagRequiresParallelExperiment checks the flag-combination
// validation: -par without the parallel experiment fails up front.
func TestParFlagRequiresParallelExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-exp", "table1", "-par", "2"}, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0, want failure")
	}
	if !strings.Contains(stderr.String(), "parallel") {
		t.Errorf("diagnostic %q does not name the parallel experiment", stderr.String())
	}
	// With the parallel experiment in the list the combination is legal.
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-exp", "parallel", "-scale", "0.05", "-par", "1,2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}

// TestSmokeBadFlags checks the error paths exit nonzero without panicking.
func TestSmokeBadFlags(t *testing.T) {
	cases := [][]string{
		{"-exp", "nope"},
		{"-exp", "parallel", "-par", "0"},
		{"-exp", "parallel", "-par", "x"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("args %v: no diagnostic on stderr", args)
		}
	}
}

// TestEngineFlagRemoved pins the removal of -engine: every experiment runs
// on the event engine, the one engine with a cycle model, so the flag is
// gone and the retired engine names are rejected as an undefined flag.
func TestEngineFlagRemoved(t *testing.T) {
	for _, eng := range []string{"event", "naive", "flow", "byte"} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-exp", "table1", "-engine", eng}, &stdout, &stderr); code != 2 {
			t.Errorf("-engine %s: exit %d, want 2 (undefined flag)", eng, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: -engine") {
			t.Errorf("-engine %s: diagnostic %q does not name the undefined flag", eng, stderr.String())
		}
	}
}

func TestParseLanes(t *testing.T) {
	lanes, err := parseLanes("1, 2,8")
	if err != nil || len(lanes) != 3 || lanes[0] != 1 || lanes[1] != 2 || lanes[2] != 8 {
		t.Errorf("parseLanes = %v, %v", lanes, err)
	}
	if lanes, err := parseLanes(""); err != nil || lanes != nil {
		t.Errorf("empty spec = %v, %v", lanes, err)
	}
}
