package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sam/internal/tensor"
)

// TestCatalogMatchesBenchmarkJSON holds the metric names and units the
// program reports to those BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  map[string]string
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", c.what, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if u, ok := c.got[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s has unit %q in the program, %q in BENCHMARK.json", c.what, m.Name, u, m.Unit)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input should read 0")
	}
}

func TestRateScalesEachEpochBySpeed(t *testing.T) {
	// Every epoch completes 10 operations in one second; half the epochs
	// ran on a machine twice as fast, so scaled they count as 5 per second.
	r := loopResult{busy: make([]time.Duration, epochs), speed: make([]float64, epochs)}
	for e := 0; e < epochs; e++ {
		r.busy[e] = time.Second
		r.speed[e] = 1
		if e%2 == 0 {
			r.speed[e] = 2
		}
		for i := 0; i < 10; i++ {
			r.ops = append(r.ops, opRecord{epoch: e, lat: 100 * time.Millisecond})
		}
	}
	if got := r.throughput(false); got != 10 {
		t.Errorf("raw throughput = %v, want 10", got)
	}
	if got := r.throughput(true); got != 7.5 {
		t.Errorf("scaled throughput = %v, want the median of 5 and 10, 7.5", got)
	}
	if got := percentile(r.latencies("", true), 0.9); got != 200 {
		t.Errorf("scaled p90 latency = %v ms, want 200", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: -1, StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, DurNS: 30},
		{ID: 3, Parent: 1, StartNS: 30, DurNS: 30}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNS: 90, DurNS: 50}, // runs past its parent
	}
	self := selfNS(spans)
	if self[1] != 100-50-10 {
		t.Errorf("self(1) = %d, want 40", self[1])
	}
	if self[2] != 30 {
		t.Errorf("self(2) = %d, want 30", self[2])
	}
}

func TestCheckOutput(t *testing.T) {
	want := tensor.NewCOO("y", 3)
	want.Append(2, 0)
	want.Append(4, 2)
	got := tensor.NewCOO("y", 3)
	got.Append(4, 2)
	got.Append(0, 1) // explicit zeros are absent values
	got.Append(2, 0)
	if err := checkOutput(got, want, 0); err != nil {
		t.Errorf("equal tensors: %v", err)
	}
	got.Pts[0].Val = 4.5
	if checkOutput(got, want, 0) == nil {
		t.Error("a changed value passed the check")
	}
	if checkOutput(got, want, 0.2) != nil {
		t.Error("a change within tolerance failed the check")
	}
}
