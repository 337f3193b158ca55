package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sam/internal/serve"
	"sam/internal/tensor"
)

// intTensor draws a tensor with exactly nnz distinct nonzeros valued 1..9,
// sorted. Integer values keep every sum exact, so engine outputs must equal
// lang.Gold bit for bit.
func intTensor(rng *rand.Rand, name string, nnz int, dims ...int) *tensor.COO {
	t := tensor.UniformRandom(name, rng, nnz, dims...)
	tensor.QuantizeInts(rng, 9, t)
	t.Sort()
	return t
}

// toWire renders a tensor in the service's COO wire format.
func toWire(t *tensor.COO) serve.WireTensor {
	w := serve.WireTensor{Dims: t.Dims, Values: make([]float64, len(t.Pts))}
	if t.Order() > 0 {
		w.Coords = make([][]int64, len(t.Pts))
	}
	for i, p := range t.Pts {
		w.Values[i] = p.Val
		if t.Order() > 0 {
			w.Coords[i] = p.Crd
		}
	}
	return w
}

// fromWire converts a wire tensor back, without the service's validation.
func fromWire(w serve.WireTensor) *tensor.COO {
	t := tensor.NewCOO("out", w.Dims...)
	for i, v := range w.Values {
		var crd []int64
		if i < len(w.Coords) {
			crd = w.Coords[i]
		}
		t.Append(v, crd...)
	}
	return t
}

// checkOutput compares got against the reference want, which must be sorted
// with zeros dropped (lang.Gold's form). Values agree when they differ by at
// most tol relative to the reference; tol 0 demands exact equality.
func checkOutput(got, want *tensor.COO, tol float64) error {
	if !slices.Equal(got.Dims, want.Dims) {
		return fmt.Errorf("dims %v, want %v", got.Dims, want.Dims)
	}
	pts := make([]tensor.Point, 0, len(got.Pts))
	for _, p := range got.Pts {
		if p.Val != 0 {
			pts = append(pts, p)
		}
	}
	slices.SortFunc(pts, func(a, b tensor.Point) int { return slices.Compare(a.Crd, b.Crd) })
	if len(pts) != len(want.Pts) {
		return fmt.Errorf("%d nonzeros, want %d", len(pts), len(want.Pts))
	}
	for i, p := range pts {
		w := want.Pts[i]
		if !slices.Equal(p.Crd, w.Crd) {
			return fmt.Errorf("nonzero %d at %v, want %v", i, p.Crd, w.Crd)
		}
		if math.Abs(p.Val-w.Val) > tol*math.Max(1, math.Abs(w.Val)) {
			return fmt.Errorf("value at %v is %v, want %v", p.Crd, p.Val, w.Val)
		}
	}
	return nil
}
