package optimize

import (
	"math"
	"sort"
	"testing"
)

// refRun is NelderMead.run as it stood before its vectors were
// preallocated — sort.Slice over the vertices, a fresh slice per
// reflection, expansion and contraction — verbatim. The production
// descent must evaluate exactly the same points in the same order.
func refRun(nm *NelderMead, bud *budget, b Bounds, start []float64) {
	dim := b.Dim()
	step := nm.InitialStep
	if step <= 0 {
		step = 0.1
	}
	tol := nm.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}

	type vertex struct {
		x []float64
		v float64
	}
	simplex := make([]vertex, dim+1)
	base := b.Clamp(append([]float64(nil), start...))
	simplex[0] = vertex{x: base, v: bud.eval(base)}
	for i := 0; i < dim; i++ {
		x := append([]float64(nil), base...)
		x[i] += step * (b.Hi[i] - b.Lo[i])
		b.Clamp(x)
		if x[i] == base[i] { // clamped back onto the start: step the other way
			x[i] -= step * (b.Hi[i] - b.Lo[i])
			b.Clamp(x)
		}
		simplex[i+1] = vertex{x: x, v: bud.eval(x)}
		if bud.exhausted() {
			return
		}
	}

	centroid := make([]float64, dim)
	for !bud.exhausted() {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
		if simplex[dim].v-simplex[0].v < tol {
			return
		}
		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, xv := range simplex[i].x {
				centroid[j] += xv
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}
		worst := simplex[dim]

		reflected := refAffine(centroid, worst.x, -nmReflect)
		b.Clamp(reflected)
		rv := bud.eval(reflected)
		switch {
		case rv < simplex[0].v:
			// Try to expand further along the same direction.
			expanded := refAffine(centroid, worst.x, -nmExpand)
			b.Clamp(expanded)
			ev := bud.eval(expanded)
			if ev < rv {
				simplex[dim] = vertex{expanded, ev}
			} else {
				simplex[dim] = vertex{reflected, rv}
			}
		case rv < simplex[dim-1].v:
			simplex[dim] = vertex{reflected, rv}
		default:
			// Contract toward the centroid.
			contracted := refAffine(centroid, worst.x, nmContract)
			b.Clamp(contracted)
			cv := bud.eval(contracted)
			if cv < worst.v {
				simplex[dim] = vertex{contracted, cv}
			} else {
				// Shrink the whole simplex toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + nmShrink*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = bud.eval(simplex[i].x)
					if bud.exhausted() {
						return
					}
				}
			}
		}
	}
}

func refAffine(c, x []float64, t float64) []float64 {
	out := make([]float64, len(c))
	for j := range out {
		out[j] = c[j] + t*(x[j]-c[j])
	}
	return out
}

// recording wraps an objective and keeps every point it was asked for.
func recording(obj Objective, visited *[][]float64) Objective {
	return func(x []float64) float64 {
		*visited = append(*visited, append([]float64(nil), x...))
		return obj(x)
	}
}

// terraced has wide plateaus, so vertices tie and the ordering of equal
// values decides which vertex is "worst".
func terraced(x []float64) float64 {
	var s float64
	for i, v := range x {
		s += math.Floor(8*math.Abs(v-0.1*float64(i%7))) / 8
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i+1 < len(x); i++ {
		a, b := x[i+1]-x[i]*x[i], 1-x[i]
		s += 100*a*a + b*b
	}
	return s
}

// TestNelderMeadVisitsSamePoints runs the production descent and the
// reference from the same start over smooth, multimodal and plateaued
// objectives, from 1 dimension to beyond sort's insertion-sort
// threshold (12 elements), and compares every evaluated point with ==.
func TestNelderMeadVisitsSamePoints(t *testing.T) {
	objectives := map[string]Objective{
		"rosenbrock": rosenbrock,
		"rastrigin":  func(x []float64) float64 { return rastrigin(x) },
		"terraced":   terraced,
	}
	for name, obj := range objectives {
		for _, dim := range []int{1, 2, 3, 5, 11, 12, 16} {
			b := UnitBounds(dim)
			start := make([]float64, dim)
			for i := range start {
				start[i] = 0.95 - 0.9*float64(i)/float64(dim) // first coordinates near the upper bound: the step flips
			}
			opt := Options{MaxEvaluations: 400 * dim}
			nm := &NelderMead{}

			var got, want [][]float64
			bud := newBudget(recording(obj, &got), dim, opt)
			nm.run(bud, b, start)
			refBud := newBudget(recording(obj, &want), dim, opt)
			refRun(nm, refBud, b, start)

			if len(got) != len(want) {
				t.Fatalf("%s dim %d: %d evaluations, reference %d", name, dim, len(got), len(want))
			}
			for k := range want {
				for j := range want[k] {
					if got[k][j] != want[k][j] {
						t.Fatalf("%s dim %d: evaluation %d is %v, reference %v", name, dim, k, got[k], want[k])
					}
				}
			}
			gr, wr := bud.result(), refBud.result()
			if gr.Value != wr.Value || gr.Evaluations != wr.Evaluations {
				t.Fatalf("%s dim %d: result %v after %d, reference %v after %d", name, dim, gr.Value, gr.Evaluations, wr.Value, wr.Evaluations)
			}
			for j := range wr.X {
				if gr.X[j] != wr.X[j] {
					t.Fatalf("%s dim %d: best point %v, reference %v", name, dim, gr.X, wr.X)
				}
			}
		}
	}
}
