package pca

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestFitRecoversDominantDirection(t *testing.T) {
	// Points along (1, 1)/√2 with tiny orthogonal noise: the first component
	// must align with the diagonal.
	r := rand.New(rand.NewSource(3))
	var data [][]float64
	for i := 0; i < 200; i++ {
		tt := r.NormFloat64() * 10
		noise := r.NormFloat64() * 0.01
		data = append(data, []float64{tt + noise, tt - noise})
	}
	res, err := Fit(data, 2)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	c := res.Components[0]
	align := math.Abs(c[0]*1/math.Sqrt2 + c[1]*1/math.Sqrt2)
	if align < 0.999 {
		t.Errorf("first component %v not aligned with diagonal (|cos| = %v)", c, align)
	}
	if res.Eigenvalues[0] < 50*res.Eigenvalues[1] {
		t.Errorf("eigenvalues not separated: %v", res.Eigenvalues)
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := make([][]float64, 60)
	for i := range data {
		row := make([]float64, 10)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		data[i] = row
	}
	res, err := Fit(data, 4)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i := 0; i < res.K(); i++ {
		for j := 0; j < res.K(); j++ {
			got := dot(res.Components[i], res.Components[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > 1e-8 {
				t.Errorf("<c%d, c%d> = %v, want %v", i, j, got, want)
			}
		}
	}
	// Eigenvalues are sorted descending and non-negative (within tolerance).
	for i := 1; i < res.K(); i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-9 {
			t.Errorf("eigenvalues out of order: %v", res.Eigenvalues)
		}
	}
}

func TestTransformCentersData(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	res, err := Fit(data, 1)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	proj := res.Transform(data)
	var mean float64
	for _, p := range proj {
		if len(p) != 1 {
			t.Fatalf("projection dim = %d, want 1", len(p))
		}
		mean += p[0]
	}
	if math.Abs(mean/3) > 1e-9 {
		t.Errorf("projected mean = %v, want 0", mean/3)
	}
}

func TestTransformPreservesVarianceOrdering(t *testing.T) {
	// 3-D data with variance concentrated on axis 0: projecting to 1-D keeps
	// most variance.
	r := rand.New(rand.NewSource(7))
	var data [][]float64
	var rawVar float64
	for i := 0; i < 300; i++ {
		row := []float64{r.NormFloat64() * 5, r.NormFloat64() * 0.3, r.NormFloat64() * 0.2}
		rawVar += row[0] * row[0]
		data = append(data, row)
	}
	res, err := Fit(data, 1)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	proj := res.Transform(data)
	var projVar float64
	for _, p := range proj {
		projVar += p[0] * p[0]
	}
	if projVar < 0.9*rawVar {
		t.Errorf("1-D projection kept %.1f%% of dominant-axis variance", 100*projVar/rawVar)
	}
}

func TestKClamping(t *testing.T) {
	data := [][]float64{{1, 0, 0}, {0, 1, 0}}
	res, err := Fit(data, 10)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if res.K() != 2 { // min(d=3, m=2)
		t.Errorf("K = %d, want 2", res.K())
	}
}

func TestFitErrors(t *testing.T) {
	cases := []struct {
		name string
		data [][]float64
		k    int
	}{
		{"no samples", nil, 2},
		{"zero dim", [][]float64{{}}, 1},
		{"ragged", [][]float64{{1, 2}, {1}}, 1},
		{"bad k", [][]float64{{1, 2}}, 0},
	}
	for _, tc := range cases {
		if _, err := Fit(tc.data, tc.k); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", tc.name, err)
		}
	}
}

func TestConstantDataDoesNotExplode(t *testing.T) {
	data := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	res, err := Fit(data, 1)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	proj := res.Transform(data)
	for _, p := range proj {
		if math.Abs(p[0]) > 1e-9 {
			t.Errorf("constant data projected to %v, want 0", p[0])
		}
	}
}

// fitRef is Fit with dense row dots and the products computed one after
// another, kept as the reference fit must match bit for bit.
func fitRef(data [][]float64, k int) (*Result, error) {
	m := len(data)
	if m == 0 {
		return nil, fmt.Errorf("%w: no samples", ErrBadInput)
	}
	d := len(data[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional samples", ErrBadInput)
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadInput, i, len(row), d)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrBadInput, k)
	}
	if k > d {
		k = d
	}
	if k > m {
		k = m
	}

	mean := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(m)
	}

	// covTimes computes (1/m)·Xcᵀ·(Xc·q) for one column q without forming
	// the covariance.
	covTimes := func(q []float64) []float64 {
		out := make([]float64, d)
		mq := dot(mean, q)
		for _, row := range data {
			c := dot(row, q) - mq
			if c == 0 {
				continue
			}
			for j, v := range row {
				out[j] += c * (v - mean[j])
			}
		}
		inv := 1 / float64(m)
		for j := range out {
			out[j] *= inv
		}
		return out
	}

	// Orthogonal iteration from a deterministic random basis.
	r := rand.New(rand.NewSource(1))
	q := make([][]float64, k)
	for i := range q {
		q[i] = make([]float64, d)
		for j := range q[i] {
			q[i][j] = r.NormFloat64()
		}
	}
	orthonormalize(q)

	const iters = 50
	prev := math.Inf(1)
	var eig []float64
	for it := 0; it < iters; it++ {
		z := make([][]float64, k)
		for i := range q {
			z[i] = covTimes(q[i])
		}
		eig = make([]float64, k)
		for i := range z {
			eig[i] = dot(q[i], z[i])
		}
		orthonormalize(z)
		q = z
		var sum float64
		for _, e := range eig {
			sum += e
		}
		if math.Abs(sum-prev) < 1e-12*(1+math.Abs(sum)) {
			break
		}
		prev = sum
	}

	// Order by eigenvalue, descending.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if eig[order[j]] > eig[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	res := &Result{Mean: mean, Components: make([][]float64, k), Eigenvalues: make([]float64, k)}
	for i, o := range order {
		res.Components[i] = q[o]
		res.Eigenvalues[i] = eig[o]
	}
	return res, nil
}

// TestFitMatchesDenseReference pins fit, with its sparse row dots and its
// products spread over one to four workers, to the dense serial reference
// bit for bit: components and eigenvalues. The inputs are CTV-like sparse
// rows (mostly zeros, some −0, some all-zero rows), dense rows, and k at and
// beyond the clamps.
func TestFitMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type input struct {
		data [][]float64
		k    int
	}
	var inputs []input
	for _, shape := range []struct{ m, d, k int }{{40, 60, 5}, {120, 30, 16}, {25, 8, 8}, {9, 12, 20}, {1, 5, 3}} {
		for _, density := range []float64{0.05, 0.3, 1} {
			data := make([][]float64, shape.m)
			for i := range data {
				row := make([]float64, shape.d)
				if i%7 != 3 {
					for j := range row {
						switch u := r.Float64(); {
						case u < density:
							row[j] = r.NormFloat64()
						case u < density+0.05:
							row[j] = math.Copysign(0, -1)
						}
					}
				}
				data[i] = row
			}
			inputs = append(inputs, input{data, shape.k})
		}
	}
	for n, in := range inputs {
		want, err := fitRef(in.data, in.k)
		if err != nil {
			t.Fatalf("input %d: fitRef: %v", n, err)
		}
		for workers := 1; workers <= 4; workers++ {
			got, err := fit(in.data, in.k, workers)
			if err != nil {
				t.Fatalf("input %d workers %d: fit: %v", n, workers, err)
			}
			if len(got.Components) != len(want.Components) {
				t.Fatalf("input %d workers %d: %d components, want %d", n, workers, len(got.Components), len(want.Components))
			}
			for c := range want.Components {
				if math.Float64bits(got.Eigenvalues[c]) != math.Float64bits(want.Eigenvalues[c]) {
					t.Fatalf("input %d workers %d: eigenvalue %d = %v, want %v", n, workers, c, got.Eigenvalues[c], want.Eigenvalues[c])
				}
				for j := range want.Components[c] {
					if math.Float64bits(got.Components[c][j]) != math.Float64bits(want.Components[c][j]) {
						t.Fatalf("input %d workers %d: component %d[%d] = %v, want %v", n, workers, c, j, got.Components[c][j], want.Components[c][j])
					}
				}
			}
		}
	}
}
