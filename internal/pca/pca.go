// Package pca implements principal component analysis for the Profile
// Constructor's state-reduction step (paper §IV-C4): the sparse
// call-transition vectors (CTVs) are projected to a low dimension before
// K-means clusters similar calls.
//
// Components are found by orthogonal (subspace) iteration on the covariance
// operator applied implicitly through the data matrix, so the d×d covariance
// is never materialised — the bash-scale programs have CTVs of dimension
// 2·(number of call sites) > 1800, where a dense eigensolver would dominate
// the training time the reduction is meant to save.
package pca

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrBadInput reports degenerate input.
var ErrBadInput = errors.New("pca: bad input")

// Result is a fitted projection.
type Result struct {
	// Mean is the per-dimension mean removed before projection.
	Mean []float64
	// Components holds k orthonormal principal directions, each of length d.
	Components [][]float64
	// Eigenvalues are the corresponding covariance eigenvalues, descending.
	Eigenvalues []float64
}

// K returns the number of fitted components.
func (r *Result) K() int { return len(r.Components) }

// Fit computes the top-k principal components of data (rows are samples).
// k is clamped to min(d, samples). Each iteration's k covariance products
// run on up to GOMAXPROCS goroutines.
func Fit(data [][]float64, k int) (*Result, error) {
	return fit(data, k, runtime.GOMAXPROCS(0))
}

func fit(data [][]float64, k, workers int) (*Result, error) {
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

	// nz[r] lists the columns where row r is non-zero: CTVs are sparse.
	nz := make([][]int, m)
	for r, row := range data {
		for j, v := range row {
			if v != 0 {
				nz[r] = append(nz[r], j)
			}
		}
	}

	// covTimes computes (1/m)·Xcᵀ·(Xc·q) for one column q without forming
	// the covariance. Each row's dot with q runs over the row's non-zero
	// entries only, in ascending order. That is the dense dot bit for bit
	// when q is finite: a zero entry adds ±0, and the running sum, which
	// starts at +0, is never −0, so adding ±0 leaves it unchanged.
	covTimes := func(q []float64) []float64 {
		out := make([]float64, d)
		mq := dot(mean, q)
		for r, row := range data {
			var rq float64
			for _, j := range nz[r] {
				rq += row[j] * q[j]
			}
			c := rq - mq
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
		// The k products are independent: each is computed whole by one
		// goroutine, which walks the rows in order.
		z := make([][]float64, k)
		each(workers, k, func(i int) { z[i] = covTimes(q[i]) })
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

// Transform projects rows onto the fitted components.
func (r *Result) Transform(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	mproj := make([]float64, r.K())
	for i, c := range r.Components {
		mproj[i] = dot(r.Mean, c)
	}
	for i, row := range data {
		p := make([]float64, r.K())
		for c, comp := range r.Components {
			p[c] = dot(row, comp) - mproj[c]
		}
		out[i] = p
	}
	return out
}

// each calls fn(i) for every i in [0, count), handing the indices out to up
// to workers goroutines and returning once all calls have.
func each(workers, count int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, count) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < count; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// orthonormalize runs modified Gram–Schmidt in place; rows that collapse to
// zero are replaced with fresh deterministic noise and re-orthogonalised.
func orthonormalize(rows [][]float64) {
	r := rand.New(rand.NewSource(2))
	for i := range rows {
		for j := 0; j < i; j++ {
			c := dot(rows[i], rows[j])
			for x := range rows[i] {
				rows[i][x] -= c * rows[j][x]
			}
		}
		n := math.Sqrt(dot(rows[i], rows[i]))
		if n < 1e-12 {
			for x := range rows[i] {
				rows[i][x] = r.NormFloat64()
			}
			for j := 0; j < i; j++ {
				c := dot(rows[i], rows[j])
				for x := range rows[i] {
					rows[i][x] -= c * rows[j][x]
				}
			}
			n = math.Sqrt(dot(rows[i], rows[i]))
			if n < 1e-12 {
				n = 1
			}
		}
		for x := range rows[i] {
			rows[i][x] /= n
		}
	}
}
