// Package kmeans implements K-means clustering with k-means++ seeding, used
// by the Profile Constructor to merge call sites with similar transition
// behaviour into shared HMM hidden states (paper §IV-C4).
//
// The RNG is seeded by the caller so that profiles are reproducible.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadInput reports degenerate input.
var ErrBadInput = errors.New("kmeans: bad input")

// Result is a clustering.
type Result struct {
	// K is the number of clusters actually produced (≤ requested when there
	// are fewer distinct points).
	K int
	// Assign maps each input point to its cluster in [0, K).
	Assign []int
	// Centroids holds the K cluster centres.
	Centroids [][]float64
	// Iterations is how many Lloyd rounds ran.
	Iterations int
}

// Cluster partitions points into k clusters. maxIters bounds Lloyd
// iterations (≤0 means 100).
func Cluster(points [][]float64, k int, seed int64, maxIters int) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadInput)
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrBadInput, i, len(p), d)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrBadInput, k)
	}
	if k > n {
		k = n
	}
	if maxIters <= 0 {
		maxIters = 100
	}

	r := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, r)
	k = len(centroids)

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, Assign: assign, Centroids: centroids}

	counts := make([]int, k)
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range points {
			best, bi := math.Inf(1), 0
			for c, cen := range centroids {
				if dd := sqDist(p, cen); dd < best {
					best, bi = dd, c
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		res.Iterations = iter + 1
		if !changed {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				centroids[c][j] += v
			}
		}
		empty := false
		for c := range centroids {
			if counts[c] == 0 {
				empty = true
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
		if empty {
			reseed(points, assign, centroids, counts)
		}
	}
	return res, nil
}

// reseed moves every empty cluster (counts[c] == 0) to the point farthest
// from the centroid of its own cluster, the standard fix for collapse. The
// other centroids must already be means; a point re-seeds at most one
// cluster.
func reseed(points [][]float64, assign []int, centroids [][]float64, counts []int) {
	taken := make([]bool, len(points))
	for c := range centroids {
		if counts[c] != 0 {
			continue
		}
		far, fi := -1.0, -1
		for i, p := range points {
			if taken[i] {
				continue
			}
			if fi < 0 {
				fi = i // kept only if every distance is NaN
			}
			if dd := sqDist(p, centroids[assign[i]]); dd > far {
				far, fi = dd, i
			}
		}
		taken[fi] = true
		copy(centroids[c], points[fi])
	}
}

// seedPlusPlus picks initial centroids by k-means++: each subsequent seed is
// drawn with probability proportional to its squared distance from the
// nearest existing seed. Duplicate points can yield fewer than k seeds.
//
// dists[i] keeps point i's distance to its nearest seed so far, and each
// round folds in only the newest seed, with the strict < that a scan over
// every seed in order would apply, so the draws are the same.
func seedPlusPlus(points [][]float64, k int, r *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clonePoint(points[r.Intn(n)]))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		var total float64
		for i, p := range points {
			if dd := sqDist(p, newest); dd < dists[i] {
				dists[i] = dd
			}
			total += dists[i]
		}
		if total == 0 {
			break // all remaining points coincide with existing seeds
		}
		x := r.Float64() * total
		var acc float64
		pick := n - 1
		for i, dd := range dists {
			acc += dd
			if x < acc {
				pick = i
				break
			}
		}
		centroids = append(centroids, clonePoint(points[pick]))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clonePoint(p []float64) []float64 { return append([]float64(nil), p...) }
