package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates three well-separated Gaussian clusters.
func blobs(r *rand.Rand, per int) ([][]float64, []int) {
	centres := [][]float64{{0, 0}, {20, 0}, {0, 20}}
	var pts [][]float64
	var truth []int
	for c, cen := range centres {
		for i := 0; i < per; i++ {
			pts = append(pts, []float64{
				cen[0] + r.NormFloat64(),
				cen[1] + r.NormFloat64(),
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestClusterSeparatesBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts, truth := blobs(r, 40)
	res, err := Cluster(pts, 3, 7, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	// Every ground-truth blob must map to exactly one cluster.
	mapping := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := mapping[truth[i]]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, c)
		}
		mapping[truth[i]] = c
	}
	if len(mapping) != 3 {
		t.Errorf("blobs mapped to %d clusters", len(mapping))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts, _ := blobs(r, 30)
	a, err := Cluster(pts, 3, 42, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	b, err := Cluster(pts, 3, 42, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestKLargerThanPoints(t *testing.T) {
	pts := [][]float64{{1}, {2}}
	res, err := Cluster(pts, 10, 1, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.K != 2 {
		t.Errorf("K = %d, want 2", res.K)
	}
}

func TestDuplicatePointsCollapseSeeds(t *testing.T) {
	pts := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res, err := Cluster(pts, 3, 1, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.K != 1 {
		t.Errorf("K = %d, want 1 for identical points", res.K)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Errorf("Assign = %v", res.Assign)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Cluster(nil, 2, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty input err = %v", err)
	}
	if _, err := Cluster([][]float64{{1}, {1, 2}}, 2, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("ragged input err = %v", err)
	}
	if _, err := Cluster([][]float64{{1}}, 0, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("k=0 err = %v", err)
	}
}

// TestAssignmentsAreNearestCentroid is the K-means invariant: after
// convergence every point belongs to its nearest centroid.
func TestAssignmentsAreNearestCentroid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts, _ := blobs(r, 15)
		res, err := Cluster(pts, 4, seed, 0)
		if err != nil {
			return false
		}
		for i, p := range pts {
			best, bi := math.Inf(1), -1
			for c, cen := range res.Centroids {
				if dd := sqDist(p, cen); dd < best {
					best, bi = dd, c
				}
			}
			if bi != res.Assign[i] {
				// Allow exact ties between centroids.
				if sqDist(p, res.Centroids[res.Assign[i]]) != best {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllPointsAssignedInRange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts, _ := blobs(r, 25)
	res, err := Cluster(pts, 5, 3, 0)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(res.Assign) != len(pts) {
		t.Fatalf("Assign length %d != points %d", len(res.Assign), len(pts))
	}
	for i, a := range res.Assign {
		if a < 0 || a >= res.K {
			t.Errorf("point %d assigned to %d (K=%d)", i, a, res.K)
		}
	}
}

// seedPlusPlusRef is the k-means++ seeding that rescans every chosen seed
// for every point on each round, kept as the reference seedPlusPlus must
// match draw for draw.
func seedPlusPlusRef(points [][]float64, k int, r *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clonePoint(points[r.Intn(n)]))
	dists := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if dd := sqDist(p, c); dd < best {
					best = dd
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			break
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

// TestSeedPlusPlusMatchesReference pins the running-minimum seeding to the
// rescanning reference: the same seeds bit for bit, and the same number of
// draws from the RNG, over random points, points with many duplicates
// (ties, and seeds that run out early when total reaches 0), all-identical
// points, and points with a NaN or infinite coordinate.
func TestSeedPlusPlusMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var cases [][][]float64
	for range 40 {
		n, d := 1+r.Intn(60), 1+r.Intn(5)
		distinct := 1 + r.Intn(n)
		pts := make([][]float64, n)
		for i := range pts {
			if i >= distinct {
				pts[i] = pts[r.Intn(distinct)]
				continue
			}
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = float64(r.Intn(4)) + r.NormFloat64()*float64(r.Intn(2))
			}
		}
		cases = append(cases, pts)
	}
	cases = append(cases,
		[][]float64{{5, 5}, {5, 5}, {5, 5}},
		[][]float64{{0}, {1}, {math.NaN()}, {2}, {1}},
		[][]float64{{0}, {math.Inf(1)}, {1}, {3}},
	)
	for ci, pts := range cases {
		for _, k := range []int{1, 2, 3, 7, len(pts)} {
			seed := r.Int63()
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			gc, wc := seedPlusPlus(pts, k, got), seedPlusPlusRef(pts, k, want)
			if len(gc) != len(wc) {
				t.Fatalf("case %d k=%d: %d seeds, want %d", ci, k, len(gc), len(wc))
			}
			for c := range wc {
				for j := range wc[c] {
					if math.Float64bits(gc[c][j]) != math.Float64bits(wc[c][j]) {
						t.Fatalf("case %d k=%d: seed %d = %v, want %v", ci, k, c, gc[c], wc[c])
					}
				}
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("case %d k=%d: the RNG advanced differently", ci, k)
			}
		}
	}
}

// TestClusterReseedsFromFinishedMeans stops Lloyd's loop right after the
// round in which cluster 0 of this input empties. Clusters 1 and 2 have
// means 8⅓ and 2¼, and the point farthest from its own cluster's mean is
// 0, so cluster 0 must be re-seeded there. (Reading clusters 1 and 2 before
// their sums became means chose 8 instead, a point at the heart of a
// cluster.)
func TestClusterReseedsFromFinishedMeans(t *testing.T) {
	pts := [][]float64{{8}, {3}, {9}, {8}, {4}, {0}, {2}}
	res, err := Cluster(pts, 3, 5806044526392641254, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	want := []int{1, 2, 1, 1, 2, 2, 2}
	for i := range want {
		if res.Assign[i] != want[i] {
			t.Fatalf("Assign = %v, want %v (the input no longer empties cluster 0)", res.Assign, want)
		}
	}
	if got := res.Centroids[0][0]; got != 0 {
		t.Errorf("empty cluster 0 re-seeded at %v, want 0", got)
	}
	if got := res.Centroids[1][0]; math.Abs(got-25.0/3) > 1e-12 {
		t.Errorf("cluster 1 centroid %v, want 8⅓", got)
	}
}

// TestReseedTakesDistinctPoints empties two clusters at once: they must go
// to the farthest and the second-farthest point from their clusters' means,
// not both to the farthest.
func TestReseedTakesDistinctPoints(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}, {11}, {19}}
	assign := []int{0, 0, 0, 3, 3, 3}
	centroids := [][]float64{{1}, {-1}, {-1}, {40.0 / 3}}
	counts := []int{3, 0, 0, 3}
	reseed(pts, assign, centroids, counts)
	if centroids[1][0] != 19 || centroids[2][0] != 10 {
		t.Fatalf("empty clusters re-seeded at %v and %v, want 19 and 10", centroids[1][0], centroids[2][0])
	}
	if centroids[0][0] != 1 || centroids[3][0] != 40.0/3 {
		t.Fatalf("non-empty centroids moved: %v", centroids)
	}
}
