package hmm

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestScorerModeBasics(t *testing.T) {
	if !ScorerExact.Exact() || ScorerExact.TopK() != 0 || ScorerExact.String() != "exact" {
		t.Errorf("ScorerExact = %+v %q", ScorerExact, ScorerExact.String())
	}
	m := ScorerTopK(8)
	if m.Exact() || m.TopK() != 8 || m.String() != "topk:8" {
		t.Errorf("ScorerTopK(8) = %+v %q", m, m.String())
	}
	if ScorerTopK(3) != ScorerTopK(3) || ScorerTopK(3) == ScorerTopK(4) {
		t.Error("ScorerMode comparability broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("ScorerTopK(0) did not panic")
		}
	}()
	ScorerTopK(0)
}

// sampleObs draws a length-T observation sequence from the model itself —
// the regime detection streams live in, where the bound stays informative.
func sampleObs(m *Model, r *rand.Rand, T int) []int {
	draw := func(dist []float64) int {
		u := r.Float64()
		var c float64
		for i, p := range dist {
			c += p
			if u <= c {
				return i
			}
		}
		return len(dist) - 1
	}
	obs := make([]int, T)
	state := draw(m.Pi)
	obs[0] = draw(m.B[state])
	for t := 1; t < T; t++ {
		state = draw(m.A[state])
		obs[t] = draw(m.B[state])
	}
	return obs
}

// TestTopKErrorWithinBound is the bound-soundness property test: across
// CTM-like near-sparse models, the pruned score never differs from the exact
// score by more than the reported bound. The slack term only absorbs
// floating-point rounding of the two pipelines; the bound itself must do the
// real work. Observations are sampled from the model — on wildly improbable
// streams the relative bound honestly reports itself vacuous (+Inf), which a
// separate tally keeps from hiding a broken bound.
func TestTopKErrorWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(50)
		m := NewRandom(n, 2+r.Intn(10), r.Int63())
		sharpen(m, r)
		m.Smooth(1e-6) // CTM initialisation smooths the same way
		// Pick k the way a user should: small enough to prune, large enough
		// that every row keeps nearly all of its mass. A few trials use an
		// arbitrary k to also exercise the vacuous-bound reporting.
		k := coveringK(m, 1e-4)
		if trial%5 == 0 {
			k = 1 + r.Intn(n)
		}
		sp := m.NewScorerMode(ScorerTopK(k))
		se := m.NewScorer()

		var obs []int
		if trial%4 == 0 {
			obs = make([]int, 2+r.Intn(25))
			for i := range obs {
				obs[i] = r.Intn(m.M)
			}
		} else {
			obs = sampleObs(m, r, 2+r.Intn(25))
		}
		exact, err := se.LogProb(obs)
		if err != nil {
			t.Fatalf("exact LogProb: %v", err)
		}
		approx, bound, err := sp.LogProbBound(obs)
		if err != nil {
			t.Fatalf("pruned LogProbBound: %v", err)
		}
		if math.IsInf(bound, 1) {
			continue // vacuous bound: nothing to check, but must be reported as such
		}
		if math.IsInf(approx, -1) != math.IsInf(exact, -1) {
			t.Fatalf("trial %d: approx=%v exact=%v with finite bound %v", trial, approx, exact, bound)
		}
		if diff := math.Abs(approx - exact); diff > bound+1e-9*(1+math.Abs(exact)) {
			t.Fatalf("trial %d (n=%d k=%d): |approx-exact| = %g exceeds bound %g", trial, n, k, diff, bound)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d informative trials — bound is vacuous too often", checked)
	}
}

// coveringK returns the smallest per-row budget that keeps at least 1-delta
// of every transition row's mass.
func coveringK(m *Model, delta float64) int {
	k := 1
	row := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		copy(row, m.A[i])
		sort.Sort(sort.Reverse(sort.Float64Slice(row)))
		var mass float64
		for j, v := range row {
			mass += v
			if mass >= 1-delta {
				if j+1 > k {
					k = j + 1
				}
				break
			}
		}
	}
	return k
}

// TestTopKStreamBound runs the same property through the incremental
// sliding-window path: every completed window's pruned score must sit within
// LastBound of the exact batch recompute.
func TestTopKStreamBound(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(40)
		m := NewRandom(n, 3+r.Intn(8), r.Int63())
		sharpen(m, r)
		m.Smooth(1e-6)
		k := coveringK(m, 1e-4)
		sp := m.NewScorerMode(ScorerTopK(k))
		se := m.NewScorer()
		w := 3 + r.Intn(10)
		st := sp.NewStream(w)

		obs := sampleObs(m, r, w+30)
		informative := 0
		for i, o := range obs {
			logp, done := st.Push(o)
			if !done {
				continue
			}
			bound := st.LastBound()
			if math.IsInf(bound, 1) {
				continue
			}
			informative++
			exact, err := se.LogProb(obs[i-w+1 : i+1])
			if err != nil {
				t.Fatalf("exact LogProb: %v", err)
			}
			if diff := math.Abs(logp - exact); diff > bound+1e-9*(1+math.Abs(exact)) {
				t.Fatalf("trial %d window@%d (n=%d k=%d): |%v-%v| = %g exceeds bound %g",
					trial, i, n, k, logp, exact, diff, bound)
			}
		}
		if informative == 0 {
			t.Errorf("trial %d (n=%d k=%d): every window bound was vacuous", trial, n, k)
		}
	}
}

// TestTopKFullK: k >= N keeps every entry, so the pruned kernel reproduces
// the exact kernel up to the rounding of the keptMass renormalisation, and
// the reported bound collapses to that rounding level.
func TestTopKFullK(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := NewRandom(20, 6, 1)
	sp := m.NewScorerMode(ScorerTopK(100))
	se := m.NewScorer()
	obs := make([]int, 40)
	for i := range obs {
		obs[i] = r.Intn(m.M)
	}
	approx, bound, err := sp.LogProbBound(obs)
	if err != nil {
		t.Fatal(err)
	}
	if bound > 1e-10 {
		t.Errorf("full-k bound = %v, want ~rounding level", bound)
	}
	exact, _ := se.LogProb(obs)
	if math.Abs(approx-exact) > 1e-9 {
		t.Errorf("full-k approx = %v, exact = %v", approx, exact)
	}
}

// TestExactModeBoundIsZero: exact streams always report a zero bound.
func TestExactModeBoundIsZero(t *testing.T) {
	m := NewRandom(10, 4, 2)
	st := m.NewScorer().NewStream(5)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		if _, done := st.Push(r.Intn(m.M)); done && st.LastBound() != 0 {
			t.Fatalf("exact LastBound = %v", st.LastBound())
		}
	}
}
