package hmm

// This file defines the canonical forward-step arithmetic shared by every
// scoring path in the package: Model.LogProb (the readable batch reference),
// Scorer.LogProb (flat batch kernel), and StreamScorer (incremental sliding
// windows). "Bit-identical" across those paths is a hard API guarantee, so the
// rounding order is pinned here once and replayed everywhere, including the
// amd64 vector kernels:
//
//   - The dot product feeding each destination state j reduces over the
//     predecessor states i in strictly ascending order with a single
//     accumulator, as an unfused multiply-then-add chain. Vector kernels keep
//     this order by vectorising across j (one lane per destination state),
//     never across i. The fused group step (stepGroup) shares each slab
//     load among up to groupMax windows but never an accumulator, so every
//     window keeps its own chain.
//   - The scale factor is an 8-lane blocked sum: element v[j] lands in lane
//     j mod 8, lanes are folded by the fixed tree reduceLanes. This is
//     exactly what one 512-bit accumulator register produces, and the scalar
//     paths replay it lane by lane.
//   - Normalisation multiplies by inv = 1/scale (one rounding for the
//     reciprocal, one per element), elementwise and therefore order-free.
//
// All inputs are probabilities (non-negative), so padding a lane with +0.0
// adds exactly zero and the blocked sum is well defined for any n. The Scorer
// exploits this by padding its slabs to np = roundup16(n) destination states
// with all-zero transition/emission columns: padded lanes contribute exactly
// nothing to any dot or scale sum, so the vector kernels run unmasked
// full-width blocks with no tail cases.
//
// Baum–Welch training (Model.reestimate, train.go) pins its order to the
// textbook recurrences instead, and its kernels keep it the same way: each
// lane is one unfused sequential chain of the Go level's loop, and no chain
// is ever split across lanes.
//
//   - Backward sweep (backward): one lane per source state i over the padded
//     transposed slab; the lane sums (A[i][j]·b_j)·β_{t+1}[j] over
//     destination states j in ascending order, then divides by the step's
//     scale.
//   - ξ normalisers (xiNorms): one lane per step, up to xiLanes steps of a
//     sequence at once over transposed n×xiLanes blocks; the lane sums
//     ((α_t[i]·A[i][j])·b_j)·β_{t+1}[j] over (i, j) in ascending row-major
//     order.
//   - ξ sums (xiAccum): one lane per destination state j; each term
//     (((α_t[i]·A[i][j])·b_j)·β_{t+1}[j]) / ξnorm is a true division, added
//     to aNum[i][j] step by step, for every row with α_t[i] ≠ 0.
//
// Padded lanes there may hold Inf or NaN (β of a zero-probability window),
// so they are kept out of every live chain rather than relied on to add
// zero: backward and xiAccum store them only into padded outputs, and
// xiNorms reads live states only.

const scaleLanes = 8

// reduceLanes folds the 8 lane partials with the fixed tree
// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) — the sequence a 512-bit register
// reduction produces (fold high half, fold high quarter, fold pair).
func reduceLanes(s *[scaleLanes]float64) float64 {
	t0 := s[0] + s[4]
	t1 := s[1] + s[5]
	t2 := s[2] + s[6]
	t3 := s[3] + s[7]
	u0 := t0 + t2
	u1 := t1 + t3
	return u0 + u1
}

// lanedSum is the canonical scale sum of v: lane j mod 8 accumulates v[j] in
// ascending j, then reduceLanes folds the lanes.
func lanedSum(v []float64) float64 {
	var s [scaleLanes]float64
	for j, x := range v {
		s[j&7] += x
	}
	return reduceLanes(&s)
}

// emitScale applies the emission column to a vector of transition dots
// (next[j] *= bcol[j]) and returns the canonical laned scale sum of the
// result.
func emitScale(next, bcol []float64) float64 {
	var s [scaleLanes]float64
	for j := range next {
		v := next[j] * bcol[j]
		next[j] = v
		s[j&7] += v
	}
	return reduceLanes(&s)
}

// forwardDotsGo computes next[j] = Σ_i alpha[i]·at[j*np+i] for every
// destination state j, walking the transposed transition slab so the inner
// reduction is contiguous. Reduction order per j is the canonical ascending-i
// chain.
func forwardDotsGo(alpha, at, next []float64, n, np int) {
	for j := 0; j < n; j++ {
		row := at[j*np : j*np+n : j*np+n]
		var s float64
		for i, a := range alpha {
			s += a * row[i]
		}
		next[j] = s
	}
}

// step advances one normalised forward vector by one observation:
// next = (alphaᵀA) ∘ bcol, returning the canonical scale sum. It dispatches
// to the best kernel the CPU supports; every kernel produces bit-identical
// results by construction (see the canonical-order contract above).
//
// alpha must hold at least n live entries; bcol is a padded emission column
// (np entries) and next must have room for np entries — the vector kernels
// store zeros into the padded lanes, the scalar path leaves them untouched,
// and no caller reads past n.
func (s *Scorer) step(alpha, bcol, next []float64) float64 {
	switch kernelLevel {
	case kernelAVX512:
		return dotEmitScaleAVX512(&alpha[0], &s.a[0], &bcol[0], &next[0], s.n, s.np)
	case kernelAVX2:
		forwardDotsAVX2(&alpha[0], &s.a[0], &next[0], s.n, s.np)
		return emitScale(next[:s.n], bcol)
	default:
		forwardDotsGo(alpha[:s.n], s.at, next, s.n, s.np)
		return emitScale(next[:s.n], bcol)
	}
}

// groupMax is the most windows one fused step advances together: four
// windows of two 8-lane accumulators each, their broadcasts and the shared
// slab block fit the 32 AVX-512 vector registers.
const groupMax = 4

// stepGroup advances the g ≤ groupMax normalised forward vectors alphas[0:g]
// by one observation. Per window the arithmetic is step followed by the
// normalisation alpha = next·(1/scale), so every window keeps the canonical
// order; scales[w] receives window w's scale sum, and a window whose sum is
// zero is left unnormalised for the caller to retire. next is scratch of
// groupMax·np entries. On AVX-512 a group of two or more shares one pass
// over the slab (fusedStepAVX512); a lone window, and every window on the
// other levels, runs step and normalise.
func (s *Scorer) stepGroup(alphas *[groupMax][]float64, g int, bcol, next []float64, scales *[groupMax]float64) {
	if kernelLevel == kernelAVX512 && g > 1 {
		var p [groupMax]*float64
		for w := 0; w < g; w++ {
			p[w] = &alphas[w][0]
		}
		fusedStepAVX512(&p, &s.a[0], &bcol[0], &next[0], scales, g, s.n, s.np)
		return
	}
	for w := 0; w < g; w++ {
		nw := next[w*s.np : (w+1)*s.np]
		scale := s.step(alphas[w], bcol, nw)
		scales[w] = scale
		if scale != 0 {
			normalise(alphas[w], nw, scale)
		}
	}
}

// normalise stores next·(1/scale) into alpha: one rounding for the
// reciprocal and one per element, as every scoring path normalises.
func normalise(alpha, next []float64, scale float64) {
	inv := 1 / scale
	for j := range alpha {
		alpha[j] = next[j] * inv
	}
}

// Kernel dispatch levels. kernelLevel is fixed at init from CPU feature
// detection; tests override it to cross-check the paths against each other.
const (
	kernelGo = iota
	kernelAVX2
	kernelAVX512
)

// KernelName reports which scoring kernel the CPU feature detection selected
// for this process ("go", "avx2", or "avx512") — build-info provenance for
// metrics and bug reports, since the dispatch is fixed at init.
func KernelName() string {
	switch kernelLevel {
	case kernelAVX512:
		return "avx512"
	case kernelAVX2:
		return "avx2"
	default:
		return "go"
	}
}
