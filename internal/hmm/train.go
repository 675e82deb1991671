package hmm

import (
	"context"
	"fmt"
	"math"
	"runtime"
)

// TrainOptions tune Baum–Welch.
type TrainOptions struct {
	// MaxIters bounds re-estimation rounds (default 30).
	MaxIters int
	// Tol is the minimum per-iteration improvement of the average training
	// log-likelihood to continue (default 1e-4).
	Tol float64
	// Holdout is the paper's converge sub-dataset (CSDS, §V-B): when set,
	// training stops as soon as an iteration fails to improve the average
	// holdout log-likelihood, independent of training progress.
	Holdout [][]int
	// SmoothFloor is the probability floor applied after each iteration
	// (default 1e-6).
	SmoothFloor float64
	// PriorWeight, when positive, makes re-estimation MAP instead of ML: the
	// model's pre-training parameters act as a Dirichlet prior with this
	// pseudo-count mass per row. For CTM-initialised models this is the
	// mechanism that preserves statically known-feasible transitions that
	// the (possibly subsampled) trace corpus never exercised — without it,
	// one Baum–Welch pass drives every unexercised legitimate path to the
	// smoothing floor and the detector flags it forever.
	PriorWeight float64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxIters <= 0 {
		o.MaxIters = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.SmoothFloor <= 0 {
		o.SmoothFloor = 1e-6
	}
	return o
}

// TrainResult reports a training run.
type TrainResult struct {
	// Iterations actually executed.
	Iterations int
	// TrainLogLik is the average training log-likelihood after each
	// iteration.
	TrainLogLik []float64
	// HoldoutLogLik parallels TrainLogLik when a holdout was supplied.
	HoldoutLogLik []float64
	// StoppedByHoldout reports whether the CSDS criterion ended training.
	StoppedByHoldout bool
}

// Train runs multi-sequence Baum–Welch re-estimation in place.
func (m *Model) Train(seqs [][]int, opts TrainOptions) (*TrainResult, error) {
	return m.TrainContext(context.Background(), seqs, opts)
}

// TrainContext is Train with cancellation: the context is checked before
// every re-estimation iteration, and a cancelled run returns ctx.Err()
// (wrapped) with the model left at its last completed iteration.
func (m *Model) TrainContext(ctx context.Context, seqs [][]int, opts TrainOptions) (*TrainResult, error) {
	opts = opts.withDefaults()
	var nonEmpty [][]int
	for _, s := range seqs {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	if len(nonEmpty) == 0 {
		return nil, ErrNoData
	}
	for _, s := range nonEmpty {
		for _, o := range s {
			if o < 0 || o >= m.M {
				return nil, fmt.Errorf("%w: %d (M=%d)", ErrSymbols, o, m.M)
			}
		}
	}
	m.Smooth(opts.SmoothFloor)

	var prior *Model
	if opts.PriorWeight > 0 {
		prior = m.Clone()
	}

	c := newCrew(runtime.GOMAXPROCS(0))
	defer c.stop()
	e := newEStep(nonEmpty, m.N, c)
	res := &TrainResult{}
	prevTrain := math.Inf(-1)
	bestHold := math.Inf(-1)
	holdBad := 0

	for iter := 0; iter < opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("hmm: training cancelled after %d iterations: %w", res.Iterations, err)
		}
		trainLL := m.reestimate(e, prior, opts.PriorWeight)
		m.Smooth(opts.SmoothFloor)
		res.Iterations = iter + 1
		res.TrainLogLik = append(res.TrainLogLik, trainLL)

		if len(opts.Holdout) > 0 {
			holdLL := m.avgLogProb(opts.Holdout, c)
			res.HoldoutLogLik = append(res.HoldoutLogLik, holdLL)
			// CSDS stopping with patience: a single noisy dip must not end
			// training while the model is still far from converged, so stop
			// only after two consecutive non-improving iterations (and never
			// before the third iteration).
			if holdLL > bestHold+1e-9 {
				bestHold = holdLL
				holdBad = 0
			} else {
				holdBad++
				if holdBad >= 2 && iter >= 2 {
					res.StoppedByHoldout = true
					return res, nil
				}
			}
		}
		if trainLL-prevTrain < opts.Tol && iter > 0 {
			return res, nil
		}
		prevTrain = trainLL
	}
	return res, nil
}

// Retrain is the warm-start entry point for online profile refresh: it
// trains a COPY of the model on seqs and returns it, leaving the receiver —
// which may be serving live detection through shared Scorer snapshots —
// untouched. The copy starts from the current parameters, and unless the
// caller overrides PriorWeight the current model also acts as the MAP prior,
// so behaviour that recent traffic no longer exercises decays gracefully
// toward the prior instead of collapsing to the smoothing floor after one
// re-estimation pass. The receiver's provenance (its original CTM
// initialisation and earlier training) is thereby chained through every
// retraining round.
func (m *Model) Retrain(ctx context.Context, seqs [][]int, opts TrainOptions) (*Model, *TrainResult, error) {
	if opts.PriorWeight == 0 {
		opts.PriorWeight = 2
	}
	next := m.Clone()
	res, err := next.TrainContext(ctx, seqs, opts)
	if err != nil {
		return nil, res, err
	}
	return next, res, nil
}

// avgLogProb returns the mean log-likelihood over sequences, scored through
// a snapshot Scorer: bit-identical to Model.LogProb, on the vector kernels.
// The crew scores the windows into a slice that is then summed in order, so
// the mean does not depend on the worker count.
func (m *Model) avgLogProb(seqs [][]int, c *crew) float64 {
	sc := m.NewScorer()
	type score struct {
		ll float64
		ok bool
	}
	scores := make([]score, len(seqs))
	c.run(len(seqs), func(_, k int) {
		if len(seqs[k]) == 0 {
			return
		}
		ll, err := sc.LogProb(seqs[k])
		scores[k] = score{ll, err == nil}
	})
	var total float64
	n := 0
	for _, s := range scores {
		if s.ok {
			total += s.ll
			n++
		}
	}
	if n == 0 {
		return math.Inf(-1)
	}
	return total / float64(n)
}

// latticeBudget bounds the lattice memory of one E-step chunk: the forward
// and backward rows (np entries each) and the three per-step scalars of every
// step the chunk holds. Only a sequence that exceeds it alone gets a chunk
// larger than this, sized to that sequence.
const latticeBudget = 4 << 20

// estep is the working memory of the Baum–Welch E-step for one TrainContext
// run: the crew, the training sequences cut into chunks, and lattice buffers
// sized for the largest chunk, allocated once and reused by every iteration.
//
// Chunk c holds seqs[chunks[c]:chunks[c+1]], and sequence k's steps occupy
// rows off[k] to off[k]+len(seqs[k])−1 of the chunk buffers. With one
// worker every chunk is one sequence, the lattice the serial recurrences
// need; with more, a chunk takes sequences in order while their steps fit
// chunkSteps.
type estep struct {
	crew   *crew
	seqs   [][]int
	chunks []int
	off    []int

	// Per step t of the chunk: α_t and β_t (np-strided rows), the forward
	// scale factor (replaced by its log once the backward pass has used it),
	// the ξ normaliser and the γ normaliser Σ_i α_t[i]·β_t[i].
	alpha, beta          []float64
	scale, xiNorm, gNorm []float64
	// xiBlocks holds each worker's transposed ξ-normaliser blocks.
	xiBlocks [][]float64
}

// chunkSteps is how many lattice steps of an n-state model fit latticeBudget.
func chunkSteps(n int) int {
	np := (n + 15) &^ 15
	return latticeBudget / (8 * (2*np + 3))
}

// newEStep plans the chunks of seqs (all non-empty) for an n-state model on
// c's workers and allocates their buffers.
func newEStep(seqs [][]int, n int, c *crew) *estep {
	limit := chunkSteps(n)
	if c.workers == 1 {
		limit = 0
	}
	e := &estep{crew: c, seqs: seqs, chunks: []int{0}, off: make([]int, len(seqs))}
	steps, most := 0, 0
	for k, s := range seqs {
		if steps > 0 && steps+len(s) > limit {
			e.chunks = append(e.chunks, k)
			steps = 0
		}
		e.off[k] = steps
		steps += len(s)
		most = max(most, steps)
	}
	e.chunks = append(e.chunks, len(seqs))
	np := (n + 15) &^ 15
	e.alpha = make([]float64, most*np)
	e.beta = make([]float64, most*np)
	e.scale = make([]float64, most)
	e.xiNorm = make([]float64, most)
	e.gNorm = make([]float64, most)
	e.xiBlocks = make([][]float64, c.workers)
	for w := range e.xiBlocks {
		e.xiBlocks[w] = make([]float64, 3*xiLanes*n)
	}
	return e
}

// reestimate performs one scaled Baum–Welch E+M step over e's sequences and
// returns the average log-likelihood under the pre-update parameters. A
// non-nil prior contributes priorW pseudo-counts per row (MAP estimation).
//
// The E-step reads the parameters through a Scorer snapshot, so every
// O(N²) pass walks memory contiguously and runs on the dispatched kernels:
// the forward dots over the row-major transition slab, the backward sweep
// (backward) over the transposed one, and the ξ normalisers (xiNorms) and
// ξ sums (xiAccum) over the row-major one; each step's emission column is
// one contiguous row. Every sum keeps the order of the textbook recurrences
// (reestimateRef in the tests), so the estimate is bit-identical to them at
// every kernel level.
//
// Each chunk runs in two phases on the crew. Phase 1 takes the sequences in
// parallel: each one's forward and backward lattices, scale factors and ξ
// and γ normalisers land in its own slots, and the log scale factors are
// then folded into the log-likelihood in sequence order. Phase 2 takes the
// source states in parallel: the owner of a block of rows walks the chunk's
// sequences and steps in order and adds their γ terms to its rows of the
// initial-state, emission and transition-denominator counts and their ξ
// terms to its rows of the transition numerators. Every accumulator cell so
// receives its terms in the serial order, whatever the worker count.
func (m *Model) reestimate(e *estep, prior *Model, priorW float64) float64 {
	n, mm := m.N, m.M
	sc := m.NewScorer()
	np := sc.np
	acc := &counts{
		pi: make([]float64, n),
		// aNum is one n×np slab padded like the scorer's, so the ξ kernel
		// runs unmasked full-width blocks; the padded columns are never read.
		aNum: make([]float64, n*np),
		aDen: make([]float64, n),
		bNum: alloc(n, mm),
		bDen: make([]float64, n),
	}
	if prior != nil && priorW > 0 {
		for i := 0; i < n; i++ {
			acc.pi[i] = priorW * prior.Pi[i]
			acc.aDen[i] = priorW
			acc.bDen[i] = priorW
			for j := 0; j < n; j++ {
				acc.aNum[i*np+j] = priorW * prior.A[i][j]
			}
			for k := 0; k < mm; k++ {
				acc.bNum[i][k] = priorW * prior.B[i][k]
			}
		}
	}

	// Phase 2's row blocks: one per worker, of as near equal size as rows
	// allow, and none under 8 rows on average, so a block's walk over the
	// steps pays for itself.
	blocks := min(e.crew.workers, (n+7)/8)
	var totalLL float64
	for c := 0; c+1 < len(e.chunks); c++ {
		lo, hi := e.chunks[c], e.chunks[c+1]
		e.crew.run(hi-lo, func(w, k int) {
			e.lattice(m, sc, lo+k, e.xiBlocks[w])
		})
		for k := lo; k < hi; k++ {
			for _, l := range e.scale[e.off[k] : e.off[k]+len(e.seqs[k])] {
				totalLL += l
			}
		}
		e.crew.run(blocks, func(_, b int) {
			e.accumulate(sc, acc, lo, hi, b*n/blocks, (b+1)*n/blocks)
		})
	}

	// M step. Rows with no evidence keep their previous values.
	var piSum float64
	for i := 0; i < n; i++ {
		piSum += acc.pi[i]
	}
	if piSum > 0 {
		for i := 0; i < n; i++ {
			m.Pi[i] = acc.pi[i] / piSum
		}
	}
	for i := 0; i < n; i++ {
		if acc.aDen[i] > 0 {
			for j := 0; j < n; j++ {
				m.A[i][j] = acc.aNum[i*np+j] / acc.aDen[i]
			}
		}
		if acc.bDen[i] > 0 {
			for k := 0; k < mm; k++ {
				m.B[i][k] = acc.bNum[i][k] / acc.bDen[i]
			}
		}
	}
	return totalLL / float64(len(e.seqs))
}

// counts are the E-step's expected-count accumulators, indexed by source
// state: the initial-state mass, the padded n×np transition numerators with
// their per-row denominators, and the emission numerators with theirs.
type counts struct {
	pi, aNum, aDen []float64
	bNum           [][]float64
	bDen           []float64
}

// lattice runs phase 1 for sequence k: the scaled forward and backward passes
// into its chunk rows, its ξ normalisers (with the worker's transposed
// blocks), its γ normalisers, and finally the logs of its scale factors.
func (e *estep) lattice(m *Model, sc *Scorer, k int, xiBlocks []float64) {
	n, np := m.N, sc.np
	obs := e.seqs[k]
	T, off := len(obs), e.off[k]
	alphaBuf := e.alpha[off*np : (off+T)*np]
	betaBuf := e.beta[off*np : (off+T)*np]
	scale, xiNorm, gNorm := e.scale[off:off+T], e.xiNorm[off:off+T], e.gNorm[off:off+T]
	alpha := func(t int) []float64 { return alphaBuf[t*np : t*np+np : t*np+np] }
	beta := func(t int) []float64 { return betaBuf[t*np : t*np+np : t*np+np] }

	// Scaled forward.
	var s float64
	a0, bc := alpha(0), sc.bcol(obs[0])
	for i := 0; i < n; i++ {
		a0[i] = m.Pi[i] * bc[i]
		s += a0[i]
	}
	if s == 0 {
		s = math.SmallestNonzeroFloat64
	}
	scale[0] = s
	for i := 0; i < n; i++ {
		a0[i] /= s
	}
	for t := 1; t < T; t++ {
		cur := alpha(t)
		// cur[j] = (Σ_i alpha[t-1][i]·A[i][j])·B[j][obs[t]]; the kernel's
		// laned scale sum is not this recurrence's, so it is discarded.
		// (The vector kernels need at least one state.)
		if n > 0 {
			sc.step(alpha(t-1), sc.bcol(obs[t]), cur)
		}
		s = 0
		for j := 0; j < n; j++ {
			s += cur[j]
		}
		if s == 0 {
			s = math.SmallestNonzeroFloat64
		}
		scale[t] = s
		for j := 0; j < n; j++ {
			cur[j] /= s
		}
	}

	// Scaled backward with the forward scale factors.
	last := beta(T - 1)
	for i := 0; i < n; i++ {
		last[i] = 1 / scale[T-1]
	}
	if n > 0 {
		for t := T - 2; t >= 0; t-- {
			sc.backward(beta(t+1), sc.bcol(obs[t+1]), beta(t), scale[t])
		}
		sc.xiNorms(alphaBuf, betaBuf, obs, xiNorm, xiBlocks)
	}

	for t := 0; t < T; t++ {
		at, bt := alpha(t), beta(t)
		var norm float64
		for i := 0; i < n; i++ {
			norm += at[i] * bt[i]
		}
		gNorm[t] = norm
		scale[t] = math.Log(scale[t])
	}
}

// accumulate runs phase 2 for the source states [r0, r1): it walks the
// sequences seqs[lo:hi] of the current chunk and their steps in order, adding
// each step's γ terms to those rows of acc.pi, acc.bNum, acc.bDen and
// acc.aDen and its ξ terms to those rows of acc.aNum.
func (e *estep) accumulate(sc *Scorer, acc *counts, lo, hi, r0, r1 int) {
	np := sc.np
	pi, aDen, bNum, bDen := acc.pi[r0:r1], acc.aDen[r0:r1], acc.bNum[r0:r1], acc.bDen[r0:r1]
	for k := lo; k < hi; k++ {
		obs := e.seqs[k]
		T, off := len(obs), e.off[k]
		for t := 0; t < T; t++ {
			norm := e.gNorm[off+t]
			if norm == 0 {
				continue
			}
			row := (off + t) * np
			at, bt := e.alpha[row+r0:row+r1], e.beta[row+r0:row+r1]
			o := obs[t]
			for i := range bNum {
				g := at[i] * bt[i] / norm
				if t == 0 {
					pi[i] += g
				}
				bNum[i][o] += g
				bDen[i] += g
				if t < T-1 {
					aDen[i] += g
				}
			}
			if t < T-1 && e.xiNorm[off+t] != 0 {
				sc.xiAccum(e.alpha[row:row+np], e.beta[row+np:row+2*np], sc.bcol(obs[t+1]), acc.aNum, e.xiNorm[off+t], r0, r1)
			}
		}
	}
}

// xiLanes is the number of steps one ξ-normaliser kernel call covers: one
// lane per step of a 512-bit register.
const xiLanes = 8

// backward stores cur[i] = (Σ_j (A[i][j]·bcol[j])·next[j]) / scale for every
// source state i, with next = β_{t+1}, bcol the emission column of o_{t+1}
// and cur = β_t, each np entries. Every sum runs over the destination states
// j in ascending order. The vector kernels run one lane per source state
// over the padded transposed slab and store all np lanes of cur (the padded
// lanes carry no meaning and are never read into a live one); the Go level
// sweeps that slab one destination state at a time with a contiguous inner
// loop over i.
func (s *Scorer) backward(next, bcol, cur []float64, scale float64) {
	switch kernelLevel {
	case kernelAVX512:
		backwardAVX512(&next[0], &s.at[0], &bcol[0], &cur[0], scale, s.n, s.np)
	case kernelAVX2:
		backwardAVX2(&next[0], &s.at[0], &bcol[0], &cur[0], scale, s.n, s.np)
	default:
		n := s.n
		cur = cur[:n]
		clear(cur)
		for j := 0; j < n; j++ {
			bj, nj := bcol[j], next[j]
			col := s.at[j*s.np : j*s.np+n : j*s.np+n]
			for i, aij := range col {
				cur[i] += aij * bj * nj
			}
		}
		for i := range cur {
			cur[i] /= scale
		}
	}
}

// xiNorms stores in norms[t], for every step t < len(obs)-1 of one sequence,
// the ξ normaliser Σ_i Σ_j ((α_t[i]·A[i][j])·b_j(o_{t+1}))·β_{t+1}[j]: one
// chain over (i, j) in ascending row-major order per step. alphaBuf and
// betaBuf are the sequence's np-strided lattices. The vector kernels run up
// to xiLanes steps at once, one lane per step, over n×xiLanes transposes of
// α_t, b(o_{t+1}) and β_{t+1} built in blocks (3·xiLanes·n entries of
// scratch), so the steps' chains share the add latency without
// reassociating any of them; lanes past the last step are zero.
func (s *Scorer) xiNorms(alphaBuf, betaBuf []float64, obs []int, norms, blocks []float64) {
	n, np := s.n, s.np
	steps := len(obs) - 1
	if kernelLevel == kernelGo {
		for t := 0; t < steps; t++ {
			at, next, bc := alphaBuf[t*np:t*np+n], betaBuf[(t+1)*np:(t+1)*np+n], s.bcol(obs[t+1])
			var xi float64
			for i, ai := range at {
				row := s.a[i*np : i*np+n : i*np+n]
				for j, aij := range row {
					xi += ai * aij * bc[j] * next[j]
				}
			}
			norms[t] = xi
		}
		return
	}
	w := xiLanes * n
	aT, bT, betaT := blocks[:w:w], blocks[w:2*w:2*w], blocks[2*w:3*w:3*w]
	var out [xiLanes]float64
	for t0 := 0; t0 < steps; t0 += xiLanes {
		k := min(xiLanes, steps-t0)
		for l := 0; l < xiLanes; l++ {
			if l >= k {
				for i := l; i < w; i += xiLanes {
					aT[i], bT[i], betaT[i] = 0, 0, 0
				}
				continue
			}
			t := t0 + l
			at, next, bc := alphaBuf[t*np:t*np+n], betaBuf[(t+1)*np:(t+1)*np+n], s.bcol(obs[t+1])
			for i := range at {
				aT[i*xiLanes+l] = at[i]
				bT[i*xiLanes+l] = bc[i]
				betaT[i*xiLanes+l] = next[i]
			}
		}
		if kernelLevel == kernelAVX512 {
			xiNormsAVX512(&aT[0], &s.a[0], &bT[0], &betaT[0], &out, n, np)
		} else {
			xiNormsAVX2(&aT[0], &s.a[0], &bT[0], &betaT[0], &out, n, np)
		}
		copy(norms[t0:t0+k], out[:k])
	}
}

// xiAccum adds ξ_t(i, j) = (((α_t[i]·A[i][j])·bcol[j])·next[j]) / xiNorm,
// with a true division, to row i of the padded n×np slab aNum for every row
// i ∈ [r0, r1) with α_t[i] ≠ 0 (r0 < r1 ≤ n), where next = β_{t+1} and bcol is the
// emission column of o_{t+1}. The vector kernels run one lane per destination
// state over all np lanes of each row; the padded lanes stay in the padded
// columns.
func (s *Scorer) xiAccum(alpha, next, bcol, aNum []float64, xiNorm float64, r0, r1 int) {
	np := s.np
	switch kernelLevel {
	case kernelAVX512:
		xiAccumAVX512(&alpha[r0], &s.a[r0*np], &bcol[0], &next[0], &aNum[r0*np], xiNorm, r1-r0, np)
	case kernelAVX2:
		xiAccumAVX2(&alpha[r0], &s.a[r0*np], &bcol[0], &next[0], &aNum[r0*np], xiNorm, r1-r0, np)
	default:
		n := s.n
		for i := r0; i < r1; i++ {
			ai := alpha[i]
			if ai == 0 {
				continue
			}
			row, acc := s.a[i*np:i*np+n:i*np+n], aNum[i*np:i*np+n:i*np+n]
			for j, aij := range row {
				acc[j] += ai * aij * bcol[j] * next[j] / xiNorm
			}
		}
	}
}
