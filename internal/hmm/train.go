package hmm

import (
	"context"
	"fmt"
	"math"
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

	res := &TrainResult{}
	prevTrain := math.Inf(-1)
	bestHold := math.Inf(-1)
	holdBad := 0

	for iter := 0; iter < opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("hmm: training cancelled after %d iterations: %w", res.Iterations, err)
		}
		trainLL := m.reestimate(nonEmpty, prior, opts.PriorWeight)
		m.Smooth(opts.SmoothFloor)
		res.Iterations = iter + 1
		res.TrainLogLik = append(res.TrainLogLik, trainLL)

		if len(opts.Holdout) > 0 {
			holdLL := m.avgLogProb(opts.Holdout)
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
func (m *Model) avgLogProb(seqs [][]int) float64 {
	sc := m.NewScorer()
	var total float64
	n := 0
	for _, s := range seqs {
		if len(s) == 0 {
			continue
		}
		ll, err := sc.LogProb(s)
		if err != nil {
			continue
		}
		total += ll
		n++
	}
	if n == 0 {
		return math.Inf(-1)
	}
	return total / float64(n)
}

// reestimate performs one scaled Baum–Welch E+M step over all sequences and
// returns the average log-likelihood under the pre-update parameters. A
// non-nil prior contributes priorW pseudo-counts per row (MAP estimation).
//
// The E-step reads the parameters through a Scorer snapshot, so every
// O(N²) pass walks memory contiguously: the forward dots run on the vector
// kernels over the row-major transition slab, the backward dots sweep the
// transposed slab one destination state at a time, and each step's emission
// column is one contiguous row. Every sum keeps the order of the textbook
// recurrences (reestimateRef in the tests), so the estimate is bit-identical
// to them.
func (m *Model) reestimate(seqs [][]int, prior *Model, priorW float64) float64 {
	n, mm := m.N, m.M
	piAcc := make([]float64, n)
	aNum := alloc(n, n)
	aDen := make([]float64, n)
	bNum := alloc(n, mm)
	bDen := make([]float64, n)
	if prior != nil && priorW > 0 {
		for i := 0; i < n; i++ {
			piAcc[i] = priorW * prior.Pi[i]
			aDen[i] = priorW
			bDen[i] = priorW
			for j := 0; j < n; j++ {
				aNum[i][j] = priorW * prior.A[i][j]
			}
			for k := 0; k < mm; k++ {
				bNum[i][k] = priorW * prior.B[i][k]
			}
		}
	}
	var totalLL float64

	sc := m.NewScorer()
	np := sc.np
	// Forward and backward lattices, one np-strided row per step (the vector
	// kernels store into all np padded lanes), reused across sequences.
	var alphaBuf, betaBuf, scale []float64
	gamma := make([]float64, n)
	for _, obs := range seqs {
		T := len(obs)
		if len(scale) < T {
			alphaBuf = make([]float64, T*np)
			betaBuf = make([]float64, T*np)
			scale = make([]float64, T)
		}
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
		for t := 0; t < T; t++ {
			totalLL += math.Log(scale[t])
		}

		// Scaled backward with the forward scale factors. Row j of the
		// transposed slab is column j of A, so sweeping destination states j
		// in ascending order accumulates every beta[t][i] in the textbook
		// order while the inner loop runs contiguously over i.
		last := beta(T - 1)
		for i := 0; i < n; i++ {
			last[i] = 1 / scale[T-1]
		}
		for t := T - 2; t >= 0; t-- {
			cur, next, bc := beta(t)[:n], beta(t+1), sc.bcol(obs[t+1])
			clear(cur)
			for j := 0; j < n; j++ {
				bj, nj := bc[j], next[j]
				col := sc.at[j*n : j*n+n : j*n+n]
				for i, aij := range col {
					cur[i] += aij * bj * nj
				}
			}
			for i := range cur {
				cur[i] /= scale[t]
			}
		}

		// Accumulate γ and ξ.
		for t := 0; t < T; t++ {
			at, bt := alpha(t), beta(t)
			var norm float64
			for i := 0; i < n; i++ {
				gamma[i] = at[i] * bt[i]
				norm += gamma[i]
			}
			if norm == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				g := gamma[i] / norm
				if t == 0 {
					piAcc[i] += g
				}
				bNum[i][obs[t]] += g
				bDen[i] += g
				if t < T-1 {
					aDen[i] += g
				}
			}
			if t < T-1 {
				next, bc := beta(t+1), sc.bcol(obs[t+1])
				var xiNorm float64
				for i := 0; i < n; i++ {
					ai, row := at[i], m.A[i][:n]
					for j, aij := range row {
						xiNorm += ai * aij * bc[j] * next[j]
					}
				}
				if xiNorm == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					ai := at[i]
					if ai == 0 {
						continue
					}
					row, acc := m.A[i][:n], aNum[i][:n]
					for j, aij := range row {
						acc[j] += ai * aij * bc[j] * next[j] / xiNorm
					}
				}
			}
		}
	}

	// M step. Rows with no evidence keep their previous values.
	var piSum float64
	for i := 0; i < n; i++ {
		piSum += piAcc[i]
	}
	if piSum > 0 {
		for i := 0; i < n; i++ {
			m.Pi[i] = piAcc[i] / piSum
		}
	}
	for i := 0; i < n; i++ {
		if aDen[i] > 0 {
			for j := 0; j < n; j++ {
				m.A[i][j] = aNum[i][j] / aDen[i]
			}
		}
		if bDen[i] > 0 {
			for k := 0; k < mm; k++ {
				m.B[i][k] = bNum[i][k] / bDen[i]
			}
		}
	}
	return totalLL / float64(len(seqs))
}
