package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reestimateRef is the textbook scaled Baum–Welch E+M step over [][]float64
// rows, kept as the oracle reestimate must match bit for bit: the same
// recurrences, summed in the same order, without the scoring snapshot or the
// vector kernels.
func reestimateRef(m *Model, seqs [][]int, prior *Model, priorW float64) float64 {
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

	for _, obs := range seqs {
		T := len(obs)
		alpha := alloc(T, n)
		beta := alloc(T, n)
		scale := make([]float64, T)

		var s float64
		for i := 0; i < n; i++ {
			alpha[0][i] = m.Pi[i] * m.B[i][obs[0]]
			s += alpha[0][i]
		}
		if s == 0 {
			s = math.SmallestNonzeroFloat64
		}
		scale[0] = s
		for i := 0; i < n; i++ {
			alpha[0][i] /= s
		}
		for t := 1; t < T; t++ {
			s = 0
			for j := 0; j < n; j++ {
				var v float64
				for i := 0; i < n; i++ {
					v += alpha[t-1][i] * m.A[i][j]
				}
				alpha[t][j] = v * m.B[j][obs[t]]
				s += alpha[t][j]
			}
			if s == 0 {
				s = math.SmallestNonzeroFloat64
			}
			scale[t] = s
			for j := 0; j < n; j++ {
				alpha[t][j] /= s
			}
		}
		for t := 0; t < T; t++ {
			totalLL += math.Log(scale[t])
		}

		for i := 0; i < n; i++ {
			beta[T-1][i] = 1 / scale[T-1]
		}
		for t := T - 2; t >= 0; t-- {
			for i := 0; i < n; i++ {
				var v float64
				for j := 0; j < n; j++ {
					v += m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
				}
				beta[t][i] = v / scale[t]
			}
		}

		gamma := make([]float64, n)
		for t := 0; t < T; t++ {
			var norm float64
			for i := 0; i < n; i++ {
				gamma[i] = alpha[t][i] * beta[t][i]
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
				var xiNorm float64
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						xiNorm += alpha[t][i] * m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j]
					}
				}
				if xiNorm == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					ai := alpha[t][i]
					if ai == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						aNum[i][j] += ai * m.A[i][j] * m.B[j][obs[t+1]] * beta[t+1][j] / xiNorm
					}
				}
			}
		}
	}

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

// sameBits reports the first element where got and want differ bit for bit
// (NaNs included), or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func checkSameModel(t *testing.T, tag string, got, want *Model) {
	t.Helper()
	if i := sameBits(got.Pi, want.Pi); i >= 0 {
		t.Fatalf("%s: Pi[%d] = %v, want %v", tag, i, got.Pi[i], want.Pi[i])
	}
	for r := range want.A {
		if j := sameBits(got.A[r], want.A[r]); j >= 0 {
			t.Fatalf("%s: A[%d][%d] = %v, want %v", tag, r, j, got.A[r][j], want.A[r][j])
		}
		if k := sameBits(got.B[r], want.B[r]); k >= 0 {
			t.Fatalf("%s: B[%d][%d] = %v, want %v", tag, r, k, got.B[r][k], want.B[r][k])
		}
	}
}

// TestReestimateMatchesReference pins the Baum–Welch step to the textbook
// recurrences bit for bit, under every kernel level the CPU offers and on
// one to four workers, for state counts around the kernels' block boundaries
// and the bundled apps' 46, 53 and 62, with and without a MAP prior, over
// windows of assorted lengths (single symbols, and every residue of T−1 mod 8
// for the ξ-normaliser blocks) and a dead-state model whose zero rows
// exercise the skipped-row paths. A second sequence set uses a symbol no
// state emits, so the zero-scale, zero-normaliser and α_t[i] = 0 paths run,
// and their NaNs must match bit for bit too. At 7 and 9 states, further sets
// put the step total one below, at and one above a chunk's capacity, and one
// holds a sequence longer than a whole chunk; they run without a prior on
// two to four workers, the worker counts that fill chunks to capacity.
func TestReestimateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	levels := []struct {
		name  string
		level int
	}{{"go", KernelGo}, {"avx2", KernelAVX2}, {"avx512", KernelAVX512}}
	for _, n := range []int{0, 1, 2, 7, 8, 15, 16, 17, 33, 46, 53, 62, 64, 97} {
		// Symbol syms is in the model's alphabet but no state emits it.
		const syms = 9
		base := NewRandom(n, syms+1, r.Int63())
		for i := 0; i < n; i++ {
			base.B[i][syms] = 0
		}
		if n > 2 {
			// A state nothing reaches and that emits nothing observed.
			for i := 0; i < n; i++ {
				base.A[i][n-1] = 0
			}
			base.Pi[n-1] = 0
			clear(base.B[n-1])
		}
		seqs := make([][]int, 12, 12+2*xiLanes)
		for i := range seqs {
			seqs[i] = make([]int, 1+r.Intn(20))
		}
		for k := 1; k <= 2*xiLanes; k++ {
			seqs = append(seqs, make([]int, k+1))
		}
		fill(r, seqs, syms)
		unemitted := [][]int{{syms}, {0, syms}, {syms, 3, 4}, {1, 2, syms, 5, 6, 7, 8, 0, 1, 2, 3}}
		sets := [][][]int{seqs, unemitted}
		small := len(sets)
		if n == 7 || n == 9 {
			c := chunkSteps(n)
			for _, total := range []int{c - 1, c, c + 1} {
				sets = append(sets, fill(r, stepTotal(r, total), syms))
			}
			over := stepTotal(r, 40)
			over = append(over[:1:1], append([][]int{make([]int, c+3)}, over[1:]...)...)
			sets = append(sets, fill(r, over, syms))
		}
		for set, seqs := range sets {
			priors, workers0 := []float64{0, 2}, 1
			if set >= small {
				priors, workers0 = priors[:1], 2
			}
			for _, priorW := range priors {
				var prior *Model
				if priorW > 0 {
					prior = base.Clone()
				}
				const iters = 2
				var wantLL [iters]float64
				var want [iters]*Model
				ref := base.Clone()
				for iter := range iters {
					wantLL[iter] = reestimateRef(ref, seqs, prior, priorW)
					want[iter] = ref.Clone()
				}
				for _, lvl := range levels {
					restore, ok := ForceKernel(lvl.level)
					if !ok {
						continue
					}
					for workers := workers0; workers <= 4; workers++ {
						got := base.Clone()
						cr := newCrew(workers)
						e := newEStep(seqs, n, cr)
						for iter := range iters {
							gotLL := got.reestimate(e, prior, priorW)
							tag := lvl.name + "/n=" + itoa(n) + "/set=" + itoa(set) + "/prior=" + itoa(int(priorW)) +
								"/workers=" + itoa(workers) + "/iter=" + itoa(iter)
							if math.Float64bits(gotLL) != math.Float64bits(wantLL[iter]) {
								restore()
								t.Fatalf("%s: log-likelihood %v, want %v", tag, gotLL, wantLL[iter])
							}
							checkSameModel(t, tag, got, want[iter])
						}
						cr.stop()
					}
					restore()
				}
			}
		}
	}
}

// stepTotal returns sequences of 1 to 40 steps whose lengths sum to total.
func stepTotal(r *rand.Rand, total int) [][]int {
	var seqs [][]int
	for total > 0 {
		k := min(total, 1+r.Intn(40))
		seqs = append(seqs, make([]int, k))
		total -= k
	}
	return seqs
}

// fill draws every symbol of seqs uniformly from [0, syms) and returns seqs.
func fill(r *rand.Rand, seqs [][]int, syms int) [][]int {
	for _, s := range seqs {
		for k := range s {
			s[k] = r.Intn(syms)
		}
	}
	return seqs
}

// TestEStepChunks pins the chunk plan: one sequence per chunk on one worker;
// on more, sequences in order while their steps fit chunkSteps, and a
// sequence longer than that alone in a chunk of its own size.
func TestEStepChunks(t *testing.T) {
	const n = 46
	c := chunkSteps(n)
	if np := 48; c < 2 || 8*(2*np+3)*c > latticeBudget {
		t.Fatalf("chunkSteps(%d) = %d", n, c)
	}
	seq := func(k int) []int { return make([]int, k) }
	for _, tc := range []struct {
		name    string
		seqs    [][]int
		workers int
		chunks  []int
		steps   int
	}{
		{"one worker", [][]int{seq(3), seq(5), seq(2)}, 1, []int{0, 1, 2, 3}, 5},
		{"below", [][]int{seq(c - 3), seq(2)}, 2, []int{0, 2}, c - 1},
		{"full", [][]int{seq(c - 3), seq(3), seq(1)}, 2, []int{0, 2, 3}, c},
		{"above", [][]int{seq(c - 3), seq(4)}, 3, []int{0, 1, 2}, c - 3},
		{"over budget", [][]int{seq(2), seq(c + 1), seq(2)}, 4, []int{0, 1, 2, 3}, c + 1},
	} {
		cr := newCrew(tc.workers)
		e := newEStep(tc.seqs, n, cr)
		cr.stop()
		if fmt.Sprint(e.chunks) != fmt.Sprint(tc.chunks) {
			t.Errorf("%s: chunks %v, want %v", tc.name, e.chunks, tc.chunks)
		}
		if len(e.scale) != tc.steps || len(e.alpha) != tc.steps*48 {
			t.Errorf("%s: buffers hold %d steps (%d lattice entries), want %d", tc.name, len(e.scale), len(e.alpha), tc.steps)
		}
	}
}

// TestAvgLogProbMatchesModelLogProb pins the holdout score to the mean of
// Model.LogProb over the non-empty sequences, bit for bit, on one to four
// workers.
func TestAvgLogProbMatchesModelLogProb(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 9, 40} {
		m := NewRandom(n, 6, r.Int63())
		seqs := [][]int{{}, {1}, {0, 5, 2, 2, 4}, {3, 3, 3, 1, 0, 2, 5, 4, 1}}
		// Enough windows that summing them in any other order would
		// change the mean's low bits.
		for range 40 {
			seqs = append(seqs, make([]int, 1+r.Intn(15)))
		}
		fill(r, seqs[4:], 6)
		var total float64
		for _, s := range seqs[1:] {
			ll, err := m.LogProb(s)
			if err != nil {
				t.Fatal(err)
			}
			total += ll
		}
		want := total / float64(len(seqs)-1)
		for workers := 1; workers <= 4; workers++ {
			cr := newCrew(workers)
			got := m.avgLogProb(seqs, cr)
			cr.stop()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d workers=%d: avgLogProb = %v, want %v", n, workers, got, want)
			}
		}
	}
	cr := newCrew(2)
	defer cr.stop()
	if got := New(3, 2).avgLogProb([][]int{{}}, cr); !math.IsInf(got, -1) {
		t.Fatalf("no scorable sequence: avgLogProb = %v, want -Inf", got)
	}
}

// TestTrainKernelParity pins each Baum–Welch kernel to the Go level one call
// at a time, on inputs a trained model cannot carry: rows with α_t[i] = 0
// and one NaN α_t[i] beside Inf and NaN β entries, whose ξ terms are NaN, so
// a row skip that differs from Go's α_t[i] == 0 test shows in aNum. All NaNs
// here are the x86 default NaN, the only one the arithmetic produces, so
// their bits compare equal whatever the operand order.
func TestTrainKernelParity(t *testing.T) {
	nan := math.Float64frombits(0xfff8000000000000)
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 7, 15, 16, 17, 31, 46, 53, 62, 97} {
		for _, hostile := range []bool{false, true} {
			m := NewRandom(n, 5, r.Int63())
			s := m.NewScorer()
			np := s.np
			obs := make([]int, 2+r.Intn(2*xiLanes))
			for k := range obs {
				obs[k] = r.Intn(m.M)
			}
			T := len(obs)
			alphaBuf, betaBuf := make([]float64, T*np), make([]float64, T*np)
			for k := range alphaBuf {
				alphaBuf[k], betaBuf[k] = r.Float64(), r.Float64()
			}
			for i := 0; i < n; i += 3 {
				alphaBuf[i] = 0
			}
			if hostile {
				alphaBuf[n-1] = nan
				betaBuf[np+r.Intn(n)] = math.Inf(1)
				betaBuf[np+r.Intn(n)] = nan
			}
			aNum0 := make([]float64, n*np)
			for k := range aNum0 {
				aNum0[k] = r.Float64()
			}
			scale, xiNorm := 0.5+r.Float64(), 0.1+r.Float64()
			split := r.Intn(n + 1)

			type result struct{ beta, norms, aNum []float64 }
			run := func() result {
				cur := make([]float64, np)
				s.backward(betaBuf[np:2*np], s.bcol(obs[1]), cur, scale)
				norms := make([]float64, T-1)
				s.xiNorms(alphaBuf, betaBuf, obs, norms, make([]float64, 3*xiLanes*n))
				// Two row ranges split at an arbitrary row cover every
				// row once, as phase 2's blocks do.
				aNum := append([]float64(nil), aNum0...)
				for _, rows := range [][2]int{{0, split}, {split, n}} {
					if rows[0] < rows[1] {
						s.xiAccum(alphaBuf[:np], betaBuf[np:2*np], s.bcol(obs[1]), aNum, xiNorm, rows[0], rows[1])
					}
				}
				live := make([]float64, 0, n*n)
				for i := 0; i < n; i++ {
					live = append(live, aNum[i*np:i*np+n]...)
				}
				return result{cur[:n], norms, live}
			}
			var want result
			for _, lvl := range []struct {
				name  string
				level int
			}{{"go", KernelGo}, {"avx2", KernelAVX2}, {"avx512", KernelAVX512}} {
				restore, ok := ForceKernel(lvl.level)
				if !ok {
					continue
				}
				got := run()
				restore()
				if lvl.level == KernelGo {
					want = got
					continue
				}
				tag := lvl.name + "/n=" + itoa(n) + "/T=" + itoa(T)
				if hostile {
					tag += "/hostile"
				}
				if k := sameBits(got.beta, want.beta); k >= 0 {
					t.Fatalf("%s: backward β[%d] = %v, want %v", tag, k, got.beta[k], want.beta[k])
				}
				if k := sameBits(got.norms, want.norms); k >= 0 {
					t.Fatalf("%s: ξ normaliser of step %d = %v, want %v", tag, k, got.norms[k], want.norms[k])
				}
				if k := sameBits(got.aNum, want.aNum); k >= 0 {
					t.Fatalf("%s: aNum[%d][%d] = %v, want %v", tag, k/n, k%n, got.aNum[k], want.aNum[k])
				}
			}
		}
	}
}
