package hmm

import (
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
// recurrences bit for bit, under every kernel level the CPU offers, for state
// counts around the kernels' block boundaries, with and without a MAP prior,
// over windows of assorted lengths (including single symbols) and a
// dead-state model whose zero rows exercise the skipped-row paths.
func TestReestimateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, lvl := range []struct {
		name  string
		level int
	}{{"go", KernelGo}, {"avx2", KernelAVX2}, {"avx512", KernelAVX512}} {
		restore, ok := ForceKernel(lvl.level)
		if !ok {
			continue
		}
		for _, n := range []int{0, 1, 2, 7, 8, 15, 16, 17, 33, 64, 97} {
			const syms = 9
			base := NewRandom(n, syms, r.Int63())
			if n > 2 {
				// A state nothing reaches and that emits nothing observed.
				for i := 0; i < n; i++ {
					base.A[i][n-1] = 0
				}
				base.Pi[n-1] = 0
				clear(base.B[n-1])
			}
			seqs := make([][]int, 12)
			for i := range seqs {
				seqs[i] = make([]int, 1+r.Intn(20))
				for k := range seqs[i] {
					seqs[i][k] = r.Intn(syms)
				}
			}
			for _, priorW := range []float64{0, 2} {
				var prior *Model
				if priorW > 0 {
					prior = base.Clone()
				}
				got, want := base.Clone(), base.Clone()
				for iter := 0; iter < 2; iter++ {
					gotLL := got.reestimate(seqs, prior, priorW)
					wantLL := reestimateRef(want, seqs, prior, priorW)
					tag := lvl.name + "/n=" + itoa(n) + "/prior=" + itoa(int(priorW)) + "/iter=" + itoa(iter)
					if math.Float64bits(gotLL) != math.Float64bits(wantLL) {
						t.Fatalf("%s: log-likelihood %v, want %v", tag, gotLL, wantLL)
					}
					checkSameModel(t, tag, got, want)
				}
			}
		}
		restore()
	}
}

// TestAvgLogProbMatchesModelLogProb pins the holdout score to the mean of
// Model.LogProb over the non-empty sequences, bit for bit.
func TestAvgLogProbMatchesModelLogProb(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 9, 40} {
		m := NewRandom(n, 6, r.Int63())
		seqs := [][]int{{}, {1}, {0, 5, 2, 2, 4}, {3, 3, 3, 1, 0, 2, 5, 4, 1}}
		var total float64
		for _, s := range seqs[1:] {
			ll, err := m.LogProb(s)
			if err != nil {
				t.Fatal(err)
			}
			total += ll
		}
		want := total / float64(len(seqs)-1)
		if got := m.avgLogProb(seqs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: avgLogProb = %v, want %v", n, got, want)
		}
	}
	if got := New(3, 2).avgLogProb([][]int{{}}); !math.IsInf(got, -1) {
		t.Fatalf("no scorable sequence: avgLogProb = %v, want -Inf", got)
	}
}
