package hmm

import (
	"math/rand"
	"testing"
)

func benchModel(n, m int) (*Model, []int) {
	model := NewRandom(n, m, 1)
	r := rand.New(rand.NewSource(2))
	obs := make([]int, 15)
	for i := range obs {
		obs[i] = r.Intn(m)
	}
	return model, obs
}

// BenchmarkLogProb measures window scoring — the detection phase's hot path
// (one evaluation per monitored call).
func BenchmarkLogProb(b *testing.B) {
	for _, n := range []int{50, 200, 450} {
		model, obs := benchModel(n, 40)
		b.Run(itoa(n)+"states", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.LogProb(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScorerLogProb measures the flat-kernel batch scorer over the same
// windows — the fast path behind Profile.Score and threshold scans.
func BenchmarkScorerLogProb(b *testing.B) {
	for _, n := range []int{50, 200, 450} {
		model, obs := benchModel(n, 40)
		s := model.NewScorer()
		b.Run(itoa(n)+"states", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.LogProb(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamPush measures the incremental sliding-window scorer — the
// per-call cost of the detection hot path with all windows in flight — in
// exact mode and with top-K pruning. ns/op is per pushed symbol.
func BenchmarkStreamPush(b *testing.B) {
	for _, mode := range []ScorerMode{ScorerExact, ScorerTopK(8)} {
		for _, n := range []int{50, 200, 450} {
			model, _ := benchModel(n, 40)
			s := model.NewScorerMode(mode)
			st := s.NewStream(15)
			r := rand.New(rand.NewSource(4))
			obs := make([]int, 4096)
			for i := range obs {
				obs[i] = r.Intn(40)
			}
			b.Run(mode.String()+"/"+itoa(n)+"states", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.Push(obs[i&4095])
				}
			})
		}
	}
}

// BenchmarkBaumWelchIteration measures one training pass over 100 windows.
func BenchmarkBaumWelchIteration(b *testing.B) {
	model, _ := benchModel(100, 40)
	r := rand.New(rand.NewSource(3))
	seqs := make([][]int, 100)
	for i := range seqs {
		s := make([]int, 15)
		for j := range s {
			s[j] = r.Intn(40)
		}
		seqs[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := model.Clone()
		if _, err := m.Train(seqs, TrainOptions{MaxIters: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}
