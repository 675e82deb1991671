package hmm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStreamScorerMatchesBatch drives random streams through StreamScorer at
// every available kernel level and compares every completed window, and the
// partial window during warm-up, with Model.LogProb by bits. State counts
// straddle each 16-lane block and the bundled apps' padded widths (np 48 and
// 64) and give every n mod 8 tail of the normalising store; window lengths
// 1–20 make every fused group size and warm-up depth occur; each stream is
// Reset midway. The gated models make windows die (score -Inf) inside fused
// groups, both all at once and while the group's other windows live on. The
// fixed cases add larger alphabets and long streams without a Reset.
func TestStreamScorerMatchesBatch(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 9, 10, 11, 12, 15, 16, 17, 33, 46, 47, 48, 49, 53, 62, 63, 64, 65, 97}
	for _, lvl := range []struct {
		name  string
		level int
	}{{"go", KernelGo}, {"avx2", KernelAVX2}, {"avx512", KernelAVX512}} {
		restore, ok := ForceKernel(lvl.level)
		if !ok {
			continue
		}
		r := rand.New(rand.NewSource(7))
		for _, n := range sizes {
			for _, gated := range []bool{false, true} {
				model := NewRandom(n, 6, int64(n))
				if gated {
					gate(model)
				}
				s := model.NewScorer()
				for w := 1; w <= 20; w++ {
					// The last symbol, which gate makes unemittable, is drawn
					// four times less often than the others.
					obs := make([]int, 3*w+7)
					for i := range obs {
						if obs[i] = r.Intn(model.M); obs[i] == model.M-1 && r.Intn(4) != 0 {
							obs[i] = r.Intn(model.M - 1)
						}
					}
					name := fmt.Sprintf("%s/n=%d/gated=%v/w=%d", lvl.name, n, gated, w)
					checkStream(t, name, model, s.NewStream(w), obs, len(obs)/2)
				}
			}
		}
		for _, tc := range []struct{ n, m, w, T int }{
			{1, 2, 3, 40},
			{4, 5, 2, 60},
			{9, 6, 15, 200},
			{33, 12, 15, 300},
		} {
			model := NewRandom(tc.n, tc.m, int64(tc.n*tc.m))
			obs := make([]int, tc.T)
			for i := range obs {
				obs[i] = r.Intn(tc.m)
			}
			name := fmt.Sprintf("%s/n=%d/m=%d/w=%d/T=%d", lvl.name, tc.n, tc.m, tc.w, tc.T)
			checkStream(t, name, model, model.NewScorer().NewStream(tc.w), obs, -1)
		}
		restore()
	}
}

// checkStream pushes obs, resetting the stream before obs[reset] (never when
// reset is negative), and checks every completed and partial window against
// Model.LogProb.
func checkStream(t *testing.T, name string, model *Model, st *StreamScorer, obs []int, reset int) {
	t.Helper()
	w := st.WindowLen()
	base, completed, want := 0, 0, len(obs)-w+1
	if reset > 0 {
		want -= w - 1
	}
	for i, o := range obs {
		if i == reset {
			st.Reset()
			base = i
		}
		got, done := st.Push(o)
		if i-base < w-1 {
			if done {
				t.Fatalf("%s: window completed during warm-up at %d", name, i)
			}
			got, length := st.Partial()
			want := mustLogProb(t, model, obs[base:i+1])
			if length != i-base+1 || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s t=%d: partial (%v, %d), batch (%v, %d) (must be bit-identical)",
					name, i, got, length, want, i-base+1)
			}
			continue
		}
		if !done {
			t.Fatalf("%s: no window completed at %d", name, i)
		}
		completed++
		if want := mustLogProb(t, model, obs[i-w+1:i+1]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s t=%d: stream %v, batch %v (must be bit-identical)", name, i, got, want)
		}
	}
	if completed != want {
		t.Fatalf("%s: %d windows completed, want %d", name, completed, want)
	}
}

func mustLogProb(t *testing.T, m *Model, obs []int) float64 {
	t.Helper()
	ll, err := m.LogProb(obs)
	if err != nil {
		t.Fatal(err)
	}
	return ll
}

// gate makes windows impossible in two ways. No state emits the last
// symbol, so every window holding it dies at once, as in
// TestStreamScorerImpossibleWindow. Only state 0 emits symbol 0, state 0
// emits nothing above 1 and is entered only from itself, so a window dies at
// a 0 exactly when it has seen a symbol above 1 earlier: the windows opened
// after that symbol live on through the same push.
func gate(m *Model) {
	for i := 0; i < m.N; i++ {
		m.B[i][m.M-1] = 0
		if i == 0 {
			clear(m.B[0][2:])
			continue
		}
		m.B[i][0] = 0
		m.A[i][0] = 0
	}
}

// TestStreamScorerPartial checks the short-stream judgement used by
// Engine.Flush: before the first window completes, Partial covers the whole
// stream and matches the batch score of that prefix.
func TestStreamScorerPartial(t *testing.T) {
	model := NewRandom(6, 4, 3)
	st := model.NewScorer().NewStream(10)
	obs := []int{1, 3, 0, 2, 2, 1}
	for _, o := range obs {
		st.Push(o)
	}
	got, n := st.Partial()
	if n != len(obs) {
		t.Fatalf("Partial length %d, want %d", n, len(obs))
	}
	want, err := model.LogProb(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Partial = %v, batch = %v", got, want)
	}

	// Once a window has completed, there is no partial window left.
	for i := 0; i < 10; i++ {
		st.Push(0)
	}
	if _, n := st.Partial(); n != 0 {
		t.Fatalf("Partial after full window reports length %d", n)
	}

	// Reset starts a fresh stream.
	st.Reset()
	if _, n := st.Partial(); n != 0 {
		t.Fatal("Partial non-empty after Reset")
	}
	st.Push(2)
	got, n = st.Partial()
	want, _ = model.LogProb([]int{2})
	if n != 1 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-reset Partial = (%v, %d), want (%v, 1)", got, n, want)
	}
}

// TestStreamScorerImpossibleWindow: a window containing a symbol no state can
// emit scores -Inf, like the batch pass, and the stream recovers afterwards.
func TestStreamScorerImpossibleWindow(t *testing.T) {
	model := New(3, 4)
	for i := 0; i < model.N; i++ {
		model.B[i][3] = 0 // symbol 3 unemittable
	}
	const w = 4
	st := model.NewScorer().NewStream(w)
	obs := []int{0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 0}
	for i, o := range obs {
		got, done := st.Push(o)
		if i < w-1 {
			continue
		}
		if !done {
			t.Fatalf("no window at %d", i)
		}
		want, err := model.LogProb(obs[i-w+1 : i+1])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case math.IsInf(want, -1):
			if !math.IsInf(got, -1) {
				t.Fatalf("t=%d: stream %v, want -Inf", i, got)
			}
		case math.Abs(got-want) > 1e-9:
			t.Fatalf("t=%d: stream %v, batch %v", i, got, want)
		}
	}
}

func TestStreamScorerPanicsOnBadSymbol(t *testing.T) {
	st := New(2, 3).NewScorer().NewStream(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range symbol did not panic")
		}
	}()
	st.Push(3)
}

// TestTrainContextCancelled: a cancelled context aborts Baum–Welch and
// surfaces ctx.Err().
func TestTrainContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewRandom(4, 3, 1)
	seqs := [][]int{{0, 1, 2, 0, 1}, {2, 1, 0, 2}}
	_, err := m.TrainContext(ctx, seqs, TrainOptions{MaxIters: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainContext error = %v, want context.Canceled", err)
	}
	// The uncancelled path still trains.
	if _, err := m.TrainContext(context.Background(), seqs, TrainOptions{MaxIters: 2}); err != nil {
		t.Fatalf("TrainContext: %v", err)
	}
}
