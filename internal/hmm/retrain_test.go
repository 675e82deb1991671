package hmm

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// drawSeq samples one observation sequence from a generating model.
func drawSeq(m *Model, r *rand.Rand, length int) []int {
	pick := func(row []float64) int {
		x := r.Float64()
		var acc float64
		for i, p := range row {
			acc += p
			if x < acc {
				return i
			}
		}
		return len(row) - 1
	}
	state := pick(m.Pi)
	out := make([]int, length)
	for t := 0; t < length; t++ {
		out[t] = pick(m.B[state])
		state = pick(m.A[state])
	}
	return out
}

// TestRetrainLeavesReceiverUntouched: the warm-start path must never mutate
// the serving model — a Scorer snapshot taken before the retrain and the
// model itself must be bit-identical afterwards.
func TestRetrainLeavesReceiverUntouched(t *testing.T) {
	gen := NewRandom(3, 4, 7)
	r := rand.New(rand.NewSource(11))
	var seqs [][]int
	for i := 0; i < 20; i++ {
		seqs = append(seqs, drawSeq(gen, r, 12))
	}

	base := NewRandom(3, 4, 1)
	snapshot := base.Clone()
	next, res, err := base.Retrain(context.Background(), seqs, TrainOptions{MaxIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("retrain ran no iterations")
	}
	if !reflect.DeepEqual(base.Pi, snapshot.Pi) ||
		!reflect.DeepEqual(base.A, snapshot.A) ||
		!reflect.DeepEqual(base.B, snapshot.B) {
		t.Fatal("Retrain mutated the receiver")
	}
	if next == base {
		t.Fatal("Retrain returned the receiver")
	}
	if err := next.Validate(1e-6); err != nil {
		t.Fatalf("retrained model invalid: %v", err)
	}
}

// TestRetrainAdaptsToShiftedCorpus: after behaviour drifts, the retrained
// copy must fit the new corpus better than the stale model does, while the
// MAP anchor keeps it a valid stochastic model.
func TestRetrainAdaptsToShiftedCorpus(t *testing.T) {
	oldGen := NewRandom(3, 5, 2)
	newGen := NewRandom(3, 5, 99) // the drifted behaviour
	r := rand.New(rand.NewSource(5))

	var oldSeqs, newSeqs [][]int
	for i := 0; i < 30; i++ {
		oldSeqs = append(oldSeqs, drawSeq(oldGen, r, 15))
		newSeqs = append(newSeqs, drawSeq(newGen, r, 15))
	}

	// The "serving" model: trained on the old behaviour.
	base := NewRandom(3, 5, 3)
	if _, err := base.Train(oldSeqs, TrainOptions{MaxIters: 15}); err != nil {
		t.Fatal(err)
	}
	staleFit := base.avgLogProb(newSeqs, newCrew(1))

	next, _, err := base.Retrain(context.Background(), newSeqs, TrainOptions{MaxIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	freshFit := next.avgLogProb(newSeqs, newCrew(1))
	if freshFit <= staleFit {
		t.Fatalf("retrain did not adapt: stale fit %v, retrained fit %v", staleFit, freshFit)
	}
}

// TestRetrainHonoursCancellation: a cancelled context aborts between
// iterations with the receiver still untouched.
func TestRetrainHonoursCancellation(t *testing.T) {
	base := NewRandom(2, 3, 4)
	snapshot := base.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := base.Retrain(ctx, [][]int{{0, 1, 2, 1}}, TrainOptions{MaxIters: 5}); err == nil {
		t.Fatal("cancelled retrain reported success")
	}
	if !reflect.DeepEqual(base.A, snapshot.A) {
		t.Fatal("cancelled retrain mutated the receiver")
	}
}
