package hmm

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrewRunsEveryIndexOnce checks that run calls fn exactly once per
// index, only with worker numbers in range, for sections that follow each
// other at once (the helpers still spinning) and after a pause longer than
// crewSpin (the helpers parked), and that stop leaves no goroutine behind.
func TestCrewRunsEveryIndexOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	for workers := 1; workers <= 4; workers++ {
		c := newCrew(workers)
		for round, count := range []int{0, 1, 2, 3, 7, 64, 5, 1, 40} {
			if round%3 == 2 {
				time.Sleep(3 * crewSpin)
			}
			calls := make([]atomic.Int32, count)
			var badWorker atomic.Bool
			c.run(count, func(w, k int) {
				if w < 0 || w >= workers {
					badWorker.Store(true)
				}
				calls[k].Add(1)
			})
			for k := range calls {
				if n := calls[k].Load(); n != 1 {
					t.Fatalf("workers=%d count=%d: index %d ran %d times", workers, count, k, n)
				}
			}
			if badWorker.Load() {
				t.Fatalf("workers=%d count=%d: worker number out of range", workers, count)
			}
		}
		c.stop()
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stop, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
