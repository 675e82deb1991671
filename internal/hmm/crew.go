package hmm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crew runs the parallel sections of one training run: the E-step phases of
// every iteration and the holdout scoring. It is started and stopped by
// TrainContext, and holds workers−1 goroutines besides the caller's, which
// works as worker 0 of every section. With one worker it starts no goroutine
// and every section runs inline.
//
// Between sections the helpers spin for up to crewSpin, yielding the
// processor between checks, and only then park: a training iteration leaves
// only tens of microseconds between its sections, while waking a parked
// thread on another CPU costs about as long again.
type crew struct {
	workers int
	cur     atomic.Pointer[section]
	quit    atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond
	wg      sync.WaitGroup
}

// section is one parallel loop: fn(w, k) for every k in [0, count), handed
// out in ascending order. A helper that arrives after the last index was
// claimed finds nothing left to do in it.
type section struct {
	count      int
	fn         func(w, k int)
	next, done atomic.Int64
}

// crewSpin is how long an idle crew member spins before it parks.
const crewSpin = 100 * time.Microsecond

func newCrew(workers int) *crew {
	c := &crew{workers: max(workers, 1)}
	c.cond.L = &c.mu
	c.wg.Add(c.workers - 1)
	for w := 1; w < c.workers; w++ {
		go c.help(w)
	}
	return c
}

// help is helper w's loop: work each new section, until stop.
func (c *crew) help(w int) {
	defer c.wg.Done()
	var seen *section
	for {
		c.await(func() bool { return c.cur.Load() != seen || c.quit.Load() })
		if c.quit.Load() {
			return
		}
		seen = c.cur.Load()
		c.work(seen, w)
	}
}

// run calls fn(w, k) for every k in [0, count) across the crew and returns
// once every call has returned; w names the worker making the call, so fn
// can keep per-worker scratch in a slice indexed by it.
func (c *crew) run(count int, fn func(w, k int)) {
	if c.workers == 1 || count <= 1 {
		for k := 0; k < count; k++ {
			fn(0, k)
		}
		return
	}
	s := &section{count: count, fn: fn}
	c.cur.Store(s)
	c.wake()
	c.work(s, 0)
	c.await(func() bool { return s.done.Load() == int64(count) })
}

// work claims and runs s's indices until none is left; whoever completes
// the last one wakes the caller of run.
func (c *crew) work(s *section, w int) {
	for k := int(s.next.Add(1) - 1); k < s.count; k = int(s.next.Add(1) - 1) {
		s.fn(w, k)
		if s.done.Add(1) == int64(s.count) {
			c.wake()
		}
	}
}

// await returns once ready reports true: it spins for up to crewSpin, then
// parks until a wake.
func (c *crew) await(ready func() bool) {
	for start := time.Now(); time.Since(start) < crewSpin; runtime.Gosched() {
		if ready() {
			return
		}
	}
	c.mu.Lock()
	for !ready() {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// wake releases every crew member parked in await. Taking the lock orders
// the change the caller just made before the wake-up of any member that
// checked its condition under the lock.
func (c *crew) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// stop ends the helpers and waits for them to exit.
func (c *crew) stop() {
	c.quit.Store(true)
	c.wake()
	c.wg.Wait()
}
