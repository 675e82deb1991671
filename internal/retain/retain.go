// Package retain is the one bounded-retention primitive of the runtime: a
// keep-alerts Log built from two fixed-capacity FIFO rings and one shared
// 1-in-N sampling gate. The decision log and the trace store keep their
// records here.
package retain

import (
	"sync"
	"sync/atomic"
)

// ring is a fixed-capacity FIFO: push appends until the ring is full, then
// overwrites the oldest element. Storage grows as the ring fills. A ring is
// not safe for concurrent use.
type ring[T any] struct {
	buf  []T
	max  int
	head int // index of the oldest element once the ring is full
}

// newRing builds a ring holding at most capacity elements (minimum 1).
func newRing[T any](capacity int) ring[T] { return ring[T]{max: max(capacity, 1)} }

// push appends v, evicting the oldest element when the ring is full, and
// returns the evicted element and whether there was one.
func (r *ring[T]) push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], v
	r.head = (r.head + 1) % len(r.buf)
	return old, true
}

// size reports the number of elements held.
func (r *ring[T]) size() int { return len(r.buf) }

// snapshot copies the held elements, oldest first.
func (r *ring[T]) snapshot() []T {
	out := append(make([]T, 0, len(r.buf)), r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// at returns the i-th oldest element (0 is the oldest, size()-1 the newest).
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// gate is a shared 1-in-N sampler: every Nth take passes. It costs one atomic
// add, so of U concurrent calls exactly ⌊U/N⌋, ±1 for the starting phase,
// pass and no caller waits.
type gate struct {
	every uint64
	n     atomic.Uint64
}

// take reports whether this call is sampled.
func (g *gate) take() bool { return g.every <= 1 || g.n.Add(1)%g.every == 0 }

// Log is a bounded keep-alerts log with two classes: the newest capacity
// healthy records that passed a 1-in-N gate, and the newest capacity alerts,
// which are always admitted. Each class evicts only its own oldest record,
// so healthy churn never evicts an alert. Reads merge the classes newest
// first by commit order. Admit decides admission apart from Add, so a caller
// builds a record only once the gate has let it through. A nil *Log is off:
// it admits, stores and returns nothing. Safe for concurrent use; Admit
// takes no lock.
type Log[T any] struct {
	gate       gate
	kept       atomic.Uint64
	sampledOut atomic.Uint64

	mu      sync.Mutex
	seq     uint64 // commit counter: the newest-first merge key
	healthy ring[entry[T]]
	alerts  ring[entry[T]]
}

type entry[T any] struct {
	seq uint64
	v   T
}

// NewLog builds a log keeping up to capacity records per class and
// admitting one in sampleEvery healthy records. capacity ≤ 0 returns nil.
func NewLog[T any](capacity, sampleEvery int) *Log[T] {
	if capacity <= 0 {
		return nil
	}
	l := &Log[T]{healthy: newRing[entry[T]](capacity), alerts: newRing[entry[T]](capacity)}
	l.gate.every = uint64(max(sampleEvery, 1))
	return l
}

// Admit reports whether a record of the given class is to be stored: an
// alert always, a healthy record when the gate passes it, else it counts as
// sampled out.
func (l *Log[T]) Admit(alert bool) bool {
	if l == nil {
		return false
	}
	if alert || l.gate.take() {
		return true
	}
	l.sampledOut.Add(1)
	return false
}

// Add stores v in its class, evicting the class's oldest record when full.
// It does not consult the gate: call Admit first unless v must be kept.
func (l *Log[T]) Add(v T, alert bool) {
	if l == nil {
		return
	}
	l.kept.Add(1)
	l.mu.Lock()
	l.seq++
	if alert {
		l.alerts.push(entry[T]{l.seq, v})
	} else {
		l.healthy.push(entry[T]{l.seq, v})
	}
	l.mu.Unlock()
}

// Kept counts the records stored; SampledOut the healthy records the gate
// turned away.
func (l *Log[T]) Kept() uint64 {
	if l == nil {
		return 0
	}
	return l.kept.Load()
}

func (l *Log[T]) SampledOut() uint64 {
	if l == nil {
		return 0
	}
	return l.sampledOut.Load()
}

// Newest returns up to limit records, newest first; limit ≤ 0 returns all.
func (l *Log[T]) Newest(limit int) []T {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.healthy.size() + l.alerts.size(); limit <= 0 || limit > n {
		limit = n
	}
	out := make([]T, 0, limit)
	l.scan(func(v *T) bool {
		out = append(out, *v)
		return len(out) < limit
	})
	return out
}

// Find returns the newest record match accepts. match runs under the log's
// lock: it must not call into the log or keep the pointer.
func (l *Log[T]) Find(match func(*T) bool) (v T, ok bool) {
	if l == nil {
		return v, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scan(func(p *T) bool {
		if match(p) {
			v, ok = *p, true
		}
		return !ok
	})
	return v, ok
}

// scan visits the records newest first, merging the classes by commit
// order, until visit returns false. The caller holds mu.
func (l *Log[T]) scan(visit func(*T) bool) {
	h, a := l.healthy.size()-1, l.alerts.size()-1
	for h >= 0 || a >= 0 {
		var e *entry[T]
		if a < 0 || (h >= 0 && l.healthy.at(h).seq > l.alerts.at(a).seq) {
			e, h = l.healthy.at(h), h-1
		} else {
			e, a = l.alerts.at(a), a-1
		}
		if !visit(&e.v) {
			return
		}
	}
}
