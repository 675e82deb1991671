package hmm

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ScorerMode selects the transition kernel a Scorer is built with. The zero
// value is ScorerExact; ScorerTopK(k) opts into the pruned approximate
// kernel. The type is comparable, so modes key caches directly.
type ScorerMode struct {
	k int
}

// ScorerExact is the default mode: the full transition matrix, bit-identical
// to the batch Model.LogProb forward pass.
var ScorerExact = ScorerMode{}

// ScorerTopK returns the approximate mode keeping only the k largest entries
// of each transition row, renormalised to unit mass. Scores carry a sound
// per-window error bound (see StreamScorer.LastBound). k <= 0 panics; k >= N
// behaves like a renormalisation-free exact kernel but still reports a zero
// bound through the pruned code path.
func ScorerTopK(k int) ScorerMode {
	if k <= 0 {
		panic(fmt.Sprintf("hmm: ScorerTopK(%d)", k))
	}
	return ScorerMode{k: k}
}

// Exact reports whether the mode is the exact kernel.
func (m ScorerMode) Exact() bool { return m.k == 0 }

// TopK returns the per-row entry budget of an approximate mode, 0 for exact.
func (m ScorerMode) TopK() int { return m.k }

// String returns "exact" or "topk:<k>".
func (m ScorerMode) String() string {
	if m.k == 0 {
		return "exact"
	}
	return fmt.Sprintf("topk:%d", m.k)
}

// Scorer is an immutable, read-optimised scoring view of a Model, shared by
// any number of concurrent StreamScorers. The model is flattened into
// contiguous slabs built once here:
//
//	pi   initial distribution
//	a    row-major transitions a[i*np+j] = A[i][j], each row zero-padded to
//	     np = roundup16(n) columns so the vector kernels run unmasked
//	     full-width blocks (padded columns contribute exactly +0.0; see
//	     kernel.go)
//	at   transposed transitions at[j*np+i] = A[i][j], padded like a: the
//	     scalar forward fallback's contiguous inner reduction, and the
//	     training backward sweep's one-lane-per-source-state blocks
//	bt   per-symbol emission columns bt[o*np+i] = B[i][o], zero-padded like
//	     a, so scoring symbol o multiplies one contiguous column view
//
// In ScorerTopK mode the kernel instead walks a CSR-style pruned matrix
// (tIdx/tVal): row i keeps its k largest entries renormalised to unit mass,
// and wmax/dmax parameterise the per-window error bound. Copies mean later
// mutation of the Model (further training) cannot race with detection.
type Scorer struct {
	n, m int
	np   int // n rounded up to a multiple of 16: padded row stride
	mode ScorerMode
	pi   []float64
	a    []float64
	at   []float64
	bt   []float64

	// Pruned kernel (ScorerTopK): row i keeps entries tVal[i*k:(i+1)*k] at
	// destination states tIdx[i*k:(i+1)*k] (ascending). wmax and dmax
	// parameterise the per-window error bound (see the ρ recurrence in
	// LogProbBound): wmax[o] = max_i Σ_j A_ij·B_j[o] bounds how one
	// transition-then-emission step amplifies accumulated error mass, and
	// dmax[o] = max_i Σ_j |A_ij−Â_ij|·B_j[o] bounds the new error a step
	// injects, where Â is the renormalised pruned matrix.
	k    int
	tIdx []int32
	tVal []float64
	wmax []float64
	dmax []float64

	pool sync.Pool // *scratch for LogProb and StreamScorer pushes
}

// scratch is a pooled work buffer of groupMax·np entries: LogProb uses its
// first two np blocks as the alternating alpha/next pair, and a
// StreamScorer push uses all of it for the emitted vectors of one fused
// group. Pooling it on the shared Scorer keeps it out of every stream.
type scratch struct{ buf []float64 }

func (s *Scorer) scratch() *scratch {
	if sc, ok := s.pool.Get().(*scratch); ok {
		return sc
	}
	return &scratch{buf: make([]float64, groupMax*s.np)}
}

// NewScorer snapshots the model into an exact scoring view. The view is safe
// for concurrent use and never mutated.
func (m *Model) NewScorer() *Scorer { return m.NewScorerMode(ScorerExact) }

// NewScorerMode snapshots the model into a scoring view built for the given
// mode.
func (m *Model) NewScorerMode(mode ScorerMode) *Scorer {
	np := (m.N + 15) &^ 15
	s := &Scorer{
		n:    m.N,
		m:    m.M,
		np:   np,
		mode: mode,
		pi:   append([]float64(nil), m.Pi...),
		a:    make([]float64, m.N*np),
		at:   make([]float64, m.N*np),
		bt:   make([]float64, m.M*np),
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s.a[i*np+j] = m.A[i][j]
			s.at[j*np+i] = m.A[i][j]
		}
		for o := 0; o < m.M; o++ {
			s.bt[o*np+i] = m.B[i][o]
		}
	}
	if !mode.Exact() {
		s.buildTopK(m, mode.TopK())
	}
	return s
}

// buildTopK prunes each transition row to its k largest entries (ties broken
// toward the lower destination state, so the pruned matrix is deterministic),
// renormalises the kept mass, and precomputes the error-bound parameters.
func (s *Scorer) buildTopK(m *Model, k int) {
	if k > m.N {
		k = m.N
	}
	s.k = k
	s.tIdx = make([]int32, m.N*k)
	s.tVal = make([]float64, m.N*k)
	idx := make([]int, m.N)
	arow := make([]float64, m.N) // pruned row, dense, for the bound params
	s.wmax = make([]float64, m.M)
	s.dmax = make([]float64, m.M)
	for i := 0; i < m.N; i++ {
		row := m.A[i]
		for j := range idx {
			idx[j] = j
		}
		sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
		kept := idx[:k]
		sort.Ints(kept)
		var keptMass float64
		for _, j := range kept {
			keptMass += row[j]
		}
		clear(arow)
		base := i * k
		for t, j := range kept {
			s.tIdx[base+t] = int32(j)
			if keptMass > 0 {
				s.tVal[base+t] = row[j] / keptMass
			}
			arow[j] = s.tVal[base+t]
		}
		// Error-bound parameters, per observation symbol: the amplification
		// wmax[o] = max_i Σ_j A_ij·B_j[o] and the injected error
		// dmax[o] = max_i Σ_j |A_ij − Â_ij|·B_j[o].
		for o := 0; o < m.M; o++ {
			var w, d float64
			for j := 0; j < m.N; j++ {
				b := m.B[j][o]
				w += row[j] * b
				d += math.Abs(row[j]-arow[j]) * b
			}
			if w > s.wmax[o] {
				s.wmax[o] = w
			}
			if d > s.dmax[o] {
				s.dmax[o] = d
			}
		}
	}
}

// N returns the number of hidden states of the underlying model.
func (s *Scorer) N() int { return s.n }

// M returns the number of observation symbols of the underlying model.
func (s *Scorer) M() int { return s.m }

// Mode returns the kernel mode the view was built with.
func (s *Scorer) Mode() ScorerMode { return s.mode }

// bcol returns the contiguous zero-padded emission column of symbol o
// (np entries; only the first n are live).
func (s *Scorer) bcol(o int) []float64 { return s.bt[o*s.np : o*s.np+s.np] }

// stepPruned advances one forward vector through the pruned transition
// matrix by scattering each source state's kept entries, then applies the
// emission column. Ordering is fixed (ascending i, ascending kept j), so
// approximate scores are deterministic.
func (s *Scorer) stepPruned(alpha, bcol, next []float64) float64 {
	alpha, next = alpha[:s.n], next[:s.n]
	clear(next)
	k := s.k
	for i, ai := range alpha {
		if ai == 0 {
			continue
		}
		base := i * k
		for t := 0; t < k; t++ {
			next[s.tIdx[base+t]] += ai * s.tVal[base+t]
		}
	}
	return emitScale(next, bcol)
}

// LogProb returns log P(obs | λ) for one window using the mode's kernel and
// pooled buffers; in exact mode the result is bit-identical to
// Model.LogProb. Symbols outside [0, M) return ErrSymbols.
func (s *Scorer) LogProb(obs []int) (float64, error) {
	ll, _, err := s.LogProbBound(obs)
	return ll, err
}

// LogProbBound additionally returns the score's error bound: 0 in exact
// mode, otherwise a sound bound on |logP_exact − logP_pruned| (+Inf when the
// pruned mass underflowed to an uninformative zero).
//
// The bound tracks ρ_t, a bound on the ℓ1 error of the unnormalised forward
// mass relative to the pruned window probability F̂_t. With f/f̂ the exact
// and pruned unnormalised forward vectors and e_t = ‖f_t − f̂_t‖₁,
//
//	e_{t+1} ≤ wmax[o_{t+1}]·e_t + dmax[o_{t+1}]·F̂_t
//
// (the first term pushes the accumulated error through one exact
// transition-then-emission step, the second is the error the pruned rows
// inject). Dividing by F̂_{t+1} = ŝ_{t+1}·F̂_t gives the per-step update
// ρ_{t+1} = (wmax·ρ_t + dmax)/ŝ_{t+1} with ρ_1 = 0 (the π step is exact).
// At the end of the window |F − F̂| ≤ ρ·F̂ yields
// |log F − log F̂| ≤ −log(1−ρ) for ρ < 1.
func (s *Scorer) LogProbBound(obs []int) (logp, bound float64, err error) {
	if len(obs) == 0 {
		return 0, 0, nil
	}
	sc := s.scratch()
	defer s.pool.Put(sc)
	// Both buffers are np-sized: they swap roles every step and the vector
	// kernels store into all np padded lanes.
	alpha, next := sc.buf[:s.np], sc.buf[s.np:2*s.np]

	o := obs[0]
	if o < 0 || o >= s.m {
		return 0, 0, fmt.Errorf("%w: %d", ErrSymbols, o)
	}
	copy(alpha, s.pi)
	scale := emitScale(alpha[:s.n], s.bcol(o))
	if scale == 0 {
		return math.Inf(-1), 0, nil
	}
	logL := math.Log(scale)
	normalise(alpha[:s.n], alpha, scale)

	var rho float64
	for t := 1; t < len(obs); t++ {
		o = obs[t]
		if o < 0 || o >= s.m {
			return 0, 0, fmt.Errorf("%w: %d", ErrSymbols, o)
		}
		bc := s.bcol(o)
		if s.mode.Exact() {
			scale = s.step(alpha, bc, next)
		} else {
			scale = s.stepPruned(alpha, bc, next)
		}
		if scale == 0 {
			if s.mode.Exact() {
				return math.Inf(-1), 0, nil
			}
			// The pruned pass lost all mass; the exact score may be finite.
			return math.Inf(-1), math.Inf(1), nil
		}
		if !s.mode.Exact() {
			rho = (s.wmax[o]*rho + s.dmax[o]) / scale
		}
		logL += math.Log(scale)
		normalise(next[:s.n], next, scale)
		alpha, next = next, alpha
	}
	return logL, boundFromRho(rho), nil
}

// boundFromRho converts the tracked relative mass error ρ (|F−F̂| ≤ ρ·F̂)
// into a two-sided log-score bound: max(−log(1−ρ), log(1+ρ)) = −log(1−ρ),
// or +Inf once ρ ≥ 1 and the bound is vacuous.
func boundFromRho(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-rho)
}

// StreamScorer scores every sliding window (step 1, fixed length) of one call
// stream incrementally. It keeps the scaled forward vectors of all windows
// currently open — a ring of W forward vectors, one per in-flight window —
// and each pushed symbol advances every open window by one forward step.
// Exact mode fuses those steps: the open windows are taken in groups of up
// to four, and on AVX-512 each group of two or more shares one pass over
// the transition slab, loading every 16-lane block of a row once and
// multiplying it into all the group's windows before each window's
// emission, scale sum and normalisation. Once the ring is full a call
// advances W−1 windows, so the slab is read about W/4 times per call
// instead of W−1 times. The saving is bounded: keeping the canonical order
// (kernel.go) costs one multiply and one add per (i, j) term and window
// whatever the loop order, so the fused pass removes repeated loads and
// per-window overhead, not arithmetic. A group of one, and every group on
// the other kernel levels, runs one window at a time; top-K steps each
// window through its pruned rows. The hot path performs zero allocations:
// the group's scratch comes from the Scorer's pool. In exact mode every
// window replays the canonical forward order, so completed-window scores
// are bit-identical to Model.LogProb.
//
// A StreamScorer belongs to one session/stream and is not safe for concurrent
// use; the Scorer behind it is shared freely.
type StreamScorer struct {
	s *Scorer
	w int // window length

	// Ring state. Slot (t mod w) holds the window started at time t; the
	// window started at t completes at t+w-1. alphas is w×n flattened.
	alphas []float64
	logs   []float64 // accumulated log scale factors per slot
	rhos   []float64 // accumulated relative mass error per slot (topk)
	open   []bool    // slot holds a window in flight
	dead   []bool    // slot hit a zero scale: window probability is 0

	count     int     // symbols pushed since the last reset
	lastBound float64 // error bound of the most recent completed window
}

// NewStream returns a fresh incremental scorer over sliding windows of length
// window.
func (s *Scorer) NewStream(window int) *StreamScorer {
	if window <= 0 {
		panic(fmt.Sprintf("hmm: stream window %d", window))
	}
	return &StreamScorer{
		s:      s,
		w:      window,
		alphas: make([]float64, window*s.n),
		logs:   make([]float64, window),
		rhos:   make([]float64, window),
		open:   make([]bool, window),
		dead:   make([]bool, window),
	}
}

// WindowLen returns the configured sliding-window length.
func (st *StreamScorer) WindowLen() int { return st.w }

// Mode returns the kernel mode of the underlying Scorer.
func (st *StreamScorer) Mode() ScorerMode { return st.s.mode }

// Reset clears all in-flight windows; the next Push starts a new stream.
func (st *StreamScorer) Reset() {
	clear(st.open)
	clear(st.dead)
	clear(st.logs)
	clear(st.rhos)
	st.count = 0
	st.lastBound = 0
}

// LastBound returns the error bound of the window completed by the most
// recent Push: 0 in exact mode, otherwise a sound bound on how far the pruned
// log score can sit from the exact one. +Inf marks a window whose pruned mass
// underflowed to zero.
func (st *StreamScorer) LastBound() float64 { return st.lastBound }

// Push folds one observation symbol into the stream. When the push completes
// a window (the stream has seen at least WindowLen symbols), it returns that
// window's window log probability log P(o_{t-w+1..t} | λ) and done=true;
// during warm-up it returns done=false. Symbols outside [0, M) panic — the
// caller encodes labels through the profile alphabet, which cannot produce
// one.
func (st *StreamScorer) Push(obs int) (logp float64, done bool) {
	if obs < 0 || obs >= st.s.m {
		panic(fmt.Sprintf("hmm: stream symbol %d out of range [0,%d)", obs, st.s.m))
	}
	return st.push(obs)
}

// push advances all open windows by one symbol, opens the window starting at
// it, and completes the oldest window once the stream is w symbols deep.
func (st *StreamScorer) push(obs int) (logp float64, done bool) {
	s := st.s
	n := s.n
	bc := s.bcol(obs)
	sc := s.scratch()
	if s.mode.Exact() {
		st.advance(bc, sc.buf)
	} else {
		st.advancePruned(obs, bc, sc.buf)
	}
	s.pool.Put(sc)

	// Open the window that starts at this symbol. Its slot was freed when the
	// window w steps older completed on the previous push. The initial step
	// uses the unpruned Pi in both modes, so a fresh window starts error-free.
	slot := st.count % st.w
	alpha := st.alphas[slot*n : (slot+1)*n]
	copy(alpha, s.pi)
	scale := emitScale(alpha, bc)
	if scale == 0 {
		st.dead[slot] = true
		st.logs[slot] = math.Inf(-1)
	} else {
		st.dead[slot] = false
		st.logs[slot] = math.Log(scale)
		normalise(alpha, alpha, scale)
	}
	st.rhos[slot] = 0
	st.open[slot] = true
	st.count++

	// The oldest open window completes once the stream is w symbols deep.
	if st.count < st.w {
		return 0, false
	}
	doneSlot := st.count % st.w // window started at count-w, reused next push
	logp = st.logs[doneSlot]
	st.lastBound = boundFromRho(st.rhos[doneSlot])
	st.open[doneSlot] = false
	st.dead[doneSlot] = false
	st.rhos[doneSlot] = 0
	return logp, true
}

// advance moves every open, live window one symbol forward on the exact
// kernel, groupMax windows per fused step and the remainder in a last,
// smaller group. Per window the arithmetic is the canonical forward step
// (kernel.go), so scores replay Model.LogProb bit for bit. next is the group
// scratch (groupMax·np entries).
func (st *StreamScorer) advance(bc, next []float64) {
	n := st.s.n
	var (
		group  [groupMax][]float64
		slots  [groupMax]int
		scales [groupMax]float64
	)
	g := 0
	for slot, open := range st.open {
		if open && !st.dead[slot] {
			group[g], slots[g] = st.alphas[slot*n:(slot+1)*n], slot
			g++
		}
		if g < groupMax && (g == 0 || slot < st.w-1) {
			continue
		}
		st.s.stepGroup(&group, g, bc, next, &scales)
		for k, sl := range slots[:g] {
			if scales[k] == 0 {
				st.dead[sl] = true
				st.logs[sl] = math.Inf(-1)
			} else {
				st.logs[sl] += math.Log(scales[k])
			}
		}
		g = 0
	}
}

// advancePruned moves every open, live window one symbol forward through the
// pruned top-K rows, tracking each window's error bound.
func (st *StreamScorer) advancePruned(obs int, bc, next []float64) {
	s := st.s
	n := s.n
	for slot, open := range st.open {
		if !open || st.dead[slot] {
			continue
		}
		alpha := st.alphas[slot*n : (slot+1)*n]
		scale := s.stepPruned(alpha, bc, next)
		if scale == 0 {
			// Pruning may have zeroed a possible path; the bound is vacuous
			// for this window.
			st.dead[slot] = true
			st.logs[slot] = math.Inf(-1)
			st.rhos[slot] = math.Inf(1)
			continue
		}
		st.rhos[slot] = (s.wmax[obs]*st.rhos[slot] + s.dmax[obs]) / scale
		st.logs[slot] += math.Log(scale)
		normalise(alpha, next, scale)
	}
}

// Partial returns the log probability and length of the window covering the
// whole stream since the last reset, valid only while the stream is still
// shorter than the window length (the detection engine's final short-window
// judgement). Once a full window has completed it returns (0, 0).
func (st *StreamScorer) Partial() (logp float64, length int) {
	if st.count == 0 || st.count >= st.w {
		return 0, 0
	}
	// While count < w no slot has been reused, so the stream-covering window
	// opened by the first push since Reset still lives in slot 0.
	return st.logs[0], st.count
}

// PartialBound returns the error bound accompanying Partial: 0 in exact mode
// or when no partial window exists.
func (st *StreamScorer) PartialBound() float64 {
	if st.count == 0 || st.count >= st.w {
		return 0
	}
	return boundFromRho(st.rhos[0])
}
