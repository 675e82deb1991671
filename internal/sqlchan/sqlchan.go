// Package sqlchan implements the SQL-behaviour detection channel: a
// per-session scorer over the query stream that runs beside the call-window
// HMM channel and sees what the HMM cannot. The HMM profiles *which library
// calls* a program makes; this channel profiles *what its queries look like
// and return* — three features per executed query, all learned from the
// same training traces the HMM trains on:
//
//   - Signature n-grams: the add-k-smoothed bigram distribution over
//     normalised query signatures (qsig.Normalize), including a START state
//     per trace, so a query shape never issued in training — or issued in an
//     order never seen — scores low even when the call sequence around it is
//     perfectly plausible.
//   - Result-cardinality profiles: a per-signature smoothed distribution
//     over log2 row-count buckets, so a known query suddenly returning 25
//     rows where training always saw 12 scores low — the mimicry case where
//     the query text and the call trace are both unchanged.
//   - Sensitive-column access sets: the union of projected columns seen in
//     training plus an administrator-declared sensitive set; a novel query
//     touching columns outside the trained set pays a learned penalty, and
//     touching an undeclared *sensitive* column marks the window for a DL
//     upgrade.
//
// Scoring mirrors the HMM channel's calibration exactly: each query gets a
// log-likelihood, a sliding window of WindowLen queries (step 1) is averaged
// per query, and the profile's threshold is the minimum window score seen
// across the training corpus minus a slack — so a fused judge can compare
// the two channels' anomaly margins on the same footing.
package sqlchan

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"adprom/internal/collector"
	"adprom/internal/qsig"
)

// ErrNoQueries reports a training corpus with no query-bearing calls: there
// is nothing to profile, and a zero-knowledge profile would flag everything.
var ErrNoQueries = errors.New("sqlchan: training traces contain no queries")

const (
	// DefaultWindowLen is the sliding query-window length. Queries are far
	// sparser than library calls (a short trace may hold one or two), so the
	// window is shorter than the HMM's 15 and partial windows are judged at
	// flush like the HMM channel's.
	DefaultWindowLen = 8
	// DefaultThresholdSlack is subtracted from the minimum training-window
	// score to set the threshold, mirroring profile.Options.ThresholdSlack.
	// The categorical log-probabilities here move in coarser steps than the
	// HMM's per-symbol scores, so the default slack is wider.
	DefaultThresholdSlack = 0.25
	// DefaultSmoothK is the add-k smoothing mass for the bigram and
	// cardinality distributions.
	DefaultSmoothK = 0.5

	// cardBuckets is the number of log2 row-count buckets: bucket b holds
	// cardinalities with bit length b (0, 1, 2–3, 4–7, ...), saturating at
	// the top so a million-row exfiltration still lands in a trained-against
	// bucket index.
	cardBuckets = 20

	// maxSigLen bounds the signature text retained in scorer state and alert
	// windows, so a hostile megabyte query cannot pin a megabyte string per
	// ring slot.
	maxSigLen = 160
	// maxScratch bounds the scratch memory a scorer keeps for normalising
	// queries: scratch grown past it by a hostile query goes to the GC, so
	// a recycled scorer never pins a megabyte.
	maxScratch = 4 << 10
)

// Options tune training.
type Options struct {
	// WindowLen is the sliding query-window length (default 8).
	WindowLen int
	// ThresholdSlack widens the calibrated threshold below the worst
	// training window (default 0.25).
	ThresholdSlack float64
	// SmoothK is the add-k smoothing mass (default 0.5).
	SmoothK float64
	// SensitiveColumns declares column names whose access outside the
	// trained projection set upgrades an alert to DL (case-insensitive).
	SensitiveColumns []string
}

func (o Options) withDefaults() Options {
	if o.WindowLen <= 0 {
		o.WindowLen = DefaultWindowLen
	}
	if o.ThresholdSlack <= 0 {
		o.ThresholdSlack = DefaultThresholdSlack
	}
	if o.SmoothK <= 0 {
		o.SmoothK = DefaultSmoothK
	}
	return o
}

// Profile is the trained SQL-behaviour model. It is immutable after Train:
// scorers share one profile read-only across sessions, and scoring never
// grows any of its maps (unseen signatures map to a fixed UNK state).
type Profile struct {
	// WindowLen is the sliding query-window length.
	WindowLen int
	// Threshold is the calibrated per-window (per-query-average) score
	// floor: window scores below it are anomalous.
	Threshold float64

	sigs  []string       // id → signature
	short []string       // id → signature as a window entry (truncSig)
	sigID map[string]int // signature → id; unseen → unk

	// bigram[r][c] is log P(next signature class c | previous class r).
	// Rows: V signatures, then UNK (unk), then START (start). Columns: V
	// signatures, then UNK.
	bigram [][]float64
	// card[id][b] is log P(cardinality bucket b | signature id); the UNK row
	// is uniform.
	card [][]float64

	// colKnownLP / colUnseenLP is the learned log-probability of a query
	// projecting only trained columns vs at least one never-trained column
	// (a Bernoulli with zero observed successes, add-k smoothed).
	colKnownLP, colUnseenLP float64

	knownCols     map[string]bool
	sensitiveCols map[string]bool
}

// unk / start return the profile's special row indices.
func (p *Profile) unk() int   { return len(p.sigs) }
func (p *Profile) start() int { return len(p.sigs) + 1 }

// Signatures returns the trained signature vocabulary, in id order.
func (p *Profile) Signatures() []string { return append([]string(nil), p.sigs...) }

// cardBucket maps a result cardinality to its log2 bucket.
func cardBucket(rows int) int {
	if rows <= 0 {
		return 0
	}
	b := bits.Len(uint(rows))
	if b >= cardBuckets {
		b = cardBuckets - 1
	}
	return b
}

// truncSig bounds the signature text kept in scorer rings and alert windows.
func truncSig(sig string) string {
	if len(sig) > maxSigLen {
		return sig[:maxSigLen] + "…"
	}
	return sig
}

// querySeq projects one trace to its executed queries (calls carrying SQL).
type query struct {
	sig  string
	rows int
}

func queriesOf(t collector.Trace) []query {
	var out []query
	for i := range t {
		if t[i].SQL == "" {
			continue
		}
		out = append(out, query{sig: qsig.Normalize(t[i].SQL), rows: t[i].Rows})
	}
	return out
}

// Train builds a profile from training traces: vocabulary, bigram and
// cardinality counts, the trained column set, then threshold calibration by
// replaying every trace through a scorer and taking the minimum window
// score minus the slack — the same minimum-of-training calibration the HMM
// profile uses.
func Train(traces []collector.Trace, opts Options) (*Profile, error) {
	opts = opts.withDefaults()

	var seqs [][]query
	for _, t := range traces {
		if qs := queriesOf(t); len(qs) > 0 {
			seqs = append(seqs, qs)
		}
	}
	if len(seqs) == 0 {
		return nil, ErrNoQueries
	}

	p := &Profile{
		WindowLen:     opts.WindowLen,
		sigID:         map[string]int{},
		knownCols:     map[string]bool{},
		sensitiveCols: map[string]bool{},
	}
	for _, c := range opts.SensitiveColumns {
		p.sensitiveCols[strings.ToLower(strings.TrimSpace(c))] = true
	}
	for _, qs := range seqs {
		for _, q := range qs {
			if _, ok := p.sigID[q.sig]; !ok {
				p.sigID[q.sig] = len(p.sigs)
				p.sigs = append(p.sigs, q.sig)
			}
			for _, col := range qsig.Columns(q.sig) {
				p.knownCols[col] = true
			}
		}
	}

	p.short = make([]string, len(p.sigs))
	for id, sig := range p.sigs {
		p.short[id] = truncSig(sig)
	}

	v := len(p.sigs)
	k := opts.SmoothK
	bigramCount := make([][]float64, v+2) // + unk row + start row
	for r := range bigramCount {
		bigramCount[r] = make([]float64, v+1) // + unk column
	}
	cardCount := make([][]float64, v)
	for id := range cardCount {
		cardCount[id] = make([]float64, cardBuckets)
	}
	total := 0
	for _, qs := range seqs {
		prev := p.start()
		for _, q := range qs {
			id := p.sigID[q.sig]
			bigramCount[prev][id]++
			cardCount[id][cardBucket(q.rows)]++
			prev = id
			total++
		}
	}

	p.bigram = make([][]float64, v+2)
	for r := range p.bigram {
		p.bigram[r] = make([]float64, v+1)
		rowTotal := 0.0
		for _, n := range bigramCount[r] {
			rowTotal += n
		}
		den := rowTotal + k*float64(v+1)
		for c := range p.bigram[r] {
			p.bigram[r][c] = math.Log((bigramCount[r][c] + k) / den)
		}
	}
	p.card = make([][]float64, v+1)
	for id := 0; id <= v; id++ {
		p.card[id] = make([]float64, cardBuckets)
		if id == v { // UNK: uniform
			lp := -math.Log(cardBuckets)
			for b := range p.card[id] {
				p.card[id][b] = lp
			}
			continue
		}
		rowTotal := 0.0
		for _, n := range cardCount[id] {
			rowTotal += n
		}
		den := rowTotal + k*cardBuckets
		for b := range p.card[id] {
			p.card[id][b] = math.Log((cardCount[id][b] + k) / den)
		}
	}

	// Column-novelty Bernoulli: zero unseen-column queries in training out
	// of total, add-k smoothed.
	p.colUnseenLP = math.Log(k / (float64(total) + 2*k))
	p.colKnownLP = math.Log((float64(total) + k) / (float64(total) + 2*k))

	// Calibrate: minimum window (or short-trace partial) score across the
	// training corpus, minus the slack.
	min := math.Inf(1)
	sc := NewScorer(p)
	for _, qs := range seqs {
		sc.Reset()
		for _, q := range qs {
			if v, done := sc.observeSig(q.sig, q.rows); done && v.Score < min {
				min = v.Score
			}
		}
		if v, done := sc.Flush(); done && v.Score < min {
			min = v.Score
		}
	}
	p.Threshold = min - opts.ThresholdSlack
	return p, nil
}

// scoreSig computes one query's log-likelihood given the previous signature
// class: bigram + cardinality + column-novelty terms. id is the signature's
// vocabulary id when known; sig is read only when it is not. It returns the
// next bigram row and whether the query touched an undeclared sensitive
// column.
func (p *Profile) scoreSig(prevRow, id int, known bool, sig string, rows int) (lp float64, nextRow int, sensitive bool) {
	col := id
	if !known {
		col = p.unk()
	}
	lp = p.bigram[prevRow][col]
	lp += p.card[col][cardBucket(rows)]
	if known {
		lp += p.colKnownLP
		return lp, id, false
	}
	// Novel signature: inspect its projection. A known signature's columns
	// were by construction all seen in training.
	unseen := false
	for _, c := range qsig.Columns(sig) {
		if !p.knownCols[c] {
			unseen = true
			if p.sensitiveCols[c] || c == "*" && len(p.sensitiveCols) > 0 {
				sensitive = true
			}
		}
	}
	if unseen {
		lp += p.colUnseenLP
	} else {
		lp += p.colKnownLP
	}
	return lp, p.unk(), sensitive
}

// Verdict is one judged query window: the per-query-average log-likelihood
// of the last WindowLen queries (or of a short trace's whole query sequence
// at flush), the profile threshold it is compared against, and whether any
// query in the window touched an undeclared sensitive column.
type Verdict struct {
	Score     float64
	Threshold float64
	Sensitive bool
}

// Scorer scores one session's query stream against a shared read-only
// Profile. State is a fixed ring of WindowLen per-query entries — observing
// hostile query streams never grows it, and unseen signatures never grow
// the profile. Not safe for concurrent use; one scorer per session.
type Scorer struct {
	p       *Profile
	prevRow int
	lps     []float64
	sigs    []string
	sens    []bool
	n       int
	sum     float64
	// scratch is where Observe normalises each query. The ring's entries
	// never alias it: a known signature's entry is the profile's own
	// string, and only a novel one is copied out.
	scratch []byte
}

// NewScorer builds a scorer over p.
func NewScorer(p *Profile) *Scorer {
	s := &Scorer{
		p:    p,
		lps:  make([]float64, p.WindowLen),
		sigs: make([]string, p.WindowLen),
		sens: make([]bool, p.WindowLen),
	}
	s.Reset()
	return s
}

// Reset clears the query window between traces (the profile is untouched).
func (s *Scorer) Reset() {
	s.prevRow = s.p.start()
	s.n = 0
	s.sum = 0
}

// Observe folds one executed query into the window. done reports that a
// full window completed on this query and v holds its judgement. A query of
// a trained signature allocates nothing: its signature is normalised into
// the scorer's scratch memory and looked up by those bytes.
func (s *Scorer) Observe(sql string, rows int) (v Verdict, done bool) {
	s.scratch = qsig.AppendNormalized(s.scratch[:0], sql)
	id, known := s.p.sigID[string(s.scratch)]
	sig := ""
	if !known {
		sig = string(s.scratch)
	}
	if cap(s.scratch) > maxScratch {
		s.scratch = nil
	}
	return s.fold(id, known, sig, rows)
}

// observeSig is Observe for an already normalised signature.
func (s *Scorer) observeSig(sig string, rows int) (v Verdict, done bool) {
	id, known := s.p.sigID[sig]
	return s.fold(id, known, sig, rows)
}

// fold scores one query and pushes it into the window ring. sig is read
// only for a novel signature.
func (s *Scorer) fold(id int, known bool, sig string, rows int) (v Verdict, done bool) {
	lp, next, sensitive := s.p.scoreSig(s.prevRow, id, known, sig, rows)
	s.prevRow = next
	w := len(s.lps)
	idx := s.n % w
	if s.n >= w {
		s.sum -= s.lps[idx]
	}
	s.lps[idx] = lp
	if known {
		s.sigs[idx] = s.p.short[id]
	} else {
		s.sigs[idx] = truncSig(sig)
	}
	s.sens[idx] = sensitive
	s.sum += lp
	s.n++
	if s.n < w {
		return Verdict{}, false
	}
	return s.verdict(w), true
}

// Flush judges a short trace's partial window: done only when the stream
// held at least one query but never filled a window, mirroring the HMM
// engine's flush-time partial-window judgement.
func (s *Scorer) Flush() (v Verdict, done bool) {
	if s.n == 0 || s.n >= len(s.lps) {
		return Verdict{}, false
	}
	return s.verdict(s.n), true
}

func (s *Scorer) verdict(n int) Verdict {
	v := Verdict{Score: s.sum / float64(n), Threshold: s.p.Threshold}
	for i := 0; i < n; i++ {
		if s.sens[i] {
			v.Sensitive = true
		}
	}
	return v
}

// AppendWindow appends the signatures of the last-judged window to dst,
// oldest first — the SQL analogue of Alert.Window, fetched only for flagged
// windows so unflagged judgements stay allocation-free.
func (s *Scorer) AppendWindow(dst []string) []string {
	w := len(s.lps)
	n := s.n
	if n > w {
		n = w
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.sigs[(s.n-n+i)%w])
	}
	return dst
}

// QueryCount reports queries observed since the last Reset.
func (s *Scorer) QueryCount() int { return s.n }

// String summarises the profile for inspection output.
func (p *Profile) String() string {
	return fmt.Sprintf("sqlchan.Profile{signatures=%d window=%d threshold=%.4f cols=%d sensitive=%d}",
		len(p.sigs), p.WindowLen, p.Threshold, len(p.knownCols), len(p.sensitiveCols))
}
