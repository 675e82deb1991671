package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/hmm"
	"adprom/internal/sqlchan"
)

// TestObserveBatchMatchesObserve: feeding a stream through ObserveBatch in
// arbitrary chunks must yield exactly the alerts (bitwise scores and bounds
// included), sequence numbers, judge-hook calls, and Flush behaviour of the
// per-call path — in both scorer modes.
func TestObserveBatchMatchesObserve(t *testing.T) {
	p, traces, _ := trainAppH(t)
	r := rand.New(rand.NewSource(17))

	// Concatenate traces and splice in foreign calls, OOC callers, and an
	// origin-carrying leak call so every alert flavour appears.
	var stream []collector.Call
	for _, tr := range traces {
		stream = append(stream, tr...)
	}
	for i := 0; i < 8; i++ {
		stream = append(stream, collector.Call{
			Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main",
		})
	}
	if len(stream) > 4 {
		c := stream[3]
		c.Caller = "unexpected_fn"
		stream = append(stream, c)
	}
	for _, tr := range traces {
		stream = append(stream, tr...)
	}

	for _, mode := range []hmm.ScorerMode{hmm.ScorerExact, hmm.ScorerTopK(4)} {
		ref := NewEngine(p)
		ref.SetScorerMode(mode)
		refHooks := recordJudgements(ref)
		var want []Alert
		for _, c := range stream {
			want = append(want, ref.Observe(c)...)
		}

		bat := NewEngine(p)
		bat.SetScorerMode(mode)
		batHooks := recordJudgements(bat)
		var got []Alert
		for lo := 0; lo < len(stream); {
			hi := lo + 1 + r.Intn(40)
			if hi > len(stream) {
				hi = len(stream)
			}
			got = append(got, bat.ObserveBatch(stream[lo:hi])...)
			lo = hi
		}

		if len(got) != len(want) {
			t.Fatalf("mode %v: batch raised %d alerts, per-call %d", mode, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("mode %v alert %d:\nbatch    %+v\nper-call %+v", mode, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(*refHooks, *batHooks) {
			t.Fatalf("mode %v: judge-hook sequences differ (%d vs %d calls)", mode, len(*batHooks), len(*refHooks))
		}
		if !reflect.DeepEqual(bat.Flush(), ref.Flush()) {
			t.Fatalf("mode %v: Flush histories differ", mode)
		}
	}
}

// judged is what the chunking tests compare of a Judgement, the floats by
// their bits.
type judged struct {
	channel      string
	seq          int
	score, fused uint64
	flagged      bool
}

// recordJudgements installs a judge hook on e that appends every judgement
// to the returned slice.
func recordJudgements(e *Engine) *[]judged {
	var js []judged
	e.SetJudgeHook(func(j Judgement) {
		js = append(js, judged{j.Channel, j.Seq, math.Float64bits(j.Score), math.Float64bits(j.Fused), j.Flagged})
	})
	return &js
}

// TestTwoChannelJudgementsMatchAcrossChunking: with the SQL channel
// attached, the judge hook sees the same judgements of both channels, in
// the same order and bit for bit, whether each run arrives call by call or
// in random chunks, flush judgements included.
func TestTwoChannelJudgementsMatchAcrossChunking(t *testing.T) {
	p, sqlP, traces, app := trainAppB(t)
	runs := append(append([]collector.Trace{}, traces...), adversarialTraces(t, app)...)
	r := rand.New(rand.NewSource(23))
	engine := func() *Engine {
		e := NewEngine(p)
		e.SetSQLChannel(sqlchan.NewScorer(sqlP), FusionConfig{})
		return e
	}
	ref, bat := engine(), engine()
	want, got := recordJudgements(ref), recordJudgements(bat)
	for _, tr := range runs {
		ref.ResetWindow()
		for _, c := range tr {
			ref.Observe(c)
		}
		ref.Flush()
		bat.ResetWindow()
		for lo := 0; lo < len(tr); {
			hi := min(lo+1+r.Intn(12), len(tr))
			bat.ObserveBatch(tr[lo:hi])
			lo = hi
		}
		bat.Flush()
	}
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("judgement sequences differ (%d chunked vs %d per call)", len(*got), len(*want))
	}
	seen := map[string]int{}
	for _, j := range *want {
		seen[j.channel]++
	}
	t.Logf("judgements per channel: %v", seen)
	if seen[ChannelHMM] == 0 || seen[ChannelSQL] == 0 {
		t.Fatalf("judgements per channel %v; both channels must appear", seen)
	}
}

// TestObserveBatchPartialWindows: batches shorter than the window length keep
// the ring consistent, so a later Flush judges the same short window the
// per-call path would.
func TestObserveBatchPartialWindows(t *testing.T) {
	p, traces, _ := trainAppH(t)
	short := traces[0]
	if len(short) > p.WindowLen-2 {
		short = short[:p.WindowLen-2]
	}

	ref := NewEngine(p)
	for _, c := range short {
		ref.Observe(c)
	}
	bat := NewEngine(p)
	bat.ObserveBatch(short[:len(short)/2])
	bat.ObserveBatch(short[len(short)/2:])

	if !reflect.DeepEqual(bat.Flush(), ref.Flush()) {
		t.Fatalf("short-stream Flush differs: batch %+v, per-call %+v", bat.Flush(), ref.Flush())
	}
}

// TestObserveBatchEmpty: a nil batch is a no-op.
func TestObserveBatchEmpty(t *testing.T) {
	p, _, _ := trainAppH(t)
	e := NewEngine(p)
	if out := e.ObserveBatch(nil); out != nil {
		t.Fatalf("empty batch returned %v", out)
	}
	if len(e.Alerts()) != 0 {
		t.Fatalf("empty batch recorded alerts")
	}
}
