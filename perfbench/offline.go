package main

import (
	"bytes"
	"io"
	"time"

	"adprom/internal/hmm"
	"adprom/internal/ingest"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/sqlchan"
	"adprom/internal/tenant"
)

// offlineCap bounds how many calls of a workload's inputs each offline
// replay covers (a prefix, in send order).
const offlineCap = 1 << 19

// offline holds the per-layer replays' results.
type offline struct {
	encodeNs, decodeNs float64 // per call
	bytesPerCall       float64
	routeNs            []float64
	pushNs             map[string]float64 // per tenant, per call
	pushMixNs          float64
	sqlNs              float64 // per query
}

// timeCodec re-encodes the workload's items with the facade encoders and
// decodes them with the codec's public decoder, in chunks, timing each side
// separately after an untimed warm-up chunk.
func timeCodec(items []event, codec ingest.Codec, long bool, o *offline) error {
	pass := func(items []event, timed bool) error {
		var buf []byte
		var encT, decT time.Duration
		var calls, nbytes int
		flush := func() error {
			t := time.Now()
			var dec interface{ Next() (ingest.Event, error) }
			if codec == ingest.CodecNDJSON {
				dec = ingest.NewNDJSONDecoder(bytes.NewReader(buf), 0)
			} else {
				dec = ingest.NewFrameDecoder(bytes.NewReader(buf), 0)
			}
			for {
				if _, err := dec.Next(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			decT += time.Since(t)
			nbytes += len(buf)
			buf = buf[:0]
			return nil
		}
		for _, it := range items {
			t := time.Now()
			var err error
			buf, err = appendRun(buf, codec, it.run, it.lo, it.hi, it.final, long)
			encT += time.Since(t)
			if err != nil {
				return err
			}
			calls += int(it.hi - it.lo)
			if len(buf) >= 256<<10 {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		if timed && calls > 0 {
			o.encodeNs = float64(encT.Nanoseconds()) / float64(calls)
			o.decodeNs = float64(decT.Nanoseconds()) / float64(calls)
			o.bytesPerCall = float64(nbytes) / float64(calls)
		}
		return nil
	}
	if err := pass(items[:min(len(items), 2000)], false); err != nil {
		return err
	}
	return pass(items, true)
}

// timeRoute resolves every event's (tenant, session) key through
// Router.Session on a separate fleet over the same profiles, once to make
// every session resident and once timed call by call.
func timeRoute(tenants []*tenantRT, items []event, o *offline) error {
	cfg := tenant.Config{Static: map[string]*profile.Profile{}, RuntimeOptions: []runtime.Option{runtime.WithQueueDepth(256)}}
	for _, tr := range tenants {
		cfg.Static[tr.name] = tr.prof
	}
	r, err := tenant.NewRouter(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	type key struct{ t, s string }
	var keys []key
	for _, it := range items {
		n := (int(it.hi-it.lo) + maxFrameCalls - 1) / maxFrameCalls
		if it.final {
			n++
		}
		for ; n > 0; n-- {
			keys = append(keys, key{it.run.sess.tname, it.run.sess.id})
		}
	}
	for _, k := range keys {
		if _, err := r.Session(k.t, k.s); err != nil {
			return err
		}
	}
	o.routeNs = make([]float64, len(keys))
	for i, k := range keys {
		t := time.Now()
		_, err := r.Session(k.t, k.s)
		o.routeNs[i] = float64(time.Since(t).Nanoseconds())
		if err != nil {
			return err
		}
	}
	return nil
}

// timeScorers pushes every run's calls through its tenant profile's
// StreamScorer and feeds its SQL-bearing calls to an SQL-channel scorer, a
// fresh window per run, timing only the Push and Observe calls. A warm-up
// pass over the first runs precedes the timed pass.
func timeScorers(tenants []*tenantRT, runs []*runRec, o *offline) {
	type tenantScorers struct {
		st  *hmm.StreamScorer
		sql *sqlchan.Scorer
	}
	sc := make([]tenantScorers, len(tenants))
	for i, tr := range tenants {
		sc[i] = tenantScorers{st: tr.prof.NewStreamScorerMode(tr.prof.WindowLen, hmm.ScorerExact), sql: sqlchan.NewScorer(tr.sql)}
	}
	syms := make([][]int, len(runs))
	for i, r := range runs {
		p := tenants[r.sess.tenant].prof
		for _, c := range r.pt.calls {
			syms[i] = append(syms[i], p.SymbolOf(c.Label))
		}
	}
	pushT := make([]time.Duration, len(tenants))
	pushN := make([]int, len(tenants))
	var sqlT time.Duration
	var sqlN int
	pass := func(upto int, timed bool) {
		for i, r := range runs[:upto] {
			t := r.sess.tenant
			s := sc[t]
			s.st.Reset()
			start := time.Now()
			for _, y := range syms[i] {
				s.st.Push(y)
			}
			if timed {
				pushT[t] += time.Since(start)
				pushN[t] += len(syms[i])
			}
			s.sql.Reset()
			start = time.Now()
			n := 0
			for _, c := range r.pt.calls {
				if c.SQL != "" {
					s.sql.Observe(c.SQL, c.Rows)
					n++
				}
			}
			if timed {
				sqlT += time.Since(start)
				sqlN += n
			}
		}
	}
	pass(min(len(runs), 1000), false)
	pass(len(runs), true)
	o.pushNs = map[string]float64{}
	var allT time.Duration
	var allN int
	for t, tr := range tenants {
		if pushN[t] > 0 {
			o.pushNs[tr.name] = float64(pushT[t].Nanoseconds()) / float64(pushN[t])
		}
		allT += pushT[t]
		allN += pushN[t]
	}
	if allN > 0 {
		o.pushMixNs = float64(allT.Nanoseconds()) / float64(allN)
	}
	if sqlN > 0 {
		o.sqlNs = float64(sqlT.Nanoseconds()) / float64(sqlN)
	}
}
