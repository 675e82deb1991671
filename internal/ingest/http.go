package ingest

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Handler returns an http.Handler ingesting batches over POST: the request
// body is a stream of events in either codec, selected by Content-Type —
// application/octet-stream for binary frames, anything else (use
// application/x-ndjson) for NDJSON. The whole body is decoded and
// dispatched; the response is 202 with a one-line summary, or 400 naming
// the first malformed event. Sink refusals (unknown tenant, quota,
// shedding) do not fail the request; they are tallied in the summary, so a
// collector can observe its rejection rate without parsing metrics.
//
// HTTP ingest trades the TCP listener's streaming backpressure for
// request/response batching — right for cron-style exporters and the curl
// examples in the README; sustained collectors should prefer the TCP path.
func Handler(sink Sink, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	ts, _ := sink.(TraceSink)
	return &httpIngest{sink: sink, ts: ts, maxBody: maxBody}
}

type httpIngest struct {
	sink    Sink
	ts      TraceSink // non-nil when sink supports traced observes
	maxBody int64
}

func (h *httpIngest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST an event batch", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, h.maxBody)
	var dec decoder
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	codec := "http+ndjson"
	if strings.TrimSpace(ct) == "application/octet-stream" {
		dec = NewFrameDecoder(body, 0)
		codec = "http+binary"
	} else {
		dec = NewNDJSONDecoder(body, 0)
	}
	var events, calls, rejects int
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, "batch exceeds body limit", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("event %d: %v", events+1, err), http.StatusBadRequest)
			return
		}
		events++
		if e.Kind == KindObserve {
			calls += len(e.Calls)
		}
		if deliver(h.sink, h.ts, e, r.RemoteAddr, codec) != nil {
			rejects++
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "accepted events=%d calls=%d rejected=%d\n", events, calls, rejects)
}
