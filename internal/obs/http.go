package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/obs/flight"
)

// Health wires liveness and readiness probes into the admin handler. A nil
// probe always passes.
type Health struct {
	// Healthy failing (non-nil error) flips /healthz to 503 — wired to the
	// replica's sticky DurabilityErr: a poisoned journal means the process
	// must be replaced, not retried.
	Healthy func() error
	// Ready failing flips /readyz to 503 — the replica is alive but not
	// serving at the cluster head yet (state transfer in progress).
	Ready func() error
}

// NewHandler returns the admin HTTP handler:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       liveness probe (503 once durability is poisoned)
//	/readyz        readiness probe (503 until caught up and journaling)
//	/debug/events  flight recorder dump (protocol events and sampled
//	               transaction lifecycles); ?since=<cursor>, ?format=bin|text
//	/debug/pprof   Go runtime profiles
//
// /debug/events follows a cursor contract: each response ends with (text)
// or carries in its header (binary) a `next` cursor; passing it back as
// ?since= returns only events recorded after the previous poll. fr may be
// nil (flight recording disabled).
func NewHandler(reg *Registry, fr *flight.Recorder, h Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", probe(h.Healthy))
	mux.HandleFunc("/readyz", probe(h.Ready))
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if fr == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "flight: recording disabled")
			return
		}
		since, ok := sinceParam(w, r)
		if !ok {
			return
		}
		snap := fr.Dump(since)
		if r.URL.Query().Get("format") == "bin" {
			w.Header().Set("Content-Type", "application/octet-stream")
			flight.EncodeBinary(w, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		flight.WriteText(w, snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sinceParam parses the optional ?since= ring cursor; on a malformed value
// it writes 400 and reports false.
func sinceParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return 0, true
	}
	since, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return since, true
}

func probe(f func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if f != nil {
			if err := f(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}
