package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// The HTTP API, all JSON, all under /v1:
//
//	POST   /v1/jobs              submit a JobSpec, returns the job status
//	GET    /v1/jobs              list statuses (?offset=&limit=)
//	GET    /v1/jobs/{id}         one job's status
//	DELETE /v1/jobs/{id}         cancel (checkpoint + stop)
//	POST   /v1/jobs/{id}/pause   checkpoint + park (resumable)
//	POST   /v1/jobs/{id}/resume  re-enqueue a paused/interrupted job
//	GET    /v1/jobs/{id}/stream  live events: SSE, or long-poll with ?after=
//	GET    /v1/jobs/{id}/report  BENCH report (stored after completion, live before)
//	GET    /v1/jobs/{id}/plane.png  latest rendered field plane
//	GET    /v1/jobs/{id}/trace   Chrome trace (stored after completion, live before)
//	GET    /metrics              Prometheus text: job states, watcher counts
//	GET    /healthz              liveness
//
// The stream endpoint speaks Server-Sent Events by default (each hub
// event becomes one SSE message with its type and sequence number) and
// falls back to long-poll JSON when the client passes ?after=N: the
// response is the batch of events with Seq > N, blocking up to ?wait=
// (default 30s) for the first one.

// API wraps a Manager with its HTTP surface.
type API struct {
	m *Manager
	// watcherConns counts currently attached stream clients (for /metrics).
	watcherConns atomic.Int64
}

// NewAPI builds the HTTP API over a manager.
func NewAPI(m *Manager) *API { return &API{m: m} }

// Routes returns the API's mux.
func (a *API) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs", a.list)
	mux.HandleFunc("GET /v1/jobs/{id}", a.get)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("POST /v1/jobs/{id}/pause", a.pause)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", a.resume)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", a.stream)
	mux.HandleFunc("GET /v1/jobs/{id}/report", a.report)
	mux.HandleFunc("GET /v1/jobs/{id}/plane.png", a.plane)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", a.traceHandler)
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// jobFrom resolves the {id} path value ("job-000042" or a bare number).
func (a *API) jobFrom(r *http.Request) (*Job, error) {
	raw := r.PathValue("id")
	id := runDirID(raw)
	if id < 0 {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad job id %q", raw)
		}
		id = n
	}
	job, ok := a.m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := decodeSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, err := a.m.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, job.Status())
	case busy(err):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// busy reports whether err refuses a request for the server's load, not
// for the request itself: the queue is full or the server is draining.
// Either answers 503, so a client retries later or elsewhere.
func busy(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	if limit <= 0 {
		limit = 50
	}
	jobs, total, offset := a.m.List(offset, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": jobs, "total": total, "offset": offset, "limit": limit,
	})
}

func (a *API) get(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err := a.m.Cancel(job.ID); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (a *API) pause(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err := a.m.Pause(job.ID); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (a *API) resume(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	switch err := a.m.Resume(job.ID); {
	case busy(err):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (a *API) stream(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	a.watcherConns.Add(1)
	defer a.watcherConns.Add(-1)
	if r.URL.Query().Has("after") {
		a.longPoll(w, r, job)
		return
	}
	a.sse(w, r, job)
}

// longPoll answers one batch of events with Seq > after, waiting up to
// ?wait= (default 30s, capped at 5m) for the first. The fallback for
// clients without SSE: poll in a loop, threading the last seen seq.
func (a *API) longPoll(w http.ResponseWriter, r *http.Request, job *Job) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad after: %w", err))
		return
	}
	wait := 30 * time.Second
	if ws := r.URL.Query().Get("wait"); ws != "" {
		if wait, err = time.ParseDuration(ws); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait: %w", err))
			return
		}
		wait = min(wait, 5*time.Minute)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	events, open := job.Hub.Wait(ctx, after)
	if events == nil {
		events = []Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": events, "open": open})
}

// sse streams hub events as Server-Sent Events until the job's stream
// closes, the client goes away, or the client falls more than the ring
// behind. It reads the hub exactly as long-poll does, from cursor 0, so a
// new stream first replays the ring.
func (a *API) sse(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	fl.Flush()
	// Don't let the server's write timeout kill a healthy stream: the
	// deadline is pushed before every batch below.
	rc := http.NewResponseController(w)
	var cursor uint64
	for {
		events, open := job.Hub.Wait(r.Context(), cursor)
		if r.Context().Err() != nil {
			return
		}
		if missed(cursor, events) {
			fmt.Fprintf(w, "event: dropped\ndata: {\"reason\":\"slow consumer\"}\n\n")
			fl.Flush()
			return
		}
		rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		for _, ev := range events {
			writeSSE(w, ev)
			cursor = ev.Seq
		}
		if !open {
			fmt.Fprintf(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
	}
}

func writeSSE(w io.Writer, ev Event) {
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, ev.Data)
}

// report serves the stored report.json of a finished job, or a live
// report built from the current run attempt's registry.
func (a *API) report(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if a.serveStored(w, job, "report.json") {
		return
	}
	rep := job.LiveReport()
	if rep == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%s has not run yet", RunID(job.ID)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rep.Encode(w); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// serveStored writes the JSON file name of the job's run directory, which
// holds it once the job has finished, and reports whether it was there.
func (a *API) serveStored(w http.ResponseWriter, job *Job, name string) bool {
	data, err := os.ReadFile(filepath.Join(a.m.Store().Dir(job.ID), name))
	if err != nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
	return true
}

func (a *API) plane(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	png, frame, ok := job.Plane()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%s has no rendered plane (single-rank channel workloads only)", RunID(job.ID)))
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Plane-Step", strconv.Itoa(frame.Step))
	w.Write(png)
}

// traceHandler serves the stored trace.json of a finished job, or the
// current run attempt's flight recorder.
func (a *API) traceHandler(w http.ResponseWriter, r *http.Request) {
	job, err := a.jobFrom(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if a.serveStored(w, job, "trace.json") {
		return
	}
	trc := job.LiveTrace()
	if trc == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%s has no trace (submit with \"trace\": true)", RunID(job.ID)))
		return
	}
	trace.Handler(trc).ServeHTTP(w, r)
}

// metrics emits Prometheus text: job counts by state, stream watcher
// connections, and per-running-job step positions.
func (a *API) metrics(w http.ResponseWriter, _ *http.Request) {
	statuses, total, _ := a.m.List(0, 0)
	byState := map[string]int{}
	for _, st := range statuses {
		byState[st.State]++
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	pw := telemetry.NewPromWriter(w)
	pw.Family("dnsserve_jobs_total", "Jobs known to this server.", "gauge")
	pw.Sample(total)
	pw.Family("dnsserve_jobs", "Jobs by lifecycle state.", "gauge")
	for _, state := range []string{StateQueued, StateRunning, StatePaused, StateDone, StateFailed, StateCancelled, StateInterrupted} {
		pw.Sample(byState[state], "state", state)
	}
	pw.Family("dnsserve_stream_watchers", "Attached stream clients.", "gauge")
	pw.Sample(a.watcherConns.Load())
	pw.Family("dnsserve_job_step", "Current step of non-terminal jobs.", "gauge")
	for _, st := range statuses {
		if !terminalState(st.State) {
			pw.Sample(st.Step, "job", st.ID)
		}
	}
}
