package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gpujoule/internal/sim"
)

// TenantHeader names the request header that selects the scheduling
// tenant for job submission (absent or empty → DefaultTenant).
const TenantHeader = "X-Tenant"

// Cluster protocol headers.
const (
	// NoRedirectHeader, when present on a submit, suppresses the 307
	// ownership redirect: the receiving node runs the job itself even
	// if the ring says another node owns every point. A gateway sets
	// it on sub-jobs (they are already routed), and the v2 client sets
	// it when redirect-following is disabled.
	NoRedirectHeader = "X-GPUJoule-No-Redirect"
	// DigestMismatchHeader marks a /result fetch as the authoritative
	// refetch after a streamed reassembly failed digest verification.
	// The server counts it (gpujoule_stream_digest_mismatch_total).
	DigestMismatchHeader = "X-GPUJoule-Digest-Mismatch"
	// CacheStampHeader carries the node's CacheStamp on /v1/cache
	// responses and requests, so peers never exchange entries across
	// binary or schema versions.
	CacheStampHeader = "X-GPUJoule-Cache-Stamp"
)

// ResultDoc is the deterministic result document served by
// GET /v1/jobs/{id}/result. It contains no timestamps or
// server-specific state, so the same job spec against the same binary
// renders byte-identical documents — regardless of how the scheduler
// interleaved the job's points with other tenants' work. The smoke
// test's byte-compare, the persistent cache, and the SSE digest all
// rely on this.
type ResultDoc struct {
	SchemaVersion int           `json:"schema_version"`
	Points        []PointResult `json:"points"`
}

// PointResult pairs one expanded grid point with its result. In a
// partial document (running job) Result is null for points that have
// not resolved yet.
type PointResult struct {
	// Workload and Config are human-readable labels; SimKey is the
	// point's canonical simulation identity (the runner memo key).
	Workload string      `json:"workload"`
	Config   string      `json:"config"`
	SimKey   string      `json:"sim_key"`
	Result   *sim.Result `json:"result"`
}

// Handler returns the daemon's full HTTP surface: the /v1 job API plus
// the shared introspection plane (pprof, /progress, /metrics with the
// service extensions).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/cache", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache", s.handleCachePut)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.prof.Register(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	if owner, redirect := s.redirectOwner(r, spec); redirect {
		// Every point of this job is owned by one healthy remote node:
		// answer with a 307 so the client resubmits there and the work
		// runs cache-local. 307 preserves method and body, and the v2
		// client follows it transparently (or surfaces ErrNotOwner when
		// redirect-following is disabled).
		w.Header().Set("Location", owner+"/v1/jobs")
		writeJSON(w, http.StatusTemporaryRedirect, map[string]string{
			"error": ErrNotOwner{Owner: owner}.Error(),
			"owner": owner,
		})
		return
	}
	st, err := s.SubmitTenant(r.Header.Get(TenantHeader), spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case err == ErrQueueFull:
		// Backpressure: the queue is bounded by design; clients retry
		// after the hinted delay instead of the daemon buffering
		// unboundedly. The hint is adaptive — estimated drain time of
		// the current point backlog at recently observed throughput.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, "%v", err)
	case err == ErrDraining:
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// redirectOwner decides whether a submit should be answered with a 307
// to the owning node: a fabric is wired in, the client did not opt
// out, the spec expands cleanly, and every point routes to the same
// non-local owner. Mixed-owner sweeps run here (a gateway is the
// component that spreads those across the ring).
func (s *Server) redirectOwner(r *http.Request, spec JobSpec) (string, bool) {
	cl := s.opts.Cluster
	if cl == nil || cl.RouteOwner == nil || r.Header.Get(NoRedirectHeader) != "" {
		return "", false
	}
	if err := spec.Validate(); err != nil {
		return "", false // let SubmitTenant mint the real error
	}
	pts, err := ExpandPoints(spec)
	if err != nil || len(pts) == 0 {
		return "", false
	}
	owner := cl.RouteOwner(pts[0].Key())
	if owner == "" {
		return "", false
	}
	for _, pt := range pts[1:] {
		if cl.RouteOwner(pt.Key()) != owner {
			return "", false
		}
	}
	return owner, true
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Header.Get(DigestMismatchHeader) != "" {
		s.digestMismatches.Add(1)
		s.logf("service: client reported stream digest mismatch for job %s: %s", id, r.Header.Get(DigestMismatchHeader))
	}
	st, ok := s.Status(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !st.State.Terminal() {
		// Partial retrieval: a running job serves its current view —
		// same document shape, null results for unresolved points —
		// when asked explicitly. Without ?partial the pre-streaming
		// contract holds: 409 until terminal.
		if r.URL.Query().Get("partial") != "" {
			pts, results, pst, okp := s.partial(id)
			if !okp {
				writeErr(w, http.StatusNotFound, "no such job %q", id)
				return
			}
			w.Header().Set("X-Points-Done", strconv.Itoa(pst.PointsDone))
			w.Header().Set("X-Points-Total", strconv.Itoa(pst.Points))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(RenderResultDoc(MakeResultDoc(pts, results)))
			return
		}
		writeErr(w, http.StatusConflict, "job %s is %s; result not ready", id, st.State)
		return
	}
	pts, results, ok := s.Result(id)
	if !ok {
		writeErr(w, http.StatusConflict, "job %s %s: %s", id, st.State, st.Error)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(RenderResultDoc(MakeResultDoc(pts, results)))
}

// handleCacheGet serves one raw result-cache entry to a peer:
// GET /v1/cache?key=<cacheKey>[&wait=1]. With wait=1 a request for a
// key currently being computed here blocks until the flight settles —
// the cluster-wide singleflight join — then retries the cache once.
// Responses carry the node's CacheStamp so the peer can reject
// cross-version entries.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key")
		return
	}
	w.Header().Set(CacheStampHeader, CacheStamp())
	if s.cache == nil {
		writeErr(w, http.StatusNotFound, "no result cache on this node")
		return
	}
	raw, ok := s.cache.GetRaw(key)
	if !ok && r.URL.Query().Get("wait") != "" {
		if done, inFlight := s.flightDone(key); inFlight {
			select {
			case <-done:
				raw, ok = s.cache.GetRaw(key)
			case <-r.Context().Done():
				return
			}
		}
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no cached result for key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// handleCachePut accepts one replicated result-cache entry from a
// peer: PUT /v1/cache?key=<cacheKey> with the raw result JSON as the
// body and the producer's CacheStamp in the header. Entries from a
// different stamp are rejected with 409 (they would be unreachable
// garbage), and bodies that do not decode as a sim.Result with 400.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key")
		return
	}
	if s.cache == nil {
		writeErr(w, http.StatusNotImplemented, "no result cache on this node")
		return
	}
	if stamp := r.Header.Get(CacheStampHeader); stamp != CacheStamp() {
		writeErr(w, http.StatusConflict, "cache stamp %q does not match this node's %q", stamp, CacheStamp())
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCacheEntryBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading entry: %v", err)
		return
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		writeErr(w, http.StatusBadRequest, "entry is not a result: %v", err)
		return
	}
	if err := s.cache.PutRaw(key, raw); err != nil {
		writeErr(w, http.StatusInternalServerError, "storing entry: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxCacheEntryBytes bounds a replicated cache entry (counters-laden
// results are ~1 MiB; 64 MiB is far beyond any legitimate entry).
const maxCacheEntryBytes = 64 << 20

// flightDone returns the done channel of the in-flight resolution of
// cacheKey, if one exists right now.
func (s *Server) flightDone(key string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl := s.flights[key]
	if fl == nil {
		return nil, false
	}
	return fl.done, true
}

// handleEvents streams a job's event log as server-sent events: the
// full history replays first (late subscribers lose nothing), then
// live events as points resolve, ending with the terminal "done"
// event whose data carries the result-document digest. Reconnecting
// clients resume with ?from=N or the standard Last-Event-ID header.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		from, _ = strconv.Atoi(v)
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			from = n + 1
		}
	}
	if _, _, ok := s.events(id, 0); !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	for {
		evs, more, ok := s.events(id, from)
		if !ok {
			return // job pruned from retention mid-stream
		}
		for _, ev := range evs {
			if ev.Kind == EventPoint {
				if pr, okp := s.pointResult(id, ev.Index); okp {
					ev.Point = &pr
				}
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			from = ev.Seq + 1
			if ev.Kind == EventDone {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"version":     s.opts.Version,
		"cache_stamp": CacheStamp(),
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `gpujouled — resident multi-module GPU simulation service

  POST   /v1/jobs             submit a sweep job (JSON spec; X-Tenant selects the tenant)
  GET    /v1/jobs             list jobs
  GET    /v1/jobs/{id}        job status
  GET    /v1/jobs/{id}/result result document (?partial=1 for running jobs)
  GET    /v1/jobs/{id}/events live SSE event stream (points, states, final digest)
  DELETE /v1/jobs/{id}        cancel a job
  GET    /v1/cache            raw result-cache entry by key (?wait=1 joins an in-flight compute)
  PUT    /v1/cache            replicate a result-cache entry (peer use)
  GET    /v1/version          build + schema versions
  GET    /progress            live batch progress
  GET    /metrics             Prometheus metrics
  GET    /debug/pprof/        Go profiling
`)
}
