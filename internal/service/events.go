package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"gpujoule/internal/obs"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
)

// Event kinds in a job's event log.
const (
	// EventState marks a lifecycle transition (queued, running).
	EventState = "state"
	// EventPoint marks one point resolving; Index addresses the point
	// in expansion order and Source says how it resolved.
	EventPoint = "point"
	// EventDone is the terminal event: State is the final state and,
	// for done jobs, Digest is the sha256 of the result document — the
	// same bytes GET /v1/jobs/{id}/result serves, so a streaming
	// client can verify its reassembled view without a second fetch.
	EventDone = "done"
	// EventDigestMismatch is synthesized by the client (never stored in
	// a server-side log) when a streamed reassembly fails digest
	// verification and the client falls back to fetching /result. It
	// surfaces the mismatch to event consumers instead of hiding the
	// refetch; Error carries the expected/actual digests.
	EventDigestMismatch = "digest_mismatch"
)

// JobEvent is one entry in a job's append-only event log, replayed in
// order to every SSE subscriber (late subscribers receive the full
// history, so a stream observed from any point is lossless).
type JobEvent struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	State  State  `json:"state,omitempty"`
	Index  int    `json:"index,omitempty"`
	Source string `json:"source,omitempty"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
	// Node names the cluster node that resolved the point, when it
	// resolved remotely (empty on single-node streams).
	Node string `json:"node,omitempty"`
	// Point carries the resolved point's data on streamed EventPoint
	// events. It is attached at stream-serialization time, not stored
	// in the log, so the log stays light while the SSE stream is
	// self-contained (a subscriber can reassemble the full result
	// document from the stream alone).
	Point *PointResult `json:"point,omitempty"`
}

// appendEventLocked appends to the job's event log and wakes every
// event waiter by closing-and-replacing the notify channel. Terminal
// events are stamped with the job's digest and error. Caller holds
// s.mu.
func (s *Server) appendEventLocked(j *Job, ev JobEvent) {
	ev.Seq = len(j.events)
	if ev.Kind == EventDone {
		ev.Digest = j.digest
		ev.Error = j.status.Error
	}
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// events returns the job's events from sequence number `from` onward
// plus a channel that is closed when the log grows — the wait
// primitive SSE handlers block on. The returned slice aliases the
// append-only log, which is never mutated in place, so callers may
// read it without the lock.
func (s *Server) events(id string, from int) (evs []JobEvent, more <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, okj := s.jobs[id]
	if !okj {
		return nil, nil, false
	}
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	return j.events[from:], j.notify, true
}

// partial returns a running (or terminal) job's points and the results
// resolved so far — nil slots for unresolved points — plus its status
// snapshot. The results slice is copied: the scheduler keeps writing
// the live one.
func (s *Server) partial(id string) ([]runner.Point, []*sim.Result, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, JobStatus{}, false
	}
	results := make([]*sim.Result, len(j.results))
	copy(results, j.results)
	return j.points, results, j.status, true
}

// pointResult snapshots one resolved point of a job for stream
// enrichment (ok is false for unknown jobs, out-of-range indices, or
// points not yet resolved).
func (s *Server) pointResult(id string, idx int) (PointResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || idx < 0 || idx >= len(j.points) || j.results[idx] == nil {
		return PointResult{}, false
	}
	pt := j.points[idx]
	return PointResult{
		Workload: pt.App.Name,
		Config:   pt.Config.Name(),
		SimKey:   pt.Key(),
		Result:   j.results[idx],
	}, true
}

// MakeResultDoc assembles the deterministic result document for a
// point sequence: the single rendering path shared by the HTTP result
// handler, the server-side digest, and client-side verification, so
// "byte-identical" is enforced by construction rather than by parallel
// implementations.
func MakeResultDoc(pts []runner.Point, results []*sim.Result) ResultDoc {
	doc := ResultDoc{SchemaVersion: obs.SchemaVersion, Points: make([]PointResult, len(pts))}
	for i, pt := range pts {
		doc.Points[i] = PointResult{
			Workload: pt.App.Name,
			Config:   pt.Config.Name(),
			SimKey:   pt.Key(),
			Result:   results[i],
		}
	}
	return doc
}

// RenderResultDoc renders the document to the exact bytes the HTTP
// handler serves (indented JSON plus trailing newline — the encoding
// of writeJSON).
func RenderResultDoc(doc ResultDoc) []byte {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// A ResultDoc is plain data; marshalling cannot fail.
		panic("service: rendering result document: " + err.Error())
	}
	return append(b, '\n')
}

// ResultDocDigest is the sha256 of the rendered result document,
// carried by the terminal SSE event.
func ResultDocDigest(doc ResultDoc) string {
	sum := sha256.Sum256(RenderResultDoc(doc))
	return hex.EncodeToString(sum[:])
}
