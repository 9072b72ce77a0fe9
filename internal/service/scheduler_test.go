package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
)

// orderGate installs a runBatch stub that records the workload name of
// every point handed to the engine — with Executors=1 that sequence IS
// the dispatch order — and blocks each execution until fed a token, so
// tests control exactly how far the scheduler advances.
func orderGate(s *Server) (feed func(n int), order func() []string) {
	var mu sync.Mutex
	var names []string
	tokens := make(chan struct{}, 4096)
	real := s.runBatch
	s.runBatch = func(ctx context.Context, pts []runner.Point) ([]*sim.Result, error) {
		mu.Lock()
		names = append(names, pts[0].App.Name)
		mu.Unlock()
		select {
		case <-tokens:
			return real(ctx, pts)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return func(n int) {
			for i := 0; i < n; i++ {
				tokens <- struct{}{}
			}
		}, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), names...)
		}
}

// waitCounters polls until the predicate holds on the job's status.
func waitCounters(t *testing.T, s *Server, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never satisfied the wait predicate", id)
	return JobStatus{}
}

// TestWeightedFairShares runs a weight-3 and a weight-1 tenant against
// a single executor with both backlogs full: dispatched points must
// converge to the 3:1 weight ratio.
func TestWeightedFairShares(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1, QueueCap: 8, Tenants: map[string]TenantConfig{
		"heavy": {Weight: 3},
		"light": {Weight: 1},
	}})
	feed, order := orderGate(s)

	heavy := JobSpec{Workloads: "Stream", Scale: 0.05, GPMs: "1,2,4,8,16,32", BWs: "1x"}
	light := heavy
	light.Workloads = "Kmeans"

	sh, err := s.SubmitTenant("heavy", heavy)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sh.ID, StateRunning) // first point claimed, gate holds it
	sl, err := s.SubmitTenant("light", light)
	if err != nil {
		t.Fatal(err)
	}
	feed(100)
	for _, id := range []string{sh.ID, sl.ID} {
		if fin, err := s.Wait(context.Background(), id); err != nil || fin.State != StateDone {
			t.Fatalf("job %s: %+v, err %v", id, fin, err)
		}
	}

	got := order()
	if len(got) != 12 {
		t.Fatalf("dispatched %d points, want 12: %v", len(got), got)
	}
	// While both tenants are backlogged (the first 8 dispatches — after
	// that the heavy job runs dry), the share must match the weights:
	// 6 heavy vs 2 light, ±1 for the pre-backlog head start.
	heavyCount := 0
	firstLight := -1
	for i, name := range got[:8] {
		if name == "Stream" {
			heavyCount++
		} else if firstLight < 0 {
			firstLight = i
		}
	}
	if heavyCount < 5 || heavyCount > 7 {
		t.Errorf("heavy tenant got %d of the first 8 dispatches, want ~6 (3:1 share): %v", heavyCount, got)
	}
	if firstLight < 0 || firstLight > 3 {
		t.Errorf("light tenant first served at dispatch %d, want within the first 4: %v", firstLight, got)
	}
}

// TestStarvationFreedom pits a weight-8 tenant with a deep backlog
// against a weight-1 tenant: the light tenant must still be served at
// weight-proportional intervals, never starved.
func TestStarvationFreedom(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1, QueueCap: 8, Tenants: map[string]TenantConfig{
		"heavy": {Weight: 8},
		"light": {Weight: 1},
	}})
	feed, order := orderGate(s)

	heavy := JobSpec{Workloads: "Stream,MiniAMR", Scale: 0.05, GPMs: "1,2,4,8,16,32", BWs: "1x"} // 12 points
	light := JobSpec{Workloads: "Kmeans", Scale: 0.05, GPMs: "1,2,4,8,16,32", BWs: "1x"}         // 6 points

	sh, err := s.SubmitTenant("heavy", heavy)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sh.ID, StateRunning)
	sl, err := s.SubmitTenant("light", light)
	if err != nil {
		t.Fatal(err)
	}
	feed(100)
	for _, id := range []string{sh.ID, sl.ID} {
		if fin, err := s.Wait(context.Background(), id); err != nil || fin.State != StateDone {
			t.Fatalf("job %s: %+v, err %v", id, fin, err)
		}
	}

	got := order()
	if len(got) != 18 {
		t.Fatalf("dispatched %d points, want 18: %v", len(got), got)
	}
	var lightIdx []int
	for i, name := range got {
		if name == "Kmeans" {
			lightIdx = append(lightIdx, i)
		}
	}
	if len(lightIdx) != 6 {
		t.Fatalf("light tenant dispatched %d points, want 6: %v", len(lightIdx), got)
	}
	// Starvation-freedom: the weight-1 tenant is served within the
	// heavy tenant's weight-window — once per ~8 heavy dispatches —
	// not pushed behind the whole heavy backlog.
	if lightIdx[0] > 2 {
		t.Errorf("light tenant first served at dispatch %d, want within the first 3: %v", lightIdx[0], got)
	}
	if lightIdx[1] > 12 {
		t.Errorf("light tenant second served at dispatch %d, want within ~one weight window: %v", lightIdx[1], got)
	}
}

// TestPreemptionLosslessAtPointBoundary checks the tentpole preemption
// property: a higher-priority arrival takes over at the next point
// boundary, the in-flight point finishes, nothing completed is lost —
// a re-submission of the preempted spec is answered purely from cache.
func TestPreemptionLosslessAtPointBoundary(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1, QueueCap: 8})
	feed, order := orderGate(s)

	low := JobSpec{Workloads: "Stream", Scale: 0.05, GPMs: "1,2,4", BWs: "1x"}             // 3 points
	high := JobSpec{Workloads: "Kmeans", Scale: 0.05, GPMs: "1,2", BWs: "1x", Priority: 5} // 2 points

	stLow, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	feed(1) // let the first point complete
	// Point 0 done, point 1 claimed and held at the gate: the job sits
	// exactly on a point boundary with one point still pending.
	waitCounters(t, s, stLow.ID, func(st JobStatus) bool {
		return st.PointsDone == 1 && st.Submitted == 2
	})

	stHigh, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(stLow.ID); st.Preemptions != 1 {
		t.Errorf("low-priority job preemption count = %d, want 1", st.Preemptions)
	}

	feed(100)
	finHigh, err := s.Wait(context.Background(), stHigh.ID)
	if err != nil || finHigh.State != StateDone {
		t.Fatalf("high-priority job: %+v, err %v", finHigh, err)
	}
	finLow, err := s.Wait(context.Background(), stLow.ID)
	if err != nil || finLow.State != StateDone {
		t.Fatalf("low-priority job: %+v, err %v", finLow, err)
	}

	// The dispatch order proves preemption at the point boundary: the
	// in-flight low point finished, then both high points jumped the
	// remaining low point.
	want := []string{"Stream", "Stream", "Kmeans", "Kmeans", "Stream"}
	got := order()
	if len(got) != len(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if got := s.Preemptions(); got != 1 {
		t.Errorf("service preemption counter = %d, want 1", got)
	}
	// Zero lost work: every point simulated exactly once despite the
	// preemption...
	if got := s.Engine().Stats().Simulated; got != 5 {
		t.Errorf("engine simulated %d points, want 5", got)
	}
	// ...and the preempted spec resumes entirely from cache.
	st2, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := s.Wait(context.Background(), st2.ID)
	if err != nil || fin2.State != StateDone {
		t.Fatalf("resumed job: %+v, err %v", fin2, err)
	}
	if fin2.CacheHits != 3 || fin2.Submitted != 0 {
		t.Errorf("resumed job counters = %+v, want 3 cache hits and 0 submitted", fin2)
	}
}

// TestStreamedMatchesPolled runs one sweep through the SSE streaming
// client and asserts the reassembled document is byte-identical to the
// polled /result body, that the terminal event's digest matches those
// bytes, and that a late subscriber replays the identical event log.
func TestStreamedMatchesPolled(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := Dial(WithBaseURL(ts.URL))
	ctx := context.Background()

	var evs []JobEvent
	doc, err := c.RunSweepStream(ctx, tinySpec(), func(ev JobEvent) { evs = append(evs, ev) })
	if err != nil {
		t.Fatal(err)
	}

	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %+v", jobs)
	}
	id := jobs[0].ID
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	polled, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("polled result: status %d, err %v", resp.StatusCode, err)
	}

	if streamed := RenderResultDoc(*doc); !bytes.Equal(streamed, polled) {
		t.Errorf("streamed document differs from polled:\nstreamed: %s\npolled: %s", streamed, polled)
	}

	// The event log has the full story: queued, running, one point
	// event per point (carrying its result), then done with the digest
	// of the polled bytes.
	if len(evs) < 4 || evs[0].Kind != EventState || evs[0].State != StateQueued {
		t.Fatalf("event log starts %+v", evs)
	}
	last := evs[len(evs)-1]
	if last.Kind != EventDone || last.State != StateDone {
		t.Fatalf("terminal event = %+v", last)
	}
	sum := sha256.Sum256(polled)
	if last.Digest != hex.EncodeToString(sum[:]) {
		t.Errorf("terminal digest %q does not match polled result bytes", last.Digest)
	}
	points := 0
	for _, ev := range evs {
		if ev.Kind == EventPoint {
			points++
			if ev.Point == nil || ev.Point.Result == nil {
				t.Errorf("point event without payload: %+v", ev)
			}
		}
	}
	if points != jobs[0].Points {
		t.Errorf("streamed %d point events, want %d", points, jobs[0].Points)
	}

	// A late subscriber replays the same log from the start.
	replayed := 0
	fin, err := c.Stream(ctx, id, 0, func(JobEvent) error { replayed++; return nil })
	if err != nil || fin.Kind != EventDone {
		t.Fatalf("replay: fin %+v, err %v", fin, err)
	}
	if replayed != len(evs) {
		t.Errorf("late subscriber replayed %d events, live stream saw %d", replayed, len(evs))
	}
}

// TestPartialResults fetches a running job's partial document: same
// shape as the final document, null results for unresolved points,
// while the plain result endpoint still answers 409.
func TestPartialResults(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1})
	feed, _ := orderGate(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := Dial(WithBaseURL(ts.URL))
	ctx := context.Background()

	st, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(1)
	waitCounters(t, s, st.ID, func(st JobStatus) bool { return st.PointsDone == 1 })

	pdoc, err := c.Partial(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, p := range pdoc.Points {
		if p.Result != nil {
			resolved++
		}
	}
	if len(pdoc.Points) != st.Points || resolved != 1 {
		t.Errorf("partial doc: %d points, %d resolved; want %d and 1", len(pdoc.Points), resolved, st.Points)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Error("plain result fetch of a running job succeeded; want 409")
	}

	feed(10)
	if fin, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil || fin.State != StateDone {
		t.Fatalf("job: %+v, err %v", fin, err)
	}
	if doc, err := c.Result(ctx, st.ID); err != nil || len(doc.Points) != st.Points {
		t.Errorf("final result: %+v, err %v", doc, err)
	}
}

// TestErrCancelledSentinel checks the typed cancellation error
// surfaces consistently: in the server-side status, through the HTTP
// document, and from the client's JobStatus.Err.
func TestErrCancelledSentinel(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1})
	release := gate(s)
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := Dial(WithBaseURL(ts.URL))
	ctx := context.Background()

	st, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("cancelled job state = %s (%s)", fin.State, fin.Error)
	}
	if !errors.Is(fin.Err(), ErrCancelled) {
		t.Errorf("client-side Err() = %v, want ErrCancelled", fin.Err())
	}
	if fin.Error != ErrCancelled.Error() {
		t.Errorf("status error = %q, want the typed sentinel text %q", fin.Error, ErrCancelled.Error())
	}
	// The server-side snapshot agrees.
	if srvSt, _ := s.Status(st.ID); !errors.Is(srvSt.Err(), ErrCancelled) {
		t.Errorf("server-side Err() = %v, want ErrCancelled", srvSt.Err())
	}
}

// TestQueueFullRetryAfterTyped checks 429 rejections reach the client
// as a typed QueueFullError carrying the adaptive Retry-After hint and
// still matching the ErrQueueFull sentinel.
func TestQueueFullRetryAfterTyped(t *testing.T) {
	s := newTestServer(t, Options{QueueCap: 1, Executors: 1})
	release := gate(s)
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := Dial(WithBaseURL(ts.URL))
	ctx := context.Background()

	st1, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st1.ID, StateRunning)
	if _, err := s.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx, tinySpec())
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("overflow submit error = %v (%T), want *QueueFullError", err, err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Error("typed queue-full error does not match ErrQueueFull")
	}
	if qf.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want at least the 1s floor", qf.RetryAfter)
	}
	release()
}

// TestThroughputEstimator unit-tests the adaptive Retry-After source:
// no history answers the 1s floor, estimates scale with backlog and
// worker count, clamp at 600s, and the EWMA tracks recent samples.
func TestThroughputEstimator(t *testing.T) {
	var e throughputEstimator
	if got := e.estimate(50, 4); got != 1 {
		t.Errorf("no-history estimate = %d, want 1", got)
	}
	e.observe(time.Second)
	if got := e.estimate(10, 1); got != 10 {
		t.Errorf("estimate(10 pts, 1 worker) = %d, want 10", got)
	}
	if got := e.estimate(10, 2); got != 5 {
		t.Errorf("estimate(10 pts, 2 workers) = %d, want 5", got)
	}
	if got := e.estimate(1_000_000, 1); got != 600 {
		t.Errorf("huge backlog estimate = %d, want the 600s clamp", got)
	}
	if got := e.estimate(0, 1); got != 1 {
		t.Errorf("empty backlog estimate = %d, want 1", got)
	}
	for i := 0; i < 50; i++ {
		e.observe(100 * time.Millisecond)
	}
	if got := e.estimate(10, 1); got > 2 {
		t.Errorf("EWMA estimate after fast samples = %d, want ~1", got)
	}
}
