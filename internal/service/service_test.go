package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
)

// tinySpec is the grid the lifecycle tests sweep: small enough to
// simulate in milliseconds, wide enough to exercise multi-point jobs.
func tinySpec() JobSpec {
	return JobSpec{Workloads: "Stream", Scale: 0.05, GPMs: "1,2", BWs: "2x", Topologies: "ring"}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestGPMParallelClamp checks the service-side cap on intra-run
// parallelism: the effective lane count never lets
// GPMParallel × Executors exceed GOMAXPROCS, and an over-asked server
// still runs jobs to byte-identical results (lanes are not part of
// the cache key, so the clamp can never re-address entries).
func TestGPMParallelClamp(t *testing.T) {
	s := newTestServer(t, Options{Executors: 2, GPMParallel: 1 << 16})

	want := runtime.GOMAXPROCS(0) / 2
	if want < 1 {
		want = 1
	}
	if got := s.Engine().GPMParallel(); got != want {
		t.Errorf("effective lanes = %d, want %d (GOMAXPROCS %d / 2 executors)",
			got, want, runtime.GOMAXPROCS(0))
	}
	if want > 1 && s.Engine().ParallelBudget() == nil {
		t.Error("multi-lane engine has no shared budget")
	}

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := s.Wait(context.Background(), st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("job under clamped lanes: %+v, err %v", fin, err)
	}

	// Asking for nothing keeps the engine lane-less.
	s1 := newTestServer(t, Options{Executors: 2})
	if got := s1.Engine().GPMParallel(); got != 1 {
		t.Errorf("default lanes = %d, want 1", got)
	}
	if s1.Engine().ParallelBudget() != nil {
		t.Error("lane-less engine carries a budget")
	}
}

// TestJobRoundTrip submits the same sweep twice against one server:
// the first execution simulates every point, the second is answered
// entirely from the disk cache — zero new simulations.
func TestJobRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1})

	st1, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin1, err := s.Wait(context.Background(), st1.ID)
	if err != nil || fin1.State != StateDone {
		t.Fatalf("first job: %+v, err %v", fin1, err)
	}
	if fin1.Points != 2 || fin1.Submitted != 2 || fin1.CacheHits != 0 {
		t.Errorf("cold job counters = %+v, want 2 points all submitted", fin1)
	}
	simulated := s.Engine().Stats().Simulated
	if simulated != 2 {
		t.Fatalf("cold job simulated %d points, want 2", simulated)
	}

	st2, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := s.Wait(context.Background(), st2.ID)
	if err != nil || fin2.State != StateDone {
		t.Fatalf("second job: %+v, err %v", fin2, err)
	}
	if fin2.CacheHits != 2 || fin2.Submitted != 0 {
		t.Errorf("warm job counters = %+v, want 2 cache hits and 0 submitted", fin2)
	}
	if got := s.Engine().Stats().Simulated; got != simulated {
		t.Errorf("warm job re-simulated: engine simulated %d, want %d", got, simulated)
	}

	// Both jobs resolve identical results for identical points.
	_, r1, ok1 := s.Result(st1.ID)
	_, r2, ok2 := s.Result(st2.ID)
	if !ok1 || !ok2 {
		t.Fatal("results unavailable for done jobs")
	}
	for i := range r1 {
		if !reflect.DeepEqual(r1[i].Counts, r2[i].Counts) {
			t.Errorf("point %d: warm result differs from cold", i)
		}
	}
}

// TestEphemeralEngineFootprint checks the daemon-RAM property: the
// shared engine memoizes nothing across jobs — the disk cache, not the
// heap, is the system of record.
func TestEphemeralEngineFootprint(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1})
	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if n := s.Engine().Distinct(); n != 0 {
		t.Errorf("engine retains %d memoized results; ephemeral mode must retain none", n)
	}
}

// gate installs a runBatch stub that blocks until released (or the
// job's context is cancelled), then runs the real engine. Installed
// before any Submit, so the executor goroutines observe it via the
// queue's channel ordering.
func gate(s *Server) (release func()) {
	ch := make(chan struct{})
	real := s.runBatch
	s.runBatch = func(ctx context.Context, pts []runner.Point) ([]*sim.Result, error) {
		select {
		case <-ch:
			return real(ctx, pts)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestQueueFullBackpressure fills the bounded admission queue and
// checks the overflow submission is rejected with ErrQueueFull (HTTP
// 429 + Retry-After at the API) rather than buffered.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Options{QueueCap: 1, Executors: 1})
	release := gate(s)
	defer release()

	st1, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st1.ID, StateRunning) // dequeued: the queue slot is free
	st2, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err %v, want ErrQueueFull", err)
	}

	// The same rejection over HTTP: 429 with a Retry-After hint.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workloads":"Stream","scale":0.05,"gpms":"1","bw":"2x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow POST: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks a Retry-After hint")
	}

	// Releasing the gate lets the queue drain normally.
	release()
	for _, id := range []string{st1.ID, st2.ID} {
		if fin, err := s.Wait(context.Background(), id); err != nil || fin.State != StateDone {
			t.Errorf("job %s after release: %+v, err %v", id, fin, err)
		}
	}
}

// TestCancelRunningJob cancels a job mid-flight: the engine batch is
// abandoned via context and the job lands in StateCancelled.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1})
	release := gate(s)
	defer release()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	if _, ok := s.Cancel(st.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	fin, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Errorf("cancelled job state = %s (%s), want cancelled", fin.State, fin.Error)
	}
	// Cancelling a terminal job is a harmless no-op.
	if st2, ok := s.Cancel(st.ID); !ok || st2.State != StateCancelled {
		t.Errorf("re-cancel: ok=%v state=%s", ok, st2.State)
	}
}

// TestCancelQueuedJob cancels a job that was never picked up.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{QueueCap: 2, Executors: 1})
	release := gate(s)
	defer release()

	st1, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st1.ID, StateRunning)
	st2, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, ok := s.Cancel(st2.ID); !ok || fin.State != StateCancelled {
		t.Fatalf("queued cancel: ok=%v state=%s", ok, fin.State)
	}
	release()
	if fin, err := s.Wait(context.Background(), st1.ID); err != nil || fin.State != StateDone {
		t.Errorf("survivor job: %+v, err %v", fin, err)
	}
}

// TestJobDeadline checks per-job timeouts: a job whose execution
// outlives TimeoutSeconds fails with the deadline error.
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Options{Executors: 1})
	release := gate(s) // never released: the job can only die by deadline
	defer release()

	spec := tinySpec()
	spec.TimeoutSeconds = 0.05
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "deadline") {
		t.Errorf("timed-out job = %s (%q), want failed with a deadline error", fin.State, fin.Error)
	}
}

// TestGracefulDrain starts a drain while a job is in flight: admission
// stops immediately, the in-flight job completes, and Drain returns.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1})
	release := gate(s)
	defer release()

	st, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	s.BeginDrain() // Drain's own BeginDrain may race our Submit below; force it first
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err %v, want ErrDraining", err)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if fin, _ := s.Status(st.ID); fin.State != StateDone {
		t.Errorf("in-flight job after drain = %s (%s), want done", fin.State, fin.Error)
	}
	// A bounded drain on an already-drained server returns instantly.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("idempotent drain: %v", err)
	}
}

// TestCorruptCacheFallsBackToRecompute truncates every cache entry on
// disk between two daemon lifetimes: the second daemon detects the
// corruption, recomputes, and rewrites clean entries.
func TestCorruptCacheFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{CacheDir: dir, Executors: 1})
	st, err := s1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := s1.Wait(context.Background(), st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("seed job: %+v, err %v", fin, err)
	}
	s1.Close()

	// Truncate every entry: simulates a torn disk / partial copy.
	n := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, data[:len(data)/3], 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("corrupting %d entries: %v", n, err)
	}

	s2 := newTestServer(t, Options{CacheDir: dir, Executors: 1})
	st2, err := s2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin, err := s2.Wait(context.Background(), st2.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("recompute job: %+v, err %v", fin, err)
	}
	if fin.CacheHits != 0 || fin.Submitted != fin.Points {
		t.Errorf("recompute counters = %+v, want every point re-submitted", fin)
	}
	cs := s2.Cache().Stats()
	if cs.Corrupt == 0 {
		t.Error("corruption went undetected")
	}
	if cs.Puts != uint64(fin.Points) {
		t.Errorf("clean entries rewritten = %d, want %d", cs.Puts, fin.Points)
	}

	// Third pass: the rewritten entries serve normally.
	st3, err := s2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin3, err := s2.Wait(context.Background(), st3.ID); err != nil || fin3.CacheHits != fin3.Points {
		t.Errorf("post-recovery job: %+v, err %v, want all cache hits", fin3, err)
	}
}

// TestCoalescing runs two identical jobs concurrently: the second
// joins the first's in-flight simulations instead of re-running them —
// each shared point executes exactly once, and the coalesce counters
// prove it.
func TestCoalescing(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), QueueCap: 4, Executors: 2})
	release := gate(s)
	defer release()

	st1, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until job 1 owns its flights (Submitted is set immediately
	// before the gated batch call).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := s.Status(st1.ID); st.Submitted == st.Points && st.Points > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never claimed its flights")
		}
		time.Sleep(2 * time.Millisecond)
	}

	st2, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 must join job 1's flights: coalesced on every point, with
	// nothing submitted and nothing served from disk.
	for {
		st, _ := s.Status(st2.ID)
		if st.Coalesced == st.Points && st.Points > 0 {
			if st.Submitted != 0 || st.CacheHits != 0 {
				t.Fatalf("job 2 counters = %+v, want pure coalescing", st)
			}
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job 2 finished before coalescing: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job 2 never coalesced")
		}
		time.Sleep(2 * time.Millisecond)
	}

	release()
	fin1, err1 := s.Wait(context.Background(), st1.ID)
	fin2, err2 := s.Wait(context.Background(), st2.ID)
	if err1 != nil || err2 != nil || fin1.State != StateDone || fin2.State != StateDone {
		t.Fatalf("jobs: %+v (%v), %+v (%v)", fin1, err1, fin2, err2)
	}
	// The acceptance criterion: each shared point simulated exactly once.
	if got := s.Engine().Stats().Simulated; got != fin1.Points {
		t.Errorf("engine simulated %d points for two identical jobs, want %d", got, fin1.Points)
	}
	if s.Coalesced() != fin1.Points {
		t.Errorf("service coalesced %d points, want %d", s.Coalesced(), fin1.Points)
	}
	_, r1, _ := s.Result(st1.ID)
	_, r2, _ := s.Result(st2.ID)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("point %d: coalesced jobs hold different result objects", i)
		}
	}
}

// TestPersistenceAcrossRestart is the restart half of the acceptance
// criterion: a second daemon on the same cache directory serves the
// sweep without simulating anything, and the result document is
// byte-identical.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	resultBytes := func(s *Server) ([]byte, JobStatus) {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c, _ := Dial(WithBaseURL(ts.URL))
		st, err := c.Submit(context.Background(), tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(context.Background(), st.ID, time.Millisecond)
		if err != nil || fin.State != StateDone {
			t.Fatalf("job: %+v, err %v", fin, err)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, fin
	}

	s1 := newTestServer(t, Options{CacheDir: dir, Executors: 1})
	cold, _ := resultBytes(s1)
	s1.Close()

	s2 := newTestServer(t, Options{CacheDir: dir, Executors: 1})
	warm, fin := resultBytes(s2)
	if fin.CacheHits != fin.Points || fin.Submitted != 0 {
		t.Errorf("restarted daemon counters = %+v, want all cache hits", fin)
	}
	if got := s2.Engine().Stats().Simulated; got != 0 {
		t.Errorf("restarted daemon simulated %d points, want 0", got)
	}
	if string(cold) != string(warm) {
		t.Errorf("result documents differ across restart:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestHTTPSurface exercises the /v1 API end to end over a real
// listener, including validation failures, 404s, premature result
// fetches, and the version endpoint.
func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := Dial(WithBaseURL(ts.URL))
	ctx := context.Background()

	if _, err := c.Submit(ctx, JobSpec{Workloads: "NoSuchWorkload"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := c.Submit(ctx, JobSpec{Workloads: "Stream", GPMs: "zero"}); err == nil {
		t.Error("bad grid accepted")
	}
	if _, err := c.Status(ctx, "jdeadbeef"); err == nil {
		t.Error("status of unknown job succeeded")
	}
	if _, err := c.Result(ctx, "jdeadbeef"); err == nil {
		t.Error("result of unknown job succeeded")
	}

	doc, err := c.RunSweep(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Points) != 2 || doc.Points[0].Workload != "Stream" || doc.Points[0].Result == nil {
		t.Fatalf("result doc = %+v", doc)
	}
	if doc.Points[0].SimKey == doc.Points[1].SimKey {
		t.Error("distinct grid points share a sim key")
	}

	v, err := c.Version(ctx)
	if err != nil || !strings.Contains(v, "gpujouled") {
		t.Errorf("version = %q, err %v", v, err)
	}

	// The introspection plane is mounted on the same handler, and the
	// scrape carries the service extensions.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gpujoule_result_cache_hits",
		"gpujoule_result_cache_misses",
		"gpujoule_service_coalesced_points",
		"gpujoule_queue_depth",
		"gpujoule_queue_capacity 16",
		`gpujoule_jobs{state="done"} 1`,
		"gpujoule_runner_workers",
		"gpujoule_gpm_parallel_lanes",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The jobs listing carries the finished job.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].State != StateDone {
		t.Errorf("jobs listing = %+v", list.Jobs)
	}
}

// TestJobRetention checks the registry bound: terminal jobs beyond
// KeepJobs are pruned oldest-first.
func TestJobRetention(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), Executors: 1, KeepJobs: 2, QueueCap: 8})
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, ok := s.Status(ids[0]); ok {
		t.Error("oldest job survived retention")
	}
	if _, ok := s.Status(ids[3]); !ok {
		t.Error("newest job was pruned")
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("retained %d jobs, want 2", got)
	}
}
