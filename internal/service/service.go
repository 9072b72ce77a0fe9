// Package service implements gpujouled, the resident simulation
// service: a long-running daemon that accepts simulation and sweep
// jobs over HTTP, runs them on one shared run engine, and answers from
// a persistent content-addressed result cache so a warm point never
// simulates again — across requests and across restarts.
//
// The layering, outermost first:
//
//   - bounded admission with backpressure: jobs are accepted until
//     the registry holds QueueCap waiting jobs beyond the executor
//     pool, then rejected with 429 + an adaptive Retry-After (queued
//     points ÷ recent point throughput) so a sweep storm degrades
//     into client retries instead of memory growth. Accepted jobs run
//     under per-job deadlines and can be cancelled mid-flight.
//   - the point scheduler (scheduler.go): every job is decomposed
//     into its grid points at admission, and the dispatcher hands
//     points — not jobs — to the executor pool: priorities preempt at
//     point boundaries (losslessly — completed points are cached),
//     weighted-fair queuing shares the engine across tenants, and
//     per-point events feed SSE streams and partial-result reads.
//   - singleflight coalescing per simulation point: the first point
//     to need a key claims a flight; points of concurrent jobs
//     needing the same key join that flight instead of re-simulating.
//     Two tenants sweeping overlapping grids cost one simulation per
//     shared point.
//   - the disk cache (internal/resultcache): flight owners consult it
//     before simulating and publish into it after, so the next daemon
//     — not just the next request — starts warm. Entries are addressed
//     by simulation identity, obs schema, and binary version, which is
//     the whole invalidation story: a new schema or binary changes
//     every address, and stale entries simply become unreachable.
//   - one shared runner.Engine in ephemeral mode executes what is left:
//     the worker pool bounds concurrent simulations and nothing is
//     memoized in RAM (the disk cache is the system of record), so the
//     daemon's footprint stays bounded over weeks of traffic.
//
// Graceful drain: BeginDrain stops admission (503), in-flight and
// already-queued jobs run to completion, then the dispatcher and
// executors exit — wired to SIGTERM by cmd/gpujouled.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"time"

	"sync"
	"sync/atomic"

	"gpujoule/internal/dvfs"
	"gpujoule/internal/obs"
	"gpujoule/internal/profiling"
	"gpujoule/internal/resultcache"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are StateDone, StateFailed, and
// StateCancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec describes one sweep job, using the same comma-separated list
// syntax as the CLI flags so a curl body reads like a sweep invocation.
type JobSpec struct {
	// Workloads is the comma-separated Table II workload list
	// (ignored when All is set).
	Workloads string `json:"workloads,omitempty"`
	// All selects the full 14-workload evaluation subset.
	All bool `json:"all,omitempty"`
	// Scale is the workload scale factor (default 0.5).
	Scale float64 `json:"scale,omitempty"`
	// GPMs, BWs, and Topologies define the design grid (defaults
	// "1,2,4,8,16,32", "1x,2x,4x", "ring" — the cmd/sweep defaults).
	GPMs       string `json:"gpms,omitempty"`
	BWs        string `json:"bw,omitempty"`
	Topologies string `json:"topologies,omitempty"`
	// Baseline prepends each workload's 1-GPM reference point, the
	// sweep row layout required by the scaling metrics.
	Baseline bool `json:"baseline,omitempty"`
	// Priority orders jobs in the scheduler: a higher-priority job
	// preempts lower-priority work at the next point boundary
	// (default 0; negative priorities yield to the default).
	Priority int `json:"priority,omitempty"`
	// TimeoutSeconds bounds the job's execution once it starts running
	// (0 = no deadline).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// FreqMHz pins the whole grid to a K40 V/f-curve operating point:
	// every expanded grid config (baseline included) is stamped with
	// the matching (clock, voltage) pair, so the points get their own
	// cache identities. 0 is the nominal 1000 MHz and stamps nothing.
	// Ignored by explicit Points specs, whose configs ride verbatim.
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// Points, when non-empty, bypasses the grid syntax entirely: the
	// job is exactly this point list, in order, with no baseline
	// injection. This is the wire form a cluster gateway uses to run
	// one point of a sweep on its ring owner — the sim.Config rides along
	// verbatim (its JSON field names are part of the stable result
	// schema), so the point's simulation identity survives the hop
	// bit-for-bit. Workloads/All/GPMs/BWs/Topologies/Baseline are
	// ignored when set.
	Points []PointSpec `json:"points,omitempty"`
}

// PointSpec pins one explicit simulation point: a workload at a scale
// on a fully specified machine configuration. Unlike the grid fields
// it round-trips through JSON without re-deriving anything, which is
// what makes gateway-split sweeps resolve byte-identical results.
type PointSpec struct {
	// Workload is the Table II workload name.
	Workload string `json:"workload"`
	// Scale is the workload sizing factor (<= 0 inherits the job's
	// Scale, defaulting like the grid path).
	Scale float64 `json:"scale,omitempty"`
	// Config is the simulated machine, carried verbatim.
	Config sim.Config `json:"config"`
}

func (sp JobSpec) scale() float64 {
	if sp.Scale <= 0 {
		return 0.5
	}
	return sp.Scale
}

func (sp JobSpec) gridFields() (gpms, bws, topos string) {
	gpms, bws, topos = sp.GPMs, sp.BWs, sp.Topologies
	if gpms == "" {
		gpms = "1,2,4,8,16,32"
	}
	if bws == "" {
		bws = "1x,2x,4x"
	}
	if topos == "" {
		topos = "ring"
	}
	return
}

// names returns the workload list the spec resolves to, in the order
// points will be expanded.
func (sp JobSpec) names() []string {
	if len(sp.Points) > 0 {
		var out []string
		seen := map[string]bool{}
		for _, p := range sp.Points {
			if !seen[p.Workload] {
				seen[p.Workload] = true
				out = append(out, p.Workload)
			}
		}
		return out
	}
	if sp.All {
		var out []string
		for _, g := range workloads.Generators() {
			if g.InEval14 {
				out = append(out, g.Name)
			}
		}
		return out
	}
	return sim.SplitList(sp.Workloads)
}

// Validate checks the spec without building any traces: the grid (or
// every explicit point config) must validate and every workload name
// must exist.
func (sp JobSpec) Validate() error {
	if len(sp.Points) > 0 {
		for i, p := range sp.Points {
			if err := p.Config.Validate(); err != nil {
				return fmt.Errorf("service: point %d: %w", i, err)
			}
		}
	} else if _, err := sp.configs(); err != nil {
		return err
	}
	if len(sp.Points) == 0 && sp.FreqMHz != 0 {
		if _, err := dvfs.K40Curve().AtMHz(sp.FreqMHz); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	names := sp.names()
	if len(names) == 0 {
		return errors.New("service: job selects no workloads")
	}
	known := map[string]bool{}
	for _, n := range workloads.Names() {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("service: unknown workload %q (have %v)", n, workloads.Names())
		}
	}
	return nil
}

// configs expands the spec's design grid.
func (sp JobSpec) configs() ([]sim.Config, error) {
	gpms, bws, topos := sp.gridFields()
	grid, err := sim.ParseGrid(gpms, bws, topos)
	if err != nil {
		return nil, err
	}
	return grid.Configs(), nil
}

// JobStatus is the introspectable snapshot of one job, served by
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Tenant is the scheduling account the job is billed to.
	Tenant string `json:"tenant"`
	// Created, Started, and Finished timestamp the lifecycle (zero
	// until the state is reached).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Points is the job's expanded point count; PointsDone of them
	// have resolved so far (equal to Points on a done job).
	Points     int `json:"points"`
	PointsDone int `json:"points_done"`
	// CacheHits counts points served from the disk cache, Coalesced
	// points that joined another in-flight simulation, and Submitted
	// points handed to the simulation engine for this job. A fully
	// warm job reports CacheHits == Points and Submitted == 0.
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced"`
	Submitted int `json:"submitted"`
	// PeerHits counts points served from a cluster peer's cache
	// instead of recomputing (zero on single-node daemons).
	PeerHits int `json:"peer_hits,omitempty"`
	// Preemptions counts higher-priority arrivals that displaced this
	// job's pending points while it was running.
	Preemptions int `json:"preemptions,omitempty"`
	// Spec is the job's submitted specification.
	Spec JobSpec `json:"spec"`
}

// Err converts a terminal status into the error a caller should
// surface: nil for done, ErrCancelled (wrapped with the job id) for
// cancelled, and a descriptive failure otherwise. The one place the
// typed cancellation sentinel is minted client- and server-side.
func (st JobStatus) Err() error {
	switch st.State {
	case StateCancelled:
		return fmt.Errorf("%w (job %s)", ErrCancelled, st.ID)
	case StateFailed:
		return fmt.Errorf("service: job %s failed: %s", st.ID, st.Error)
	}
	return nil
}

// Job is one accepted sweep job. All fields are guarded by the
// server's registry lock; handlers only ever see Status snapshots.
type Job struct {
	status JobStatus
	tenant *tenantState

	// ctx is the job's admission-scoped context (cancelled by Cancel
	// and server Close); runCtx additionally carries the per-job
	// deadline and exists once the job starts running.
	ctx       context.Context
	cancel    context.CancelFunc
	runCtx    context.Context
	runCancel context.CancelFunc

	cancelRequested bool
	done            chan struct{} // closed on terminal state

	points   []runner.Point
	keys     []string // per-point cache keys, computed once at admission
	results  []*sim.Result
	pending  []int   // point indices awaiting dispatch, FIFO
	attempts []uint8 // per-point re-dispatch counts
	owned    int     // points executing in executor slots
	joined   int     // points waiting on foreign flights
	resolved int

	events []JobEvent
	notify chan struct{} // closed and replaced on every event append
	digest string        // sha256 of the result document (done jobs)
}

// liveCtx is the context the job's points run under: the deadline-
// carrying run context once running, the admission context before.
func (j *Job) liveCtx() context.Context {
	if j.runCtx != nil {
		return j.runCtx
	}
	return j.ctx
}

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent simulations of the shared engine
	// (<= 0 selects one per CPU).
	Workers int
	// Counters runs every simulation with the observability layer, so
	// cached results carry per-GPM/per-link counters. Part of the cache
	// key: counted and plain results never alias.
	Counters bool
	// CacheDir roots the persistent result cache; empty disables
	// persistence (coalescing still applies).
	CacheDir string
	// QueueCap bounds admission (default 16): a submit is rejected
	// with 429 once QueueCap + Executors jobs are admitted and not yet
	// terminal.
	QueueCap int
	// Executors bounds concurrently executing points (default 2).
	// Each executing point feeds the one shared engine, whose Workers
	// bound still governs simulation parallelism; coalesced points
	// join in-flight work without consuming an executor.
	Executors int
	// DefaultFreqMHz stamps grid jobs that did not pick an operating
	// point with this K40 V/f-curve frequency (0 leaves them at the
	// nominal 1000 MHz). Explicit-point jobs are never restamped.
	DefaultFreqMHz float64
	// Tenants configures per-tenant weights and in-flight quotas for
	// the weighted-fair scheduler. Tenants absent from the map get
	// weight 1 and no quota.
	Tenants map[string]TenantConfig
	// KeepJobs bounds retained terminal job records (default 64):
	// beyond it, the oldest finished jobs (and their results) are
	// dropped from the registry.
	KeepJobs int
	// Version is the string served by GET /v1/version (default
	// profiling.VersionString("gpujouled")).
	Version string
	// Logf, when non-nil, receives operational log lines (cache write
	// failures, drain progress).
	Logf func(format string, args ...any)
	// Cluster wires the node into a multi-node fabric
	// (internal/cluster). Nil for a single-node daemon — every hook is
	// optional and the zero behaviour is exactly the pre-cluster one.
	Cluster *ClusterHooks
}

// ClusterHooks are the seams a cluster fabric plugs into the service:
// the service stays ignorant of rings, peers, and HTTP — it only knows
// that a missing key may be answerable remotely, that fresh results
// may be worth replicating, and that some submissions belong
// elsewhere. internal/cluster provides the implementations.
type ClusterHooks struct {
	// Resolve answers a point the local disk cache missed from
	// elsewhere in the cluster: a ring node consults its peers' caches,
	// a gateway runs the point on the key's ring owner. It is called
	// with the point's live context, the owning job's tenant and spec
	// (priority and deadline ride along), the point, and its full cache
	// key. ok reports a verified remote result, with source naming how
	// it resolved ("cache", "simulated", "coalesced" or "peer") and
	// node the base URL that served it; with ok false the point runs on
	// the local engine. err is non-nil only when ctx died.
	Resolve func(ctx context.Context, tenant string, spec JobSpec, pt runner.Point, cacheKey string) (res *sim.Result, source, node string, ok bool, err error)
	// Replicate pushes a freshly computed result toward the key's
	// ring owner and successor, best-effort and asynchronous.
	Replicate func(simKey, cacheKey string, res *sim.Result)
	// RouteOwner reports the base URL of the healthy node that owns
	// simKey, or "" when this node should handle it itself (it is the
	// owner, or the reroute chain degraded to local compute). The
	// HTTP handler uses it to answer single-owner submissions with a
	// 307 to the owning node.
	RouteOwner func(simKey string) string
}

// Server is the resident simulation service.
type Server struct {
	opts    Options
	eng     *runner.Engine
	cache   *resultcache.Cache
	prof    *profiling.HTTPServer
	optsSig string
	est     *throughputEstimator

	baseCtx    context.Context
	baseCancel context.CancelFunc
	execCh     chan pointTask
	wg         sync.WaitGroup // dispatcher + executors

	// runBatch executes a batch of points; defaults to the shared
	// engine. A test seam for lifecycle tests that need slow or gated
	// executions.
	runBatch func(ctx context.Context, pts []runner.Point) ([]*sim.Result, error)

	// digestMismatches counts streaming clients that reported a digest
	// mismatch on their reassembled document (via the
	// X-GPUJoule-Digest-Mismatch header on the authoritative refetch).
	digestMismatches atomic.Uint64

	mu          sync.Mutex // guards everything below plus all Job/tenantState fields
	cond        *sync.Cond // broadcast on any scheduling-relevant change
	jobs        map[string]*Job
	order       []string
	tenants     map[string]*tenantState
	vclock      float64 // weighted-fair virtual clock
	execFree    int     // free executor slots
	flights     map[string]*flight
	draining    bool
	drained     bool
	coalesced   int
	preemptions uint64
	peerHits    uint64 // points served from a cluster peer's cache
}

// CacheStamp composes the producer stamp the service binds cache
// entries to: binary build version plus obs schema version. Either
// changing re-addresses every entry.
func CacheStamp() string {
	return fmt.Sprintf("%s|obs-schema=v%d", profiling.BuildVersion(), obs.SchemaVersion)
}

// New builds and starts a server: the dispatcher and executor pool
// are live on return and the handler (Handler) can be mounted
// immediately. Callers must Close (or Drain) it.
func New(opts Options) (*Server, error) {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.KeepJobs <= 0 {
		opts.KeepJobs = 64
	}
	if opts.Version == "" {
		opts.Version = profiling.VersionString("gpujouled")
	}
	if opts.DefaultFreqMHz != 0 {
		if _, err := dvfs.K40Curve().AtMHz(opts.DefaultFreqMHz); err != nil {
			return nil, fmt.Errorf("service: default operating point: %w", err)
		}
	}
	optsSig := "plain"
	if opts.Counters {
		optsSig = "counters"
	}
	s := &Server{
		opts:     opts,
		optsSig:  optsSig,
		est:      &throughputEstimator{},
		execCh:   make(chan pointTask, opts.Executors),
		execFree: opts.Executors,
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantState),
		flights:  make(map[string]*flight),
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.eng = runner.New(runner.Options{
		Workers:   opts.Workers,
		Counters:  opts.Counters,
		Ephemeral: true, // the disk cache is the system of record
		OnEvent: func(ev runner.Event) {
			if ev.Kind == runner.PointDone {
				s.prof.SetProgress(ev.Completed, ev.Total)
			}
		},
	})
	// The Retry-After estimator rides the engine's event fan-out: one
	// more subscriber on the same serialized stream the progress
	// gauge uses.
	s.eng.Subscribe(func(ev runner.Event) {
		if ev.Kind == runner.PointDone && ev.Err == nil && ev.Elapsed > 0 {
			s.est.observe(ev.Elapsed)
		}
	})
	s.runBatch = s.eng.Run
	if opts.CacheDir != "" {
		cache, err := resultcache.Open(opts.CacheDir, CacheStamp())
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	s.prof = profiling.NewServer(s.eng.Profile)
	s.prof.AddMetrics(s.writeServiceMetrics)
	s.wg.Add(1)
	go s.dispatcher()
	for i := 0; i < opts.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// Engine exposes the shared run engine (for introspection and tests).
func (s *Server) Engine() *runner.Engine { return s.eng }

// AddMetrics registers an extra emitter on the node's /metrics scrape
// — the seam the cluster fabric uses to publish its families alongside
// the service plane's.
func (s *Server) AddMetrics(emit func(io.Writer)) { s.prof.AddMetrics(emit) }

// Cache exposes the result cache (nil when persistence is disabled).
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// Coalesced reports the lifetime count of points that joined another
// in-flight simulation.
func (s *Server) Coalesced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coalesced
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Errors returned by Submit and surfaced through job statuses,
// mirrored onto HTTP statuses by the handler (429, 503) and preserved
// as sentinels by the client.
var (
	// ErrQueueFull reports that admission is at capacity.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining reports that the server is shutting down and no
	// longer accepts jobs.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrCancelled reports that a job was cancelled — while queued or
	// mid-flight — rather than failing. JobStatus.Err returns it
	// (wrapped) for cancelled jobs on both the server and the client.
	ErrCancelled = errors.New("service: job cancelled")
)

// Submit validates and enqueues a job for the default tenant,
// returning its queued status.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitTenant("", spec)
}

// SubmitTenant validates and enqueues a job billed to the given
// tenant (empty selects DefaultTenant). The job's points are expanded
// here, so the returned status carries the exact point count and the
// scheduler can dispatch at point granularity.
func (s *Server) SubmitTenant(tenant string, spec JobSpec) (JobStatus, error) {
	if spec.FreqMHz == 0 && len(spec.Points) == 0 {
		spec.FreqMHz = s.opts.DefaultFreqMHz
	}
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	pts, err := ExpandPoints(spec)
	if err != nil {
		return JobStatus{}, err
	}
	id, err := newID()
	if err != nil {
		return JobStatus{}, err
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	pending := make([]int, len(pts))
	keys := make([]string, len(pts))
	for i, pt := range pts {
		pending[i] = i
		keys[i] = s.cacheKey(pt)
	}
	j := &Job{
		status: JobStatus{
			ID:      id,
			State:   StateQueued,
			Tenant:  tenant,
			Created: time.Now(),
			Points:  len(pts),
			Spec:    spec,
		},
		points:   pts,
		keys:     keys,
		results:  make([]*sim.Result, len(pts)),
		pending:  pending,
		attempts: make([]uint8, len(pts)),
		done:     make(chan struct{}),
		notify:   make(chan struct{}),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	admitted := 0
	for _, jj := range s.jobs {
		if !jj.status.State.Terminal() {
			admitted++
		}
	}
	if admitted >= s.opts.QueueCap+s.opts.Executors {
		return JobStatus{}, ErrQueueFull
	}
	t := s.tenantLocked(tenant)
	if t.queuedPoints() == 0 {
		// Re-entering the backlog: forfeit banked idle time.
		if t.vtime < s.vclock {
			t.vtime = s.vclock
		}
	}
	j.tenant = t
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.jobs[id] = j
	s.order = append(s.order, id)
	t.jobs = append(t.jobs, j)
	// Preemption accounting: this arrival displaces the pending
	// points of every running lower-priority job.
	for _, jj := range s.jobs {
		if jj != j && jj.status.State == StateRunning &&
			jj.status.Spec.Priority < spec.Priority && len(jj.pending) > 0 {
			jj.status.Preemptions++
			s.preemptions++
		}
	}
	s.appendEventLocked(j, JobEvent{Kind: EventState, State: StateQueued})
	s.cond.Broadcast()
	return j.status, nil
}

// Status returns a job's snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status, true
}

// Jobs lists all retained jobs in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.status)
		}
	}
	return out
}

// Cancel requests cancellation: a job with no owned in-flight points
// is finished immediately with ErrCancelled; one with points
// executing has its context cancelled, and the last point completion
// finalizes it (the engine abandons unstarted points promptly).
// Either way the job's completed points are already in the result
// cache, so a re-submission resumes from pure cache hits. Cancelling
// a terminal job is a no-op.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	if j.status.State.Terminal() {
		return j.status, true
	}
	j.cancelRequested = true
	j.cancel()
	if j.owned == 0 {
		s.finalizeLocked(j, ErrCancelled)
	}
	s.cond.Broadcast()
	return j.status, true
}

// Wait blocks until the job reaches a terminal state or the context
// expires.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no such job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	st, _ := s.Status(id)
	return st, nil
}

// Result returns a done job's point results in expansion order.
func (s *Server) Result(id string) ([]runner.Point, []*sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.status.State != StateDone {
		return nil, nil, false
	}
	return j.points, j.results, true
}

// BeginDrain stops admission: subsequent Submit calls fail with
// ErrDraining, queued and running jobs complete, and the dispatcher
// and executors exit once every job is terminal. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.cond.Broadcast()
}

// Drain gracefully shuts the job plane down: admission stops and the
// call blocks until every accepted job has completed or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.drained = true
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Close shuts down immediately: running jobs are cancelled, then the
// scheduler goroutines are awaited. For a graceful stop call Drain
// first.
func (s *Server) Close() {
	s.BeginDrain()
	s.baseCancel()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// finalizeLocked moves a job to its terminal state, releases its
// contexts and pending work, and prunes old terminal records beyond
// the retention bound. Caller holds s.mu.
func (s *Server) finalizeLocked(j *Job, err error) {
	if j.status.State.Terminal() {
		return
	}
	j.status.Finished = time.Now()
	j.pending = nil
	switch {
	case err == nil:
		j.status.State = StateDone
		j.digest = ResultDocDigest(MakeResultDoc(j.points, j.results))
	case j.cancelRequested || errors.Is(err, ErrCancelled) || errors.Is(err, context.Canceled):
		j.status.State = StateCancelled
		j.status.Error = ErrCancelled.Error()
	default:
		j.status.State = StateFailed
		j.status.Error = err.Error()
	}
	if j.runCancel != nil {
		j.runCancel()
	}
	if j.cancel != nil {
		j.cancel()
	}
	if j.tenant != nil {
		j.tenant.removeJob(j)
	}
	s.appendEventLocked(j, JobEvent{Kind: EventDone, State: j.status.State})
	close(j.done)
	s.cond.Broadcast()

	// Retention: drop the oldest terminal jobs beyond KeepJobs.
	terminal := 0
	for _, id := range s.order {
		if jj, ok := s.jobs[id]; ok && jj.status.State.Terminal() {
			terminal++
		}
	}
	for i := 0; terminal > s.opts.KeepJobs && i < len(s.order); i++ {
		id := s.order[i]
		jj, ok := s.jobs[id]
		if !ok || !jj.status.State.Terminal() {
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		i--
		terminal--
	}
}

// ExpandPoints builds the job's point sequence. Grid specs expand to
// the sweep row layout over the spec's workloads and design grid
// (shared with cmd/sweep through runner.GridPoints, so service and
// local execution resolve identical point sequences); explicit
// Points specs expand to exactly the listed points, in order. A
// cluster gateway admits through the same SubmitTenant as a node, which
// is why a sweep resolved across the ring renders the byte-identical
// document.
func ExpandPoints(spec JobSpec) ([]runner.Point, error) {
	if len(spec.Points) > 0 {
		return expandExplicit(spec)
	}
	cfgs, err := spec.configs()
	if err != nil {
		return nil, err
	}
	params := workloads.Params{Scale: spec.scale()}
	var apps []*trace.App
	for _, name := range spec.names() {
		app, err := workloads.ByName(name, params)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
	}
	pts := runner.GridPoints(apps, spec.scale(), spec.Baseline, cfgs...)
	if spec.FreqMHz != 0 {
		p, err := dvfs.K40Curve().AtMHz(spec.FreqMHz)
		if err != nil {
			return nil, err
		}
		for i := range pts {
			pts[i].Config = dvfs.Apply(pts[i].Config, p)
		}
	}
	return pts, nil
}

// expandExplicit resolves an explicit point list. Workload traces are
// built once per (name, scale) and shared across points, mirroring the
// app reuse of the grid path.
func expandExplicit(spec JobSpec) ([]runner.Point, error) {
	type appKey struct {
		name  string
		scale float64
	}
	apps := map[appKey]*trace.App{}
	pts := make([]runner.Point, 0, len(spec.Points))
	for _, p := range spec.Points {
		scale := p.Scale
		if scale <= 0 {
			scale = spec.scale()
		}
		k := appKey{p.Workload, scale}
		app, ok := apps[k]
		if !ok {
			var err error
			app, err = workloads.ByName(p.Workload, workloads.Params{Scale: scale})
			if err != nil {
				return nil, err
			}
			apps[k] = app
		}
		pts = append(pts, runner.Point{App: app, Scale: scale, Config: p.Config})
	}
	return pts, nil
}

// SpecFor inverts ExpandPoints for a point subset: the explicit-point
// JobSpec that resolves exactly pts, carrying priority and deadline
// from the parent spec. A gateway uses it to run one point on the
// point's ring owner.
func SpecFor(parent JobSpec, pts []runner.Point) JobSpec {
	sub := JobSpec{
		Priority:       parent.Priority,
		TimeoutSeconds: parent.TimeoutSeconds,
		Points:         make([]PointSpec, len(pts)),
	}
	for i, pt := range pts {
		sub.Points[i] = PointSpec{Workload: pt.App.Name, Scale: pt.Scale, Config: pt.Config}
	}
	return sub
}

// cacheKey is a point's full cache identity: the runner's canonical
// memoization key plus the engine's observability option signature
// (counted and plain results are different documents).
func (s *Server) cacheKey(pt runner.Point) string {
	return pt.Key() + "|obs=" + s.optsSig
}

// writeServiceMetrics extends the /metrics scrape with the service
// plane: result-cache counters, coalescing, scheduler and per-tenant
// gauges, preemptions, the adaptive retry hint, and job states.
func (s *Server) writeServiceMetrics(w io.Writer) {
	if s.cache != nil {
		cs := s.cache.Stats()
		profiling.WriteCounter(w, "gpujoule_result_cache_hits", "Disk result-cache hits.", float64(cs.Hits))
		profiling.WriteCounter(w, "gpujoule_result_cache_misses", "Disk result-cache misses.", float64(cs.Misses))
		profiling.WriteCounter(w, "gpujoule_result_cache_puts", "Disk result-cache entries written.", float64(cs.Puts))
		profiling.WriteCounter(w, "gpujoule_result_cache_corrupt", "Corrupt result-cache entries dropped.", float64(cs.Corrupt))
	}
	retryAfter := s.RetryAfterSeconds()
	s.mu.Lock()
	coalesced := s.coalesced
	preemptions := s.preemptions
	peerHits := s.peerHits
	queuedJobs, queuedPoints, inflightPoints := 0, 0, 0
	// Operating point of the most recently admitted live job (nominal
	// jobs report 1000 MHz; 0 means no live job).
	opMHz := 0.0
	for _, id := range s.order {
		jj, ok := s.jobs[id]
		if !ok || jj.status.State.Terminal() {
			continue
		}
		if opMHz = jj.status.Spec.FreqMHz; opMHz == 0 {
			opMHz = sim.NominalClockHz / 1e6
		}
	}
	states := map[State]int{}
	for _, jj := range s.jobs {
		states[jj.status.State]++
		if jj.status.State == StateQueued {
			queuedJobs++
		}
		if !jj.status.State.Terminal() {
			queuedPoints += len(jj.pending)
			inflightPoints += jj.owned
		}
	}
	type tenantRow struct {
		name                string
		weight, queued, inf int
		dispatched, coal    uint64
	}
	var rows []tenantRow
	for name, t := range s.tenants {
		rows = append(rows, tenantRow{name, t.weight, t.queuedPoints(), t.inflight, t.dispatched, t.coalesced})
	}
	s.mu.Unlock()
	sortTenantRows := func() {
		for i := 1; i < len(rows); i++ {
			for k := i; k > 0 && rows[k].name < rows[k-1].name; k-- {
				rows[k], rows[k-1] = rows[k-1], rows[k]
			}
		}
	}
	sortTenantRows()

	profiling.WriteCounter(w, "gpujoule_service_coalesced_points", "Points that joined another job's in-flight simulation.", float64(coalesced))
	profiling.WriteCounter(w, "gpujoule_sched_preemptions_total", "Higher-priority arrivals that displaced running lower-priority jobs.", float64(preemptions))
	profiling.WriteCounter(w, "gpujoule_service_peer_hit_points", "Points served from a cluster peer's cache instead of recomputing.", float64(peerHits))
	profiling.WriteCounter(w, "gpujoule_stream_digest_mismatch_total", "Streaming clients that reported a digest mismatch on their reassembled document.", float64(s.digestMismatches.Load()))
	profiling.WriteGauge(w, "gpujoule_queue_depth", "Jobs admitted and not yet running.", float64(queuedJobs))
	profiling.WriteGauge(w, "gpujoule_queue_capacity", "Admission capacity beyond the executor pool.", float64(s.opts.QueueCap))
	profiling.WriteGauge(w, "gpujoule_sched_queued_points", "Points admitted and not yet dispatched.", float64(queuedPoints))
	profiling.WriteGauge(w, "gpujoule_sched_inflight_points", "Points executing in executor slots.", float64(inflightPoints))
	profiling.WriteGauge(w, "gpujoule_retry_after_hint_seconds", "Current adaptive 429 Retry-After hint.", float64(retryAfter))
	profiling.WriteGauge(w, "gpujoule_operating_point_mhz", "DVFS operating-point clock of the most recently admitted live job (0 = idle).", opMHz)

	writeTenantFamily := func(name, help, typ string, value func(tenantRow) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, r := range rows {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, r.name, value(r))
		}
	}
	if len(rows) > 0 {
		writeTenantFamily("gpujoule_tenant_weight", "Configured weighted-fair share.", "gauge",
			func(r tenantRow) float64 { return float64(r.weight) })
		writeTenantFamily("gpujoule_tenant_queued_points", "Points admitted and not yet dispatched, per tenant.", "gauge",
			func(r tenantRow) float64 { return float64(r.queued) })
		writeTenantFamily("gpujoule_tenant_inflight_points", "Points executing in executor slots, per tenant.", "gauge",
			func(r tenantRow) float64 { return float64(r.inf) })
		writeTenantFamily("gpujoule_tenant_dispatched_points_total", "Lifetime dispatched points, per tenant.", "counter",
			func(r tenantRow) float64 { return float64(r.dispatched) })
		writeTenantFamily("gpujoule_tenant_coalesced_points_total", "Lifetime coalesced joins, per tenant.", "counter",
			func(r tenantRow) float64 { return float64(r.coal) })
	}
	fmt.Fprintf(w, "# HELP gpujoule_jobs Jobs in the registry by state.\n# TYPE gpujoule_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "gpujoule_jobs{state=%q} %d\n", st, states[st])
	}
}

// newID mints a random job id.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: minting job id: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}
