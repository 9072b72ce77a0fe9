package service

// The point-granular scheduler. Jobs are decomposed into their grid
// points at admission; the dispatcher hands points — never whole jobs
// — to the executor pool, picking the next point by
//
//  1. priority: among runnable jobs, the highest Spec.Priority wins.
//     A higher-priority arrival therefore preempts lower-priority
//     jobs at the next point boundary: in-flight points finish (a
//     point is the unit of work, never abandoned mid-simulation), and
//     every subsequent dispatch serves the newcomer first. Nothing is
//     lost — completed points are already published to the result
//     cache and recorded in the preempted job, which resumes exactly
//     where it stopped once the higher-priority work drains.
//  2. weighted-fair queuing across tenants within the winning
//     priority: each tenant carries a virtual time that advances by
//     1/weight per dispatched point; the backlogged tenant with the
//     smallest virtual time goes next. Over any sustained interval,
//     tenant throughput converges to the weight ratio, and a weight-1
//     tenant's virtual time is eventually undercut by every heavier
//     tenant's advance — no tenant starves within its priority class.
//  3. FIFO within a tenant: equal-priority jobs of one tenant run in
//     admission order, and each job's points dispatch in expansion
//     order (which maximizes the chance that a re-submitted prefix is
//     already cached).
//
// Coalescing is scheduler-native: when the next point's key is
// already in flight (owned by any job, any tenant), the dispatcher
// registers the point as a waiter on that flight instead of consuming
// an executor slot — joining costs nothing, so it bypasses both the
// slot pool and the tenant's in-flight quota.
//
// Reassembly is deterministic by construction: every point carries
// its index in the job's expansion order, results land in
// results[idx], and the result document is rendered from that slice —
// so the document is byte-identical to local execution regardless of
// how scheduling interleaved the points.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
)

// DefaultTenant is the tenant requests are accounted to when they
// carry no X-Tenant header (or an empty -tenant flag).
const DefaultTenant = "default"

// TenantConfig configures one tenant's share of the point scheduler.
type TenantConfig struct {
	// Weight is the tenant's weighted-fair share (minimum and default
	// 1): a weight-3 tenant receives 3 dispatched points for every 1 a
	// weight-1 tenant receives while both are backlogged.
	Weight int
	// MaxInflight caps the tenant's concurrently executing points
	// (0 = no per-tenant cap; the executor pool still bounds the
	// total). Coalesced joins are free and not counted.
	MaxInflight int
}

// tenantState is one tenant's live scheduling state. Guarded by the
// server's registry lock.
type tenantState struct {
	name   string
	weight int
	quota  int

	// vtime is the tenant's weighted-fair virtual finish time: it
	// advances by 1/weight per dispatched point, and is clamped up to
	// the scheduler's virtual clock when the tenant re-enters the
	// backlog so an idle tenant cannot bank credit.
	vtime float64

	inflight int    // owned in-flight points (quota accounting)
	jobs     []*Job // non-terminal jobs in admission order

	dispatched uint64 // lifetime dispatched points (owned + coalesced)
	coalesced  uint64 // lifetime coalesced joins
}

// queuedPoints is the tenant's backlog: points admitted but not yet
// dispatched.
func (t *tenantState) queuedPoints() int {
	n := 0
	for _, j := range t.jobs {
		n += len(j.pending)
	}
	return n
}

func (t *tenantState) removeJob(j *Job) {
	for i, jj := range t.jobs {
		if jj == j {
			t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
			return
		}
	}
}

// flight is one in-flight point resolution, keyed by the point's full
// cache identity. The owning job's executor resolves it; waiters are
// (job, point-index) claims recorded by the dispatcher that are
// settled when the flight completes.
type flight struct {
	waiters []pointClaim
	// done is closed when the flight settles (result cached or failed).
	// The /v1/cache?wait=1 handler blocks on it so a peer asking for an
	// in-flight key joins the cluster-wide singleflight instead of
	// triggering a duplicate computation on its own node.
	done chan struct{}
}

// pointClaim addresses one point slot of one job.
type pointClaim struct {
	j   *Job
	idx int
}

// pointTask is one owned point execution handed to an executor.
type pointTask struct {
	j   *Job
	idx int
	pt  runner.Point
	key string
}

// maxPointAttempts bounds re-dispatches of a single point. A point is
// only re-queued when the foreign flight it had joined was cancelled
// by its owner while this job is still live, so attempts are consumed
// by distinct foreign cancellations — runaway looping indicates a
// bug, not load.
const maxPointAttempts = 8

// Point sources, recorded per resolved point and reported in job
// events and counters.
const (
	srcSimulated = "simulated"
	srcCache     = "cache"
	srcCoalesced = "coalesced"
	srcPeer      = "peer"
)

// tenantLocked returns (creating on first use) the tenant's state.
// Caller holds s.mu.
func (s *Server) tenantLocked(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	t := s.tenants[name]
	if t == nil {
		cfg := s.opts.Tenants[name]
		if cfg.Weight <= 0 {
			cfg.Weight = 1
		}
		t = &tenantState{name: name, weight: cfg.Weight, quota: cfg.MaxInflight}
		s.tenants[name] = t
	}
	return t
}

// dispatcher is the scheduling loop: one goroutine that owns all
// dispatch decisions. It runs until the server is draining and every
// admitted job has reached a terminal state, then closes the executor
// channel.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.dispatchSomeLocked() {
			continue
		}
		if s.draining && s.allTerminalLocked() {
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
	close(s.execCh)
}

func (s *Server) allTerminalLocked() bool {
	for _, j := range s.jobs {
		if !j.status.State.Terminal() {
			return false
		}
	}
	return true
}

// dispatchSomeLocked reaps dead jobs and dispatches points until no
// candidate remains, reporting whether it made any progress.
func (s *Server) dispatchSomeLocked() bool {
	progress := s.reapLocked()
	for {
		j := s.pickLocked()
		if j == nil {
			return progress
		}
		s.dispatchHeadLocked(j)
		progress = true
	}
}

// reapLocked finalizes jobs whose context died while they still had
// undispatched work and own no in-flight points (jobs cancelled while
// queued by Close, or expired deadlines with no point to carry the
// error back). Jobs with owned in-flight points are finalized by
// their completion path instead.
func (s *Server) reapLocked() bool {
	progress := false
	for _, j := range s.jobs {
		if j.status.State.Terminal() || j.owned > 0 {
			continue
		}
		if err := j.liveCtx().Err(); err != nil {
			s.finalizeLocked(j, err)
			progress = true
		}
	}
	return progress
}

// runnableHeadLocked reports whether job j's head point can be
// dispatched right now, and whether doing so would coalesce onto an
// existing flight (which needs no executor slot and no quota).
func (s *Server) runnableHeadLocked(j *Job) (ok, coalesce bool) {
	if j.status.State.Terminal() || len(j.pending) == 0 || j.liveCtx().Err() != nil {
		return false, false
	}
	if _, inFlight := s.flights[j.keys[j.pending[0]]]; inFlight {
		return true, true
	}
	t := j.tenant
	if s.execFree <= 0 || (t.quota > 0 && t.inflight >= t.quota) {
		return false, false
	}
	return true, false
}

// pickLocked selects the next job to dispatch a point from:
// max priority first, then min tenant virtual time, then tenant name,
// then tenant admission order (t.jobs is FIFO and scanned in order).
func (s *Server) pickLocked() *Job {
	var best *Job
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tenants[name]
		// The tenant's candidate: its highest-priority runnable job,
		// ties broken by admission order (t.jobs is FIFO).
		var cand *Job
		for _, j := range t.jobs {
			ok, _ := s.runnableHeadLocked(j)
			if !ok {
				continue
			}
			if cand == nil || j.status.Spec.Priority > cand.status.Spec.Priority {
				cand = j
			}
		}
		if cand == nil {
			continue
		}
		if best == nil ||
			cand.status.Spec.Priority > best.status.Spec.Priority ||
			(cand.status.Spec.Priority == best.status.Spec.Priority && t.vtime < best.tenant.vtime) {
			best = cand
		}
	}
	return best
}

// dispatchHeadLocked dispatches job j's head point: either as a
// waiter on the flight already resolving its key (coalescing — free),
// or as an owned execution consuming an executor slot and tenant
// quota. Caller established runnability via pickLocked.
func (s *Server) dispatchHeadLocked(j *Job) {
	t := j.tenant
	idx := j.pending[0]
	j.pending = j.pending[1:]
	pt, key := j.points[idx], j.keys[idx]
	s.markRunningLocked(j)
	t.dispatched++

	if fl := s.flights[key]; fl != nil {
		fl.waiters = append(fl.waiters, pointClaim{j, idx})
		j.joined++
		j.status.Coalesced++
		s.coalesced++
		t.coalesced++
		return
	}

	s.flights[key] = &flight{done: make(chan struct{})}
	j.owned++
	t.inflight++
	t.vtime = math.Max(t.vtime, s.vclock) + 1/float64(t.weight)
	s.vclock = t.vtime - 1/float64(t.weight)
	s.execFree--
	// Never blocks: cap(execCh) == Executors and at most Executors
	// tasks are outstanding (execFree accounting).
	s.execCh <- pointTask{j: j, idx: idx, pt: pt, key: key}
}

// markRunningLocked transitions a queued job to running on its first
// dispatched point: the per-job deadline (if any) starts here, and a
// context watchdog wakes the dispatcher when the job dies so pending
// points are reaped promptly.
func (s *Server) markRunningLocked(j *Job) {
	if j.status.State != StateQueued {
		return
	}
	j.status.State = StateRunning
	j.status.Started = time.Now()
	if t := j.status.Spec.TimeoutSeconds; t > 0 {
		j.runCtx, j.runCancel = context.WithTimeout(j.ctx, time.Duration(t*float64(time.Second)))
	} else {
		j.runCtx, j.runCancel = context.WithCancel(j.ctx)
	}
	context.AfterFunc(j.runCtx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.appendEventLocked(j, JobEvent{Kind: EventState, State: StateRunning})
}

// executor is one worker of the point-execution pool: it resolves
// owned points (disk cache first, then the shared engine) and settles
// their flights.
func (s *Server) executor() {
	defer s.wg.Done()
	for task := range s.execCh {
		res, src, node, err := s.executePoint(task)
		s.completeFlight(task, res, src, node, err)
	}
}

// executePoint resolves one owned point: the disk cache first, then
// the cluster (when a fabric is wired in), then one single-point
// engine batch, publishing fresh results back to the cache and
// replicating them toward the key's ring owner. node names the cluster
// node that resolved the point ("" when it resolved here).
func (s *Server) executePoint(task pointTask) (*sim.Result, string, string, error) {
	if s.cache != nil {
		if res, ok := s.cache.Get(task.key); ok {
			return res, srcCache, "", nil
		}
	}
	s.mu.Lock()
	ctx := task.j.liveCtx()
	tenant, spec := task.j.status.Tenant, task.j.status.Spec
	s.mu.Unlock()
	if cl := s.opts.Cluster; cl != nil && cl.Resolve != nil {
		res, src, node, ok, err := cl.Resolve(ctx, tenant, spec, task.pt, task.key)
		if err != nil {
			return nil, "", "", err
		}
		if ok {
			if s.cache != nil {
				if perr := s.cache.Put(task.key, res); perr != nil {
					s.logf("service: caching %s result %s: %v", node, task.pt, perr)
				}
			}
			return res, src, node, nil
		}
	}
	s.mu.Lock()
	task.j.status.Submitted++
	s.mu.Unlock()
	rs, err := s.runBatch(ctx, []runner.Point{task.pt})
	var res *sim.Result
	if len(rs) > 0 {
		res = rs[0]
	}
	if err == nil && res == nil {
		err = fmt.Errorf("service: %s: no result", task.pt)
	}
	if err != nil {
		return nil, srcSimulated, "", err
	}
	if s.cache != nil {
		if perr := s.cache.Put(task.key, res); perr != nil {
			s.logf("service: caching %s: %v", task.pt, perr)
		}
	}
	if cl := s.opts.Cluster; cl != nil && cl.Replicate != nil {
		cl.Replicate(task.pt.Key(), task.key, res)
	}
	return res, srcSimulated, "", nil
}

// completeFlight settles an owned point execution: the flight is
// retired, the result (or error) is applied to the owner and every
// coalesced waiter, and the executor slot and tenant quota are
// released.
func (s *Server) completeFlight(task pointTask, res *sim.Result, src, node string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl := s.flights[task.key]
	delete(s.flights, task.key)
	if fl != nil {
		close(fl.done)
	}
	task.j.owned--
	task.j.tenant.inflight--
	s.execFree++
	s.recordPointLocked(task.j, task.idx, res, src, node, err, true)
	if fl != nil {
		for _, w := range fl.waiters {
			w.j.joined--
			s.recordPointLocked(w.j, w.idx, res, srcCoalesced, node, err, false)
		}
	}
	s.cond.Broadcast()
}

// recordPointLocked applies one point outcome to one job; node (the
// cluster node that resolved the point, "" for this one) rides on the
// point event. For owners any error is terminal for the job (the point
// ran under the job's own context, so a cancellation is the job's
// own). For waiters a foreign cancellation re-queues the point — the
// waiting job is still live and must not inherit its neighbour's
// cancellation — while real simulation errors propagate.
func (s *Server) recordPointLocked(j *Job, idx int, res *sim.Result, src, node string, err error, owner bool) {
	if j.status.State.Terminal() {
		return // late arrival after the job was cancelled or failed
	}
	if err == nil {
		if j.results[idx] == nil {
			j.resolved++
			j.status.PointsDone = j.resolved
		}
		j.results[idx] = res
		if src == srcCache {
			j.status.CacheHits++
		}
		if src == srcPeer {
			j.status.PeerHits++
			s.peerHits++
		}
		s.appendEventLocked(j, JobEvent{Kind: EventPoint, Index: idx, Source: src, Node: node})
		if j.resolved == len(j.points) {
			s.finalizeLocked(j, nil)
		}
		return
	}
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if owner || !cancelled {
		s.finalizeLocked(j, err)
		return
	}
	// A foreign flight died under its owner's cancellation. If this
	// job is still live, reclaim the point; it will re-dispatch (and
	// likely own its own flight) on the next scheduling pass.
	if cerr := j.liveCtx().Err(); cerr != nil {
		s.finalizeLocked(j, cerr)
		return
	}
	j.attempts[idx]++
	if j.attempts[idx] >= maxPointAttempts {
		s.finalizeLocked(j, fmt.Errorf("service: point %s re-dispatched %d times without converging", j.points[idx], maxPointAttempts))
		return
	}
	j.pending = append(j.pending, idx)
}

// throughputEstimator tracks recent per-point simulation cost (an
// EWMA over the engine's PointDone events) to turn queue depth into a
// time estimate for the 429 Retry-After hint.
type throughputEstimator struct {
	mu       sync.Mutex
	perPoint float64 // EWMA seconds per simulated point
	samples  uint64
}

// estimatorAlpha is the EWMA smoothing factor: ~the last 10 points
// dominate the estimate.
const estimatorAlpha = 0.2

func (e *throughputEstimator) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sec := d.Seconds()
	if e.samples == 0 {
		e.perPoint = sec
	} else {
		e.perPoint += estimatorAlpha * (sec - e.perPoint)
	}
	e.samples++
}

// estimate converts a backlog of queued points into a whole-seconds
// retry hint: backlog × recent per-point cost ÷ worker parallelism,
// clamped to [1, 600]. With no history yet it answers 1 — the
// pre-scheduler static hint.
func (e *throughputEstimator) estimate(queuedPoints, workers int) int {
	e.mu.Lock()
	perPoint := e.perPoint
	n := e.samples
	e.mu.Unlock()
	if n == 0 || queuedPoints <= 0 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	sec := math.Ceil(float64(queuedPoints) * perPoint / float64(workers))
	if sec < 1 {
		return 1
	}
	if sec > 600 {
		return 600
	}
	return int(sec)
}

// RetryAfterSeconds is the adaptive backpressure hint served with 429
// responses: the estimated time for the current point backlog to
// drain at the recently observed simulation throughput.
func (s *Server) RetryAfterSeconds() int {
	s.mu.Lock()
	queued := 0
	for _, j := range s.jobs {
		if !j.status.State.Terminal() {
			queued += len(j.pending) + j.owned
		}
	}
	s.mu.Unlock()
	return s.est.estimate(queued, s.eng.Workers())
}

// Preemptions reports the lifetime count of preemption events: a
// higher-priority arrival displacing an already-running job's pending
// points.
func (s *Server) Preemptions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preemptions
}
