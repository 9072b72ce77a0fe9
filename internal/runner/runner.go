// Package runner is the shared concurrent execution engine for
// simulation point grids. Every evaluation in the paper is a grid of
// independent (workload × GPM count × bandwidth × topology) points;
// this package runs such grids across a worker pool, deduplicates and
// memoizes points by a canonical key (so Figs. 6/7/8, the ablations,
// and the EDPSE tables all share one simulation of a shared point),
// supports context cancellation, and returns results in deterministic
// input order regardless of completion order.
//
// Each sim.GPU is built per point and never shared, and sim.Simulate is a
// pure function of (Config, App), so parallel execution is
// byte-identical to the old serial loops: the engine owns all shared
// state (the cache and the progress counters), and the simulator
// touches none.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"gpujoule/internal/obs"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
)

// Point is one simulation to execute: a workload at a sizing scale on
// one machine configuration.
type Point struct {
	// App is the workload trace. The scale it was built at must be
	// recorded in Scale, since the trace itself does not carry it.
	App *trace.App
	// Scale is the workload sizing factor the app was generated with;
	// it is part of the memoization key.
	Scale float64
	// Config is the simulated machine.
	Config sim.Config
}

// Key returns the canonical memoization key of the point. Two points
// with equal keys produce identical simulation results: the config
// part normalizes away fields the simulator never reads (integration
// domain, and fabric parameters of single-module designs).
func (p Point) Key() string {
	return fmt.Sprintf("%s|%g|%s", p.App.Name, p.Scale, p.Config.SimKey())
}

func (p Point) String() string {
	return fmt.Sprintf("%s on %s", p.App.Name, p.Config.Name())
}

// EventKind tags a progress event.
type EventKind uint8

// Progress event kinds.
const (
	// PointStarted fires when a worker begins simulating a point.
	PointStarted EventKind = iota
	// PointDone fires when a point resolves — simulated, served from
	// cache, or failed.
	PointDone
)

// Event is one progress notification. Callbacks (the Options.OnEvent
// hook and every Subscribe subscriber) are serialized by the engine;
// they may be invoked from worker goroutines.
type Event struct {
	Kind  EventKind
	Point Point
	// CacheHit reports whether the point was served without simulating
	// in this Run call (only meaningful for PointDone).
	CacheHit bool
	// Coalesced refines CacheHit: the point attached to a simulation
	// that was still in flight when the point was claimed, rather than
	// to an already-resolved memo entry. For such points the result is
	// not available yet at event time.
	Coalesced bool
	// Err is the point's failure, if any (PointDone only).
	Err error
	// Completed and Total are the batch progress counters at the time
	// of the event.
	Completed, Total int
	// Elapsed is the point's simulation wall time (PointDone after a
	// real simulation; zero for cache hits).
	Elapsed time.Duration
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// OnEvent, when non-nil, receives serialized progress events.
	OnEvent func(Event)
	// Counters enables the observability layer (sim.WithCounters) on
	// every point the engine simulates: results carry per-GPM and
	// per-link counter snapshots. Counters are deterministic across
	// worker counts, and memoized results share one snapshot.
	Counters bool
	// SampleInterval, when positive, additionally records a coarse
	// time series every interval cycles (sim.WithSampler; implies
	// Counters).
	SampleInterval float64
	// Trace enables timeline recording (sim.WithTrace; implies
	// Counters): results carry a Result.Trace renderable as a Chrome
	// trace_event file.
	Trace bool
	// Ephemeral disables cross-batch memoization: a resolved entry is
	// evicted as soon as it is published, so the engine holds no result
	// in memory once every claimant of the entry has been served.
	// In-flight deduplication is unaffected — concurrent claims of one
	// key still share a single simulation. Long-running services that
	// keep their own (disk-backed) result cache use this to keep the
	// engine's memory footprint bounded.
	Ephemeral bool
}

// Stats is a snapshot of an engine's lifetime counters.
type Stats struct {
	// Simulated counts real simulator executions.
	Simulated int
	// CacheHits counts points served from the memo cache (including
	// duplicates within one batch).
	CacheHits int
	// Coalesced counts the subset of CacheHits that attached to a
	// simulation still in flight when claimed — the points that shared
	// one execution with a concurrent claimant instead of reading a
	// resolved memo entry.
	Coalesced int
	// Failed counts simulator executions that resolved with an error
	// (including cancellation). Failed entries are never memoized, so a
	// retried point that later succeeds counts under both.
	Failed int
	// SimWall is the cumulative wall time spent inside sim.Simulate; with
	// multiple workers it exceeds elapsed time.
	SimWall time.Duration
	// Instructions is the cumulative warp-instruction count over all
	// real simulations — the denominator of the engine-wide
	// ns/instruction throughput figure.
	Instructions uint64
}

// Engine executes simulation points across a worker pool with
// memoization. The zero value is not usable; construct with New. An
// Engine is safe for concurrent use.
type Engine struct {
	workers   int
	onEvent   func(Event)
	simOpts   []sim.Option
	ephemeral bool

	evMu   sync.Mutex // serializes event delivery, guards subs
	subs   map[int]func(Event)
	subSeq int

	mu        sync.Mutex
	cache     map[string]*entry
	stats     Stats
	batchWall time.Duration      // completed batches only
	active    map[int]time.Time  // start times of in-flight Run calls
	batchSeq  int                // next active-batch id
	timings   []obs.PointProfile // one entry per real simulation
}

// entry is one memoized (or in-flight) point. done is closed exactly
// once, after res/err are set; failed entries are evicted from the
// cache so errors are never memoized. name is the claiming point's
// human label, fixed at claim time so Traces can attribute memoized
// results without re-deriving point identity.
type entry struct {
	done chan struct{}
	name string
	res  *sim.Result
	err  error
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var simOpts []sim.Option
	if opts.Counters {
		simOpts = append(simOpts, sim.WithCounters())
	}
	if opts.SampleInterval > 0 {
		simOpts = append(simOpts, sim.WithSampler(opts.SampleInterval))
	}
	if opts.Trace {
		simOpts = append(simOpts, sim.WithTrace())
	}
	return &Engine{
		workers:   w,
		onEvent:   opts.OnEvent,
		simOpts:   simOpts,
		ephemeral: opts.Ephemeral,
		cache:     make(map[string]*entry),
		active:    make(map[int]time.Time),
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Distinct reports how many distinct simulations the cache holds.
func (e *Engine) Distinct() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Stats returns a snapshot of the engine's counters.
// Traces returns the timeline trace of every resolved point in the
// memo cache, one obs.PointTrace per distinct simulation, sorted by
// point name so the rendered Chrome file is deterministic regardless
// of resolution order. Empty unless the engine was built with
// Options.Trace; in-flight and failed points are skipped.
func (e *Engine) Traces() []obs.PointTrace {
	e.mu.Lock()
	entries := make([]*entry, 0, len(e.cache))
	for _, ent := range e.cache {
		entries = append(entries, ent)
	}
	e.mu.Unlock()
	var out []obs.PointTrace
	for _, ent := range entries {
		select {
		case <-ent.done:
		default:
			continue // still in flight
		}
		if ent.err == nil && ent.res != nil && ent.res.Trace != nil {
			out = append(out, obs.PointTrace{Name: ent.name, Trace: ent.res.Trace})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Subscribe registers an additional progress-event listener and
// returns its cancel function. Subscribers receive the same serialized
// event stream as Options.OnEvent (every listener observes events in
// one global order), so several independent consumers — a progress
// display, a throughput estimator, a per-job streaming fan-out — can
// follow one engine without coordinating. Cancel is idempotent and
// safe to call while events are being delivered; it returns only after
// any in-progress delivery to the subscriber has completed.
func (e *Engine) Subscribe(fn func(Event)) (cancel func()) {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	if e.subs == nil {
		e.subs = make(map[int]func(Event))
	}
	id := e.subSeq
	e.subSeq++
	e.subs[id] = fn
	return func() {
		e.evMu.Lock()
		delete(e.subs, id)
		e.evMu.Unlock()
	}
}

func (e *Engine) emit(ev Event) {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	if e.onEvent != nil {
		e.onEvent(ev)
	}
	if len(e.subs) == 0 {
		return
	}
	// Deliver in subscription order so the stream every listener sees
	// is deterministic given a deterministic event order.
	ids := make([]int, 0, len(e.subs))
	for id := range e.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e.subs[id](ev)
	}
}

// job is one cache entry this batch claimed and must resolve.
type job struct {
	pt  Point
	key string
	ent *entry
}

// Run executes the given points and returns their results in input
// order. Duplicate points (and points already memoized by earlier
// calls) are simulated once. On failure the returned slice still holds
// every result that resolved (nil for the rest) alongside a non-nil
// error; a cancelled context returns promptly with an error wrapping
// ctx.Err(). Workers always drain their claimed work — cancelled
// entries fail fast and are evicted, never left pending.
func (e *Engine) Run(ctx context.Context, points []Point) ([]*sim.Result, error) {
	// Track the batch in the active set while it runs, so Profile can
	// report a live wall clock (and a meaningful occupancy) to /metrics
	// readers before the batch completes.
	e.mu.Lock()
	batchID := e.batchSeq
	e.batchSeq++
	e.active[batchID] = time.Now()
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.batchWall += time.Since(e.active[batchID])
		delete(e.active, batchID)
		e.mu.Unlock()
	}()

	total := len(points)
	entries := make([]*entry, total)
	var jobs []job

	// hit is a point served without simulating in this call: either an
	// already-resolved memo entry or a coalesced join onto an entry
	// still in flight.
	type hit struct {
		pt        Point
		coalesced bool
	}
	var hits []hit

	// Claim or reuse a cache entry per point. Holding the lock across
	// the whole loop also dedupes within the batch: the second
	// occurrence of a key finds the entry the first one claimed.
	e.mu.Lock()
	for i, p := range points {
		k := p.Key()
		if ent, ok := e.cache[k]; ok {
			entries[i] = ent
			h := hit{pt: p}
			select {
			case <-ent.done:
			default:
				h.coalesced = true
				e.stats.Coalesced++
			}
			hits = append(hits, h)
			continue
		}
		ent := &entry{done: make(chan struct{}), name: p.String()}
		e.cache[k] = ent
		entries[i] = ent
		jobs = append(jobs, job{pt: p, key: k, ent: ent})
	}
	e.stats.CacheHits += len(hits)
	e.mu.Unlock()

	// Worker pool over the claimed jobs. The channel is pre-filled and
	// closed, so workers exit as soon as it drains; on cancellation
	// they fail the remaining claims instead of simulating them.
	var completed int
	var cmu sync.Mutex
	tick := func() int {
		cmu.Lock()
		defer cmu.Unlock()
		completed++
		return completed
	}

	for _, h := range hits {
		e.emit(Event{Kind: PointDone, Point: h.pt, CacheHit: true, Coalesced: h.coalesced,
			Completed: tick(), Total: total})
	}

	jobCh := make(chan job, len(jobs))
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)

	nw := e.workers
	if nw > len(jobs) {
		nw = len(jobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if err := ctx.Err(); err != nil {
					e.resolve(j, nil, err, 0)
					e.emit(Event{Kind: PointDone, Point: j.pt, Err: err, Completed: tick(), Total: total})
					continue
				}
				e.emit(Event{Kind: PointStarted, Point: j.pt, Total: total})
				start := time.Now()
				res, err := sim.Simulate(ctx, j.pt.Config, j.pt.App, e.simOpts...)
				if err != nil {
					err = fmt.Errorf("runner: %s: %w", j.pt, err)
				}
				elapsed := time.Since(start)
				e.resolve(j, res, err, elapsed)
				e.emit(Event{Kind: PointDone, Point: j.pt, Err: err,
					Completed: tick(), Total: total, Elapsed: elapsed})
			}
		}()
	}

	// Collect in input order. A point claimed by a concurrent Run call
	// resolves when that call's worker finishes it; on cancellation we
	// stop waiting rather than block on foreign in-flight work.
	results := make([]*sim.Result, total)
	var errs []error
	gathered := 0
	for i, ent := range entries {
		select {
		case <-ent.done:
			if ent.err != nil {
				errs = append(errs, ent.err)
			} else {
				results[i] = ent.res
				gathered++
			}
		case <-ctx.Done():
			wg.Wait() // our own workers fail fast once ctx is done
			return results, fmt.Errorf("runner: cancelled after %d/%d points: %w",
				gathered, total, context.Cause(ctx))
		}
	}
	wg.Wait()

	if len(errs) > 0 {
		return results, errors.Join(errs...)
	}
	return results, nil
}

// resolve publishes a job's outcome and updates cache bookkeeping.
// Failed entries are evicted so transient errors (cancellation above
// all) are retried by later calls; waiters holding the entry pointer
// still observe the error through it. An ephemeral engine also evicts
// successful entries: every claimant captured the entry pointer before
// resolution, so eviction only forgets the result, never loses it.
func (e *Engine) resolve(j job, res *sim.Result, err error, elapsed time.Duration) {
	j.ent.res, j.ent.err = res, err
	e.mu.Lock()
	if err != nil || e.ephemeral {
		if e.cache[j.key] == j.ent {
			delete(e.cache, j.key)
		}
	}
	if err != nil {
		e.stats.Failed++
	}
	if err == nil {
		e.stats.Simulated++
		e.stats.SimWall += elapsed
		pp := obs.PointProfile{
			Point:   j.pt.String(),
			Seconds: elapsed.Seconds(),
		}
		insts := res.Counts.TotalWarpInstructions()
		e.stats.Instructions += insts
		if insts > 0 {
			pp.NsPerInstruction = float64(elapsed.Nanoseconds()) / float64(insts)
		}
		e.timings = append(e.timings, pp)
	}
	e.mu.Unlock()
	close(j.ent.done)
}

// profileSlowest bounds the Slowest list of a runner profile.
const profileSlowest = 10

// Profile snapshots the engine's lifetime execution profile: point and
// cache counters, cumulative simulation and batch wall time, worker
// occupancy, and the slowest simulated points. Point order in Slowest
// is deterministic (cost-descending, ties broken by name) even though
// completion order is not. Profile is safe to call from any goroutine
// while batches run — in-flight Run calls contribute their elapsed
// time so live readers (/progress, /metrics) see a current wall clock
// instead of the last completed batch's.
func (e *Engine) Profile() obs.RunnerProfile {
	e.mu.Lock()
	defer e.mu.Unlock()
	slowest := append([]obs.PointProfile(nil), e.timings...)
	sort.Slice(slowest, func(i, j int) bool {
		if slowest[i].Seconds != slowest[j].Seconds {
			return slowest[i].Seconds > slowest[j].Seconds
		}
		return slowest[i].Point < slowest[j].Point
	})
	if len(slowest) > profileSlowest {
		slowest = slowest[:profileSlowest]
	}
	batchWall := e.batchWall
	for _, start := range e.active {
		batchWall += time.Since(start)
	}
	occupancy := 0.0
	if batchWall > 0 && e.workers > 0 {
		occupancy = e.stats.SimWall.Seconds() / (batchWall.Seconds() * float64(e.workers))
		if occupancy > 1 {
			occupancy = 1
		}
	}
	nsPerInst := 0.0
	if e.stats.Instructions > 0 {
		nsPerInst = float64(e.stats.SimWall.Nanoseconds()) / float64(e.stats.Instructions)
	}
	return obs.RunnerProfile{
		Workers:          e.workers,
		Points:           e.stats.Simulated + e.stats.CacheHits,
		Simulated:        e.stats.Simulated,
		CacheHits:        e.stats.CacheHits,
		Coalesced:        e.stats.Coalesced,
		Failed:           e.stats.Failed,
		SimWallSeconds:   e.stats.SimWall.Seconds(),
		BatchWallSeconds: batchWall.Seconds(),
		Occupancy:        occupancy,
		WarpInstructions: e.stats.Instructions,
		NsPerInstruction: nsPerInst,
		Slowest:          slowest,
	}
}

// One executes a single point through the engine (memoized like any
// batch point).
func (e *Engine) One(ctx context.Context, p Point) (*sim.Result, error) {
	rs, err := e.Run(ctx, []Point{p})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Points builds the cross product of the given apps and configs at one
// scale, apps innermost — the standard grid expansion order shared by
// the harness and the CLIs.
func Points(apps []*trace.App, scale float64, cfgs ...sim.Config) []Point {
	pts := make([]Point, 0, len(apps)*len(cfgs))
	for _, cfg := range cfgs {
		for _, app := range apps {
			pts = append(pts, Point{App: app, Scale: scale, Config: cfg})
		}
	}
	return pts
}

// GridPoints builds the sweep row layout: for each app in order, an
// optional 1-GPM baseline point (the reference of the scaling metrics)
// followed by every config in grid order. cmd/sweep and the gpujouled
// service expand sweep jobs through this one function, so a job
// submitted to the service resolves the exact point sequence a local
// sweep would, row for row.
func GridPoints(apps []*trace.App, scale float64, baseline bool, cfgs ...sim.Config) []Point {
	per := len(cfgs)
	if baseline {
		per++
	}
	baseCfg := sim.MultiGPM(1, sim.BW2x)
	pts := make([]Point, 0, len(apps)*per)
	for _, app := range apps {
		if baseline {
			pts = append(pts, Point{App: app, Scale: scale, Config: baseCfg})
		}
		for _, cfg := range cfgs {
			pts = append(pts, Point{App: app, Scale: scale, Config: cfg})
		}
	}
	return pts
}
