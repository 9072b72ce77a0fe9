package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpujoule/internal/dvfs"
	"gpujoule/internal/resultcache"
	"gpujoule/internal/runner"
	"gpujoule/internal/service"
	"gpujoule/internal/sim"
	"gpujoule/internal/workloads"
)

// loadClients is the closed loop's client count and its HTTP connection
// cap: one per core of the 2-core baseline host, so the load generator
// never outnumbers the cores the service simulates on.
const loadClients = 2

// sampleEvery: one job in sampleEvery (5%), starting with the first,
// keeps its result document for the re-simulation check, up to
// maxSampled jobs, so the memory the check holds does not grow with the
// host's speed. The jobs are drawn with the seed, so the sample is too.
const (
	sampleEvery = 20
	maxSampled  = 64
)

// warmGPMs are the module counts of every sweep_warm job and of its
// prefill, all at 2x bandwidth on a ring.
const warmGPMs = "1,2,4,8,16,32"

// warmJobWorkloads is how many evaluation workloads one sweep_warm job
// asks for.
const warmJobWorkloads = 4

// sweepCold is the `sweep -server` user asking for new points: every
// job's points are novel, so the service simulates and writes every one
// to its result cache, and the memo and the cache never hit. The pool is
// every (workload, bandwidth, clock) combination: 18 workloads × {1x, 2x,
// 4x} × the 7 K40 operating points, each job running 2, 8 and 32 GPMs on
// a ring. The seed orders the pool.
func sweepCold(ctx context.Context, r *run) error {
	nd, err := r.setupNodes(setupRepsCheap, nil)
	if err != nil {
		return err
	}
	defer nd.close()
	seq, pool := coldJobs(r.cfg.seed, r.cfg.coldScale)
	st, err := r.sweepLoop(ctx, nd, seq, len(workloads.Names()), pool)
	if err != nil {
		return err
	}
	return r.finishSweep(ctx, st, func() error {
		for _, n := range workloads.Names() {
			if _, err := workloads.ByName(n, workloads.Params{Scale: r.cfg.coldScale}); err != nil {
				return err
			}
		}
		return nil
	})
}

// sweepWarm is the `sweep -server` user asking again for points the
// service already holds: set-up fills a fresh cache with the 84 points
// of the 14 evaluation workloads × 1–32 GPMs at 2x on a ring, then every
// job asks for four of those workloads, drawn with the seed, on the same
// 6 designs. Result-cache reads, the scheduler and the event stream do
// all the work; nothing is simulated.
func sweepWarm(ctx context.Context, r *run) error {
	scale := r.cfg.warmScale
	nd, err := r.setupNodes(setupRepsWarm, func(nd *node) error { return prefill(ctx, nd, scale) })
	if err != nil {
		return err
	}
	defer nd.close()
	st, err := r.sweepLoop(ctx, nd, warmJobs(r.cfg.seed, scale), 1, 0)
	if err != nil {
		return err
	}
	return r.finishSweep(ctx, st, func() error {
		workloads.Eval14(workloads.Params{Scale: scale})
		return nil
	})
}

// job is one sweep submission and the number of points it expands to.
type job struct {
	spec   service.JobSpec
	points int
}

// jobSeq hands out a workload's jobs in index order, drawing each from
// the workload's seeded generator the first time it is asked for, so a
// seed always yields the same sequence.
type jobSeq struct {
	mu   sync.Mutex
	draw func() job // called under mu, once per index, in index order
	jobs []job
}

func (s *jobSeq) at(i int) job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= i {
		s.jobs = append(s.jobs, s.draw())
	}
	return s.jobs[i]
}

// coldJobs returns sweep_cold's job sequence and the size of its pool.
// Round r runs each of the 18 workloads once, in a seeded order, at the
// r-th entry of that workload's own seeded permutation of its 21
// (bandwidth, clock) combinations. No point repeats, and job costs range
// over 20×, but every whole round costs the same, so the dispenser runs
// whole rounds and the seed moves the inputs without moving the load.
func coldJobs(seed int64, scale float64) (*jobSeq, int) {
	type combo struct {
		bw  string
		mhz float64
	}
	var combos []combo
	for _, bw := range []string{"1x", "2x", "4x"} {
		for _, p := range dvfs.K40Curve().Points() {
			combos = append(combos, combo{bw, p.MHz()})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	names := workloads.Names()
	perms := make([][]int, len(names))
	for w := range perms {
		perms[w] = rng.Perm(len(combos))
	}
	var order []int
	i := 0
	draw := func() job {
		round, pos := i/len(names), i%len(names)
		if pos == 0 {
			order = rng.Perm(len(names))
		}
		i++
		w := order[pos]
		c := combos[perms[w][round]]
		return job{points: 3, spec: service.JobSpec{
			Workloads: names[w], Scale: scale, GPMs: "2,8,32", BWs: c.bw, Topologies: "ring", FreqMHz: c.mhz,
		}}
	}
	return &jobSeq{draw: draw}, len(names) * len(combos)
}

// warmJobs returns sweep_warm's job sequence: each job asks for
// warmJobWorkloads distinct evaluation workloads drawn with the seed.
func warmJobs(seed int64, scale float64) *jobSeq {
	rng := rand.New(rand.NewSource(seed))
	names := eval14Names()
	return &jobSeq{draw: func() job {
		var picked []string
		for _, k := range rng.Perm(len(names))[:warmJobWorkloads] {
			picked = append(picked, names[k])
		}
		spec := service.JobSpec{Workloads: strings.Join(picked, ","), Scale: scale, GPMs: warmGPMs, BWs: "2x", Topologies: "ring"}
		return job{spec: spec, points: len(picked) * len(sim.SplitList(warmGPMs))}
	}}
}

// node is one gpujouled service in this process, with default Options
// and a fresh result-cache directory, on a loopback HTTP server.
type node struct {
	srv *service.Server
	hs  *httptest.Server
	dir string
}

func startNode(parent string) (*node, error) {
	dir, err := os.MkdirTemp(parent, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start service: %w", err)
	}
	return &node{srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (n *node) close() {
	n.hs.Close()
	n.srv.Close()
	os.RemoveAll(n.dir)
}

// setupNodes sets a node up reps times and keeps the newest node for
// the timed phase. One set-up starts a node and, when fill is non-nil,
// fills it; it is timed like every set-up, so a cheap one runs in
// batches.
func (r *run) setupNodes(reps int, fill func(*node) error) (*node, error) {
	var last *node
	for range reps {
		var batch []*node
		d, err := timeSetup(func() error {
			n, err := startNode(r.scratch)
			if err != nil {
				return err
			}
			batch = append(batch, n)
			if fill != nil {
				return fill(n)
			}
			return nil
		})
		if last != nil {
			last.close()
		}
		if err != nil {
			for _, n := range batch {
				n.close()
			}
			return nil, err
		}
		for _, n := range batch[:len(batch)-1] {
			n.close()
		}
		last = batch[len(batch)-1]
		r.setup = append(r.setup, d)
	}
	return last, nil
}

// prefill runs sweep_warm's prefill job through the node, the way a
// user's first sweep would fill the cache.
func prefill(ctx context.Context, nd *node, scale float64) error {
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c, err := service.Dial(service.WithBaseURL(nd.hs.URL), service.WithHTTPClient(&http.Client{Transport: transport}))
	if err != nil {
		return err
	}
	spec := service.JobSpec{All: true, Scale: scale, GPMs: warmGPMs, BWs: "2x", Topologies: "ring"}
	doc, err := c.RunSweepStream(ctx, spec, nil)
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	return checkDoc(doc, len(eval14Names())*len(sim.SplitList(warmGPMs)), 0)
}

// eval14Names are the evaluation workloads, in Table II order.
func eval14Names() []string {
	var names []string
	for _, g := range workloads.Generators() {
		if g.InEval14 {
			names = append(names, g.Name)
		}
	}
	return names
}

// loadClient is one closed-loop client: it submits its next job only
// once the last one's result is back.
type loadClient struct {
	*service.Client
	tap *submitTap // nil unless traced
}

// submitTap remembers the id of the last job its client submitted, so a
// traced run can ask the service for that job's timestamps.
type submitTap struct {
	base http.RoundTripper
	id   string // written and read on the client's own goroutine
}

func (t *submitTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var st service.JobStatus
	if json.Unmarshal(body, &st) == nil && st.ID != "" {
		t.id = st.ID
	}
	return resp, nil
}

// sweepStats is what the closed loop observed, guarded by mu.
type sweepStats struct {
	mu       sync.Mutex
	sources  map[string]int // how each returned point resolved
	sampled  []sampledJob
	parents  map[string]spanID // traced: point key → its job's RunSweepStream span
	queue    []time.Duration   // traced, per job: Started − Created
	runTime  []time.Duration   // traced, per job: Finished − Started
	tail     []time.Duration   // traced, per job: client return − terminal event
	docBytes []int             // traced, per job: rendered result document size
	rejected atomic.Int64      // submissions the service refused with 429

	work  engineWork        // set when the loop ends
	cache resultcache.Stats // set when the loop ends: the timed phase's counts
}

// sampledJob is a job whose result document is kept for the
// re-simulation check.
type sampledJob struct {
	index int
	spec  service.JobSpec
	doc   *service.ResultDoc
}

// sweepLoop runs the timed closed loop: loadClients clients over one
// transport capped at loadClients connections, each waiting for its
// job's verified result before taking the next job.
func (r *run) sweepLoop(ctx context.Context, nd *node, seq *jobSeq, unit, limit int) (*sweepStats, error) {
	st := &sweepStats{sources: map[string]int{}, parents: map[string]spanID{}}
	transport := &http.Transport{MaxConnsPerHost: loadClients, MaxIdleConnsPerHost: loadClients}
	defer transport.CloseIdleConnections()
	var clients []*loadClient
	for range loadClients {
		lc := &loadClient{}
		var rt http.RoundTripper = transport
		if r.tr != nil {
			lc.tap = &submitTap{base: transport}
			rt = lc.tap
		}
		c, err := service.Dial(service.WithBaseURL(nd.hs.URL), service.WithHTTPClient(&http.Client{Transport: rt}),
			service.WithRetry(service.RetryPolicy{Notify: func(error, time.Duration) { st.rejected.Add(1) }}))
		if err != nil {
			return nil, err
		}
		lc.Client = c
		clients = append(clients, lc)
	}
	if hook := r.tr.simHook(func(p runner.Point) spanID {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.parents[p.Key()]
	}); hook != nil {
		defer nd.srv.Engine().Subscribe(hook)()
	}

	engBefore, cacheBefore := nd.srv.Engine().Profile(), nd.srv.Cache().Stats()
	d := r.dispenser(unit, limit)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				r.runJob(ctx, c, i, seq.at(i), st)
			}
		}()
	}
	wg.Wait()
	r.endTimed(d)
	st.work.add(engBefore, nd.srv.Engine().Profile())
	after := nd.srv.Cache().Stats()
	st.cache = resultcache.Stats{
		Hits: after.Hits - cacheBefore.Hits, Misses: after.Misses - cacheBefore.Misses,
		Puts: after.Puts - cacheBefore.Puts, Corrupt: after.Corrupt - cacheBefore.Corrupt,
	}
	return st, nil
}

// runJob runs job i to completion on client c and checks what came back.
func (r *run) runJob(ctx context.Context, c *loadClient, i int, jb job, st *sweepStats) {
	root := r.tr.root("bench.job", i)
	defer r.tr.end(root)
	call := r.tr.child("service.RunSweepStream", root)
	if call != 0 {
		pts, err := service.ExpandPoints(jb.spec)
		if err != nil {
			r.tr.end(call)
			r.record(i, 0, err)
			return
		}
		st.mu.Lock()
		for _, p := range pts {
			st.parents[p.Key()] = call
		}
		st.mu.Unlock()
	}
	sources := map[string]int{}
	mismatches := 0
	var terminal time.Time
	t0 := time.Now()
	doc, err := c.RunSweepStream(ctx, jb.spec, func(ev service.JobEvent) {
		switch ev.Kind {
		case service.EventPoint:
			sources[ev.Source]++
		case service.EventDigestMismatch:
			mismatches++
		case service.EventDone:
			terminal = time.Now()
		}
	})
	returned := time.Now()
	r.tr.end(call)
	if err == nil {
		err = checkDoc(doc, jb.points, mismatches)
	}
	r.record(i, returned.Sub(t0), err)

	st.mu.Lock()
	for s, n := range sources {
		st.sources[s] += n
	}
	if err == nil && i%sampleEvery == 0 && i/sampleEvery < maxSampled {
		st.sampled = append(st.sampled, sampledJob{index: i, spec: jb.spec, doc: doc})
	}
	st.mu.Unlock()
	if call == 0 || err != nil {
		return
	}

	size := len(service.RenderResultDoc(*doc))
	sp := r.tr.child("service.Status", root)
	js, err := c.Status(ctx, c.tap.id)
	r.tr.end(sp)
	if err != nil {
		r.fail(i, fmt.Errorf("status: %w", err))
		return
	}
	st.mu.Lock()
	st.queue = append(st.queue, js.Started.Sub(js.Created))
	st.runTime = append(st.runTime, js.Finished.Sub(js.Started))
	st.tail = append(st.tail, returned.Sub(terminal))
	st.docBytes = append(st.docBytes, size)
	st.mu.Unlock()
}

// checkDoc checks one returned document: the stream's digest matched
// and every point the job expands to came back with a result.
func checkDoc(doc *service.ResultDoc, points, mismatches int) error {
	if mismatches > 0 {
		return fmt.Errorf("%w: streamed document failed its digest check", errMismatch)
	}
	if len(doc.Points) != points {
		return fmt.Errorf("%w: document has %d points, want %d", errMismatch, len(doc.Points), points)
	}
	for k, p := range doc.Points {
		if p.Result == nil {
			return fmt.Errorf("%w: point %d came back without a result", errMismatch, k)
		}
	}
	return nil
}

// finishSweep runs the output check and, on a traced run, the sweep's
// per-layer metrics and probes. build builds the workload's traces.
func (r *run) finishSweep(ctx context.Context, st *sweepStats, build func() error) error {
	verified, err := r.verifySample(ctx, st.sampled)
	if err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	r.opMetrics()
	st.work.report(r.layer)
	points := 0
	for _, n := range st.sources {
		points += n
	}
	r.layer["service.cache_hit_ratio"] = ratio(float64(st.sources["cache"]), float64(points))
	r.layer["service.coalesced"] = float64(st.sources["coalesced"])
	r.layer["service.rejected"] = float64(st.rejected.Load())
	queue := millis(st.queue)
	r.layer["service.queue_ms_p50"] = median(queue)
	if _, v, ok := tail(queue); ok {
		r.layer["service.queue_ms_tail"] = v
	} else {
		delete(r.layer, "service.queue_ms_tail")
		r.notes = append(r.notes, fmt.Sprintf("# service.queue_ms_tail: %d jobs are too few for any tail percentile", len(queue)))
	}
	r.layer["service.run_ms_p50"] = median(millis(st.runTime))
	r.layer["service.tail_ms_p50"] = median(millis(st.tail))
	kb := make([]float64, len(st.docBytes))
	for k, b := range st.docBytes {
		kb[k] = float64(b) / 1024
	}
	r.layer["service.result_kb"] = median(kb)
	r.layer["resultcache.hits"] = float64(st.cache.Hits)
	r.layer["resultcache.misses"] = float64(st.cache.Misses)
	r.layer["resultcache.puts"] = float64(st.cache.Puts)
	r.layer["resultcache.corrupt"] = float64(st.cache.Corrupt)

	if len(verified) == 0 {
		return fmt.Errorf("no job came back whole to sample")
	}
	results := map[string]*sim.Result{}
	var probe runner.Point // the largest design sampled
	for _, d := range verified {
		results[d.point.Key()] = d.res
		if probe.App == nil || d.point.Config.GPMs > probe.Config.GPMs {
			probe = d.point
		}
	}
	if err := r.probeCache(results); err != nil {
		return err
	}
	if err := r.probeBuild(build); err != nil {
		return err
	}
	res, err := sim.Simulate(ctx, probe.Config, probe.App, sim.WithCounters())
	if err != nil {
		return err
	}
	return r.probeEnergy(res)
}

// direct is a point and the result of simulating it directly.
type direct struct {
	point runner.Point
	res   *sim.Result
}

// verifySample re-simulates each distinct point of the sampled jobs
// directly with sim.Simulate, on loadClients goroutines, and byte-
// compares every copy the service returned with that result. A job with
// a differing copy fails. It returns the direct results in key order.
func (r *run) verifySample(ctx context.Context, sampled []sampledJob) ([]direct, error) {
	type served struct {
		job    int
		simKey string
		res    *sim.Result
	}
	points := map[string]runner.Point{}
	copies := map[string][]served{}
	for _, sj := range sampled {
		pts, err := service.ExpandPoints(sj.spec)
		if err != nil {
			return nil, err
		}
		for k, p := range pts {
			key := p.Key()
			points[key] = p
			copies[key] = append(copies[key], served{sj.index, sj.doc.Points[k].SimKey, sj.doc.Points[k].Result})
		}
	}
	keys := sortedKeys(points)
	results := make(map[string]*sim.Result, len(keys))
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for range loadClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				p := points[key]
				res, err := sim.Simulate(ctx, p.Config, p.App)
				var want []byte
				if err == nil {
					want, err = json.Marshal(res)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("re-simulate %s: %w", key, err)
				}
				results[key] = res
				mu.Unlock()
				if err != nil {
					continue
				}
				for _, c := range copies[key] {
					got, err := json.Marshal(c.res)
					if err != nil || c.simKey != key || !bytes.Equal(got, want) {
						r.fail(c.job, fmt.Errorf("%w: served %s differs from a direct simulation", errMismatch, key))
					}
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]direct, len(keys))
	for k, key := range keys {
		out[k] = direct{points[key], results[key]}
	}
	return out, nil
}
