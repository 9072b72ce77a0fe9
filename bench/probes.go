package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"gpujoule/internal/core"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/obs"
	"gpujoule/internal/resultcache"
	"gpujoule/internal/service"
	"gpujoule/internal/sim"
)

// setupReps is how many times each workload sets up. The set-up
// metric is their median; cheap set-ups repeat more so the median holds
// still.
const (
	setupRepsCheap = 21
	setupRepsWarm  = 3
)

// setupBatch is the least time one set-up sample spans: a set-up cheaper
// than that is repeated back to back and timed as a batch, so timer
// resolution and scheduling jitter do not swamp its median.
const setupBatch = 10 * time.Millisecond

// timeSetup returns fn's time per call over back-to-back calls spanning
// at least setupBatch.
func timeSetup(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	for n := 1; ; n++ {
		if err := fn(); err != nil {
			return 0, err
		}
		if el := time.Since(t0); el >= setupBatch {
			return el / time.Duration(n), nil
		}
	}
}

// engineWork sums run-engine profiles over the timed phase.
type engineWork struct {
	points, simulated, hits int
	simWall, batchWall      float64 // seconds
	winst                   uint64
	workers                 int
}

// add accumulates the work an engine did between two profiles of it.
func (w *engineWork) add(before, after obs.RunnerProfile) {
	w.points += after.Points - before.Points
	w.simulated += after.Simulated - before.Simulated
	w.hits += after.CacheHits - before.CacheHits
	w.simWall += after.SimWallSeconds - before.SimWallSeconds
	w.batchWall += after.BatchWallSeconds - before.BatchWallSeconds
	w.winst += after.WarpInstructions - before.WarpInstructions
	w.workers = after.Workers
}

// report sets the runner and sim metrics from the accumulated work.
func (w *engineWork) report(layer map[string]float64) {
	capacity := w.batchWall * float64(w.workers)
	layer["runner.points"] = float64(w.points)
	layer["runner.simulated"] = float64(w.simulated)
	layer["runner.memo_hit_ratio"] = ratio(float64(w.hits), float64(w.points))
	layer["runner.batch_wall_s"] = w.batchWall
	layer["runner.occupancy"] = ratio(w.simWall, capacity)
	layer["runner.idle_s"] = max(capacity-w.simWall, 0)
	layer["sim.points"] = float64(w.simulated)
	layer["sim.simulate_s"] = w.simWall
	layer["sim.winst"] = float64(w.winst)
	layer["sim.ns_per_winst"] = ratio(w.simWall*1e9, float64(w.winst))
}

// probe runs fn after the timed phase, in a span of its own, and returns
// how long it took in seconds.
func (r *run) probe(name string, fn func() error) (float64, error) {
	sp := r.tr.root(name, -1)
	defer r.tr.end(sp)
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// timePerCall times fn in samples of calls back-to-back calls and
// returns each sample's time per call in microseconds.
func timePerCall(samples, calls int, fn func()) []float64 {
	out := make([]float64, samples)
	for i := range out {
		t0 := time.Now()
		for range calls {
			fn()
		}
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(calls)
	}
	return out
}

// setPercentile sets a per-layer percentile, or leaves the metric out
// (which fails the run) when too few samples lie beyond it.
func (r *run) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		delete(r.layer, name)
		r.notes = append(r.notes, fmt.Sprintf("# %s: %v", name, err))
		return
	}
	r.layer[name] = v
}

// probeBuild times building the workload's traces, the way set-ups
// are timed, in milliseconds.
func (r *run) probeBuild(build func() error) error {
	var ds []time.Duration
	for range setupRepsCheap {
		d, err := timeSetup(build)
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	r.layer["workloads.build_ms"] = median(millis(ds))
	return nil
}

// projectionModel is the energy model for a configuration, as the
// harness picks it: the integration domain's link energies, rescaled to
// the configuration's operating point.
func projectionModel(cfg sim.Config) *core.Model {
	links := core.OnBoardLinks()
	if cfg.Domain == sim.DomainOnPackage {
		links = core.OnPackageLinks()
	}
	return dvfs.ScaleForConfig(core.ProjectionModel(links), cfg)
}

// probeEnergy times the energy model on one result simulated with
// counters: core.Model.Estimate on its event counts and
// obs.AttributeEnergy on its per-module counters.
func (r *run) probeEnergy(res *sim.Result) error {
	if res.Counters == nil {
		return fmt.Errorf("energy probe needs a result simulated with counters")
	}
	m := projectionModel(res.Config)
	if _, err := obs.AttributeEnergy(m, &res.Counts, res.Counters); err != nil {
		return fmt.Errorf("attribute energy: %w", err)
	}
	sp := r.tr.root("energy.Estimate", -1)
	est := timePerCall(200, 100, func() { m.Estimate(&res.Counts) })
	r.tr.end(sp)
	sp = r.tr.root("energy.AttributeEnergy", -1)
	attr := timePerCall(200, 5, func() { _, _ = obs.AttributeEnergy(m, &res.Counts, res.Counters) })
	r.tr.end(sp)
	r.layer["energy.estimate_us"] = median(est)
	r.layer["energy.attribute_us"] = median(attr)
	return nil
}

// probeCache times resultcache.Put and Get directly, on a fresh cache in
// the scratch directory, with results the run received. Keys are reused
// round-robin until each call has cacheSamples samples, so the p95 has
// ten beyond it.
func (r *run) probeCache(results map[string]*sim.Result) error {
	const cacheSamples = 200
	if len(results) == 0 {
		return fmt.Errorf("cache probe has no results")
	}
	dir := filepath.Join(r.scratch, "probe-cache")
	c, err := resultcache.Open(dir, service.CacheStamp())
	if err != nil {
		return err
	}
	keys := sortedKeys(results)
	var put, get []float64
	sp := r.tr.root("resultcache.Put", -1)
	for i := 0; i < cacheSamples; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		err := c.Put(k, results[k])
		put = append(put, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("resultcache put: %w", err)
		}
	}
	r.tr.end(sp)
	sp = r.tr.root("resultcache.Get", -1)
	for i := 0; i < cacheSamples; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		_, ok := c.Get(k)
		get = append(get, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok {
			return fmt.Errorf("resultcache get %q: miss after put", k)
		}
	}
	r.tr.end(sp)
	r.setPercentile("resultcache.get_us_p50", get, 50)
	r.setPercentile("resultcache.get_us_p95", get, 95)
	r.setPercentile("resultcache.put_us_p50", put, 50)
	r.setPercentile("resultcache.put_us_p95", put, 95)

	var bytes int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.layer["resultcache.entry_kb"] = float64(bytes) / 1024 / float64(len(keys))
	return nil
}
