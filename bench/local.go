package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"gpujoule/internal/harness"
	"gpujoule/internal/obs"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

// paperReport is the cmd/paper user. Each rep builds a fresh harness, so
// the run engine's memo starts empty, regenerates every experiment of
// the paper and renders the markdown report: 3402 points are requested
// and 490 simulated, on a worker pool, between serial stages
// (calibration, validation, fidelity) that simulate outside it. The
// input is the paper itself, so the seed is ignored.
func paperReport(ctx context.Context, r *run) error {
	scale := r.cfg.reportScale
	for range setupRepsCheap {
		d, _ := timeSetup(func() error {
			harness.NewWithOptions(harness.Options{Scale: scale, Context: ctx})
			return nil
		})
		r.setup = append(r.setup, d)
	}
	pin := pinKey("paper_report", scale)
	var work engineWork
	var serial time.Duration // BuildReport wall beyond its run-engine batches
	var render []time.Duration
	d := r.dispenser(1, 0)
	for {
		i, ok := d.take()
		if !ok {
			break
		}
		rep := r.tr.root("bench.rep", i)
		t0 := time.Now()
		sp := r.tr.child("harness.NewWithOptions", rep)
		var build spanID // the BuildReport span, parent of its simulations
		h := harness.NewWithOptions(harness.Options{Scale: scale, Context: ctx,
			OnEvent: r.tr.simHook(func(runner.Point) spanID { return build })})
		r.tr.end(sp)

		build = r.tr.child("harness.BuildReport", rep)
		tb := time.Now()
		report, err := h.BuildReport()
		built := time.Since(tb)
		r.tr.end(build)
		var md bytes.Buffer
		if err == nil {
			sp = r.tr.child("harness.WriteMarkdown", rep)
			tm := time.Now()
			err = report.WriteMarkdown(&md)
			render = append(render, time.Since(tm))
			r.tr.end(sp)
		}
		lat := time.Since(t0)
		r.tr.end(rep)
		if err == nil {
			err = checkPinned(pin, md.Bytes())
		}
		r.record(i, lat, err)
		prof := h.Engine().Profile()
		work.add(obs.RunnerProfile{}, prof) // every rep's engine starts fresh
		serial += built - time.Duration(prof.BatchWallSeconds*float64(time.Second))
	}
	r.endTimed(d)
	if r.tr == nil {
		return nil
	}

	r.opMetrics()
	work.report(r.layer)
	r.layer["harness.serial_s"] = serial.Seconds()
	r.layer["harness.render_ms"] = median(millis(render))

	h := harness.NewWithOptions(harness.Options{Scale: scale, Context: ctx})
	var v *harness.Validation
	secs, err := r.probe("harness.Validate", func() (err error) {
		v, err = h.Validate()
		return err
	})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	r.layer["harness.validate_s"] = secs
	r.layer["energy.model_mae_pct"] = v.Fig4bMAEPct()
	secs, err = r.probe("harness.FidelityStudy", func() error {
		_, err := h.FidelityStudy()
		return err
	})
	if err != nil {
		return fmt.Errorf("fidelity study: %w", err)
	}
	r.layer["harness.fidelity_s"] = secs

	if err := r.probeBuild(func() error { workloads.Eval14(h.Params()); return nil }); err != nil {
		return err
	}
	// The energy probe prices the first evaluation workload on the
	// paper's largest design.
	res, err := sim.Simulate(ctx, pointConfig(), h.Apps()[0], sim.WithCounters())
	if err != nil {
		return err
	}
	return r.probeEnergy(res)
}

// pointApps are single_point's applications. Every op simulates each of
// them once, in an order drawn with the seed, so an op's cost does not
// depend on the seed.
var pointApps = []string{"Lulesh-190", "MiniAMR"}

// pointOrders returns the seed's source of per-op application orders.
func pointOrders(seed int64) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(len(pointApps)) }
}

// pointConfig is the paper's largest design: 32 GPMs on a 2x-bandwidth
// ring. The modelled L1s and L2s start empty on every Simulate.
func pointConfig() sim.Config { return sim.MultiGPM(32, sim.BW2x) }

// singlePoint is the gpmsim user: large single points, simulated again
// and again. Only the single-threaded cycle engine works here (SM issue,
// memory system, fabric); the runner, the service and the cache are
// idle.
func singlePoint(ctx context.Context, r *run) error {
	apps := make([]*trace.App, len(pointApps))
	buildApps := func() (err error) {
		for k, name := range pointApps {
			if apps[k], err = workloads.ByName(name, workloads.Params{Scale: r.cfg.pointScale}); err != nil {
				return err
			}
		}
		return nil
	}
	for range setupRepsCheap {
		d, err := timeSetup(buildApps)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, d)
	}
	cfg := pointConfig()
	order := pointOrders(r.cfg.seed)
	var simulate []time.Duration
	var winst uint64 // per op
	d := r.dispenser(1, 0)
	for {
		i, ok := d.take()
		if !ok {
			break
		}
		op := r.tr.root("bench.op", i)
		t0 := time.Now()
		results := make([]*sim.Result, len(apps))
		var err error
		for _, k := range order() {
			sp := r.tr.child("sim.Simulate", op)
			ts := time.Now()
			res, serr := sim.Simulate(ctx, cfg, apps[k])
			simulate = append(simulate, time.Since(ts))
			r.tr.end(sp)
			if err == nil {
				results[k], err = res, serr
			}
		}
		lat := time.Since(t0)
		r.tr.end(op)
		winst = 0
		for k := 0; err == nil && k < len(results); k++ {
			err = checkResult(pinKey("single_point/"+pointApps[k], r.cfg.pointScale), results[k])
			winst += results[k].Counts.TotalWarpInstructions()
		}
		r.record(i, lat, err)
	}
	r.endTimed(d)
	if r.tr == nil {
		return nil
	}
	if len(r.ops) == 0 {
		return fmt.Errorf("no op succeeded")
	}

	r.opMetrics()
	total := 0.0
	for _, d := range simulate {
		total += d.Seconds()
	}
	r.layer["sim.points"] = float64(len(simulate))
	r.layer["sim.simulate_s"] = total
	r.layer["sim.winst"] = float64(winst) * float64(len(r.ops))
	r.layer["sim.ns_per_winst"] = ratio(total*1e9, r.layer["sim.winst"])

	// Rerun the first application plain, with counters, with a timeline
	// trace and on two GPM lanes, twice over, so host drift hits both
	// sides of each ratio alike.
	variants := []struct {
		label string
		opts  []sim.Option
	}{
		{"", nil},
		{"+counters", []sim.Option{sim.WithCounters()}},
		{"+trace", []sim.Option{sim.WithTrace()}},
		{"+lanes2", []sim.Option{sim.WithGPMParallel(2)}},
	}
	took := map[string][]float64{}
	var counted *sim.Result
	for range 2 {
		for _, v := range variants {
			var res *sim.Result
			secs, err := r.probe("sim.Simulate"+v.label, func() (err error) {
				res, err = sim.Simulate(ctx, cfg, apps[0], v.opts...)
				return err
			})
			if err != nil {
				return err
			}
			took[v.label] = append(took[v.label], secs)
			switch v.label {
			case "+counters":
				counted = res
			case "+lanes2":
				// Lanes must not change a single byte of the result.
				if err := checkResult(pinKey("single_point/"+pointApps[0], r.cfg.pointScale), res); err != nil {
					r.fail(-1, fmt.Errorf("two-lane rerun: %w", err))
				}
			}
		}
	}
	plain := median(took[""])
	r.layer["sim.counters_overhead_pct"] = (median(took["+counters"])/plain - 1) * 100
	r.layer["sim.trace_overhead_pct"] = (median(took["+trace"])/plain - 1) * 100
	r.layer["sim.lanes2_speedup"] = plain / median(took["+lanes2"])

	if err := r.probeBuild(buildApps); err != nil {
		return err
	}
	return r.probeEnergy(counted)
}

// opMetrics sets the metrics every traced timed phase has.
func (r *run) opMetrics() {
	r.layer["bench.ops"] = float64(len(r.ops))
	r.layer["bench.timed_s"] = r.wall.Seconds()
	r.layer["bench.traced_op_p50_ms"] = median(millis(r.ops))
}
