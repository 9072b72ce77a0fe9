// Command sweep runs workloads across a grid of multi-module designs
// and emits one CSV row per (workload, design) point: performance,
// cache behaviour, traffic, energy, and scaling metrics. It is the
// data-export tool behind custom analyses and plots.
//
// The grid executes through the shared run engine (internal/runner):
// points run across a worker pool, duplicates are memoized, and rows
// come out in deterministic grid order regardless of completion order.
//
// Usage:
//
//	sweep [-workloads Stream,Lulesh-150 | -all] [-gpms 1,2,4,8,16,32]
//	      [-bw 1x,2x,4x] [-topologies ring,switch] [-scale f] [-o out.csv]
//	      [-workers n] [-progress] [-counters out.json] [-trace out.trace.json]
//	      [-httpaddr :8080] [-server url] [-version]
//
// With -counters, every point is simulated with per-GPM/per-link
// observability counters (internal/obs) and the full snapshot set plus
// the run engine's execution profile and the exact per-GPM/per-term/
// per-link energy attribution is written as JSON; the CSV is unchanged.
// With -trace, every point additionally records a timeline and the
// whole grid is written as one Chrome trace_event file (load it in
// chrome://tracing or https://ui.perfetto.dev, one process per point).
// With -httpaddr, the process serves live introspection while the
// sweep runs: /progress, Prometheus /metrics, and /debug/pprof. The
// JSON schemas are documented in DESIGN.md §Observability.
//
// With -freq, every grid point (baselines included) runs at the given
// K40 V/f-curve operating point: the configs are stamped with the
// matching (clock, voltage) pair, timing re-derives under the scaled
// clock, and energy is priced by the per-point rescaled model. The
// default 0 is the nominal 1000 MHz and changes nothing. -governor
// sweetspot instead picks each workload's EDP-minimizing point on its
// 1-GPM baseline and runs that workload's whole row there (local
// simulation only). -freq-cols appends freq_mhz,voltage_v columns to
// the CSV; it is off by default so the legacy column set stays
// byte-stable.
//
// With -server, the sweep runs on a resident gpujouled daemon instead
// of simulating locally: the grid is submitted as one job, warm points
// are answered from the daemon's persistent result cache, and the CSV
// output is byte-identical to a local run of the same grid against the
// same binary version. -counters and -trace require local simulation
// and are rejected in server mode. Server mode additionally takes
// -tenant (the scheduling account the job is billed to), -priority
// (higher preempts lower-priority work at the next point boundary),
// and -stream: follow the job's live event feed and emit CSV rows as
// their points resolve — the rows appear incrementally, in grid order,
// and the completed file is still byte-identical to a local run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gpujoule/internal/core"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/isa"
	"gpujoule/internal/metrics"
	"gpujoule/internal/obs"
	"gpujoule/internal/profiling"
	"gpujoule/internal/runner"
	"gpujoule/internal/service"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// row is one workload's CSV identity. Local runs take it from the
// built trace; server runs take it from the workload registry, so no
// traces are generated client-side.
type row struct {
	name     string
	category trace.Category
}

func run() (err error) {
	prof := profiling.AddFlags()
	names := flag.String("workloads", "Stream,Kmeans,Lulesh-150,MiniAMR", "comma-separated Table II workloads")
	all := flag.Bool("all", false, "sweep the full 14-workload evaluation subset")
	gpms := flag.String("gpms", "1,2,4,8,16,32", "comma-separated module counts")
	bws := flag.String("bw", "1x,2x,4x", "comma-separated bandwidth settings")
	topos := flag.String("topologies", "ring", "comma-separated topologies (ring, switch)")
	scale := flag.Float64("scale", 0.5, "workload scale factor")
	out := flag.String("o", "", "output file (default stdout)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
	progress := flag.Bool("progress", false, "report point progress on stderr")
	countersOut := flag.String("counters", "", "write per-GPM/per-link counters + energy attribution JSON to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of every point to this file")
	httpAddr := flag.String("httpaddr", "", "serve live introspection (pprof, /progress, /metrics) on this address")
	serverURL := flag.String("server", "", "run the sweep on a gpujouled daemon at this URL instead of simulating locally")
	tenant := flag.String("tenant", "", "scheduling tenant to bill the job to (server mode)")
	priority := flag.Int("priority", 0, "job priority; higher preempts lower at point boundaries (server mode)")
	stream := flag.Bool("stream", false, "follow the job's event stream and emit CSV rows as points resolve (server mode)")
	freqMHz := flag.Float64("freq", 0, "run every point at this K40 V/f-curve frequency in MHz (0 = nominal 1000)")
	governor := flag.String("governor", "fixed", `operating-point policy: "fixed" runs at -freq; "sweetspot" picks each workload's EDP-minimizing point on its 1-GPM baseline (local mode only)`)
	freqCols := flag.Bool("freq-cols", false, "append freq_mhz,voltage_v columns to the CSV (off keeps the legacy column set)")
	version := flag.Bool("version", false, "print schema and module version, then exit")
	flag.Parse()

	if *version {
		fmt.Println(profiling.VersionString("sweep"))
		return nil
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	grid, err := sim.ParseGrid(*gpms, *bws, *topos)
	if err != nil {
		return err
	}
	cfgs := grid.Configs()

	if *serverURL == "" {
		if *tenant != "" || *priority != 0 || *stream {
			return errors.New("-tenant, -priority, and -stream need -server")
		}
	} else if *countersOut != "" || *traceOut != "" {
		return errors.New("-counters and -trace need local simulation; drop them or drop -server")
	}

	var op dvfs.OperatingPoint
	if *freqMHz != 0 {
		if op, err = dvfs.K40Curve().AtMHz(*freqMHz); err != nil {
			return err
		}
	}
	switch *governor {
	case "fixed":
	case "sweetspot":
		if *serverURL != "" {
			return errors.New("-governor sweetspot needs local simulation; drop it or drop -server")
		}
		if *freqMHz != 0 {
			return errors.New("-governor sweetspot picks its own frequencies; drop -freq")
		}
	default:
		return fmt.Errorf("unknown -governor %q (fixed, sweetspot)", *governor)
	}

	spec := service.JobSpec{
		Workloads:  *names,
		All:        *all,
		Scale:      *scale,
		GPMs:       *gpms,
		BWs:        *bws,
		Topologies: *topos,
		Baseline:   true,
		Priority:   *priority,
		FreqMHz:    *freqMHz,
	}

	// Streaming server mode renders rows into the output as their
	// points resolve instead of collecting everything first.
	if *serverURL != "" && *stream {
		return withOutput(*out, func(bw *bufio.Writer) error {
			return streamRemote(bw, *serverURL, *tenant, spec, *progress, cfgs, op, *freqCols)
		})
	}

	// Both execution paths produce the same row set — the (workload ×
	// design) cross product in grid order, with each workload's 1-GPM
	// baseline prepended — and render it through the same emit loop, so
	// a server sweep's CSV is byte-identical to a local one.
	var rows []row
	var results []*sim.Result
	var ops []dvfs.OperatingPoint // per-row operating point
	if *serverURL != "" {
		rows, results, err = runRemote(*serverURL, *tenant, spec, *progress, len(cfgs))
		ops = make([]dvfs.OperatingPoint, len(rows))
		for i := range ops {
			ops[i] = op
		}
	} else {
		rows, results, ops, err = runLocal(localOptions{
			names: *names, all: *all, scale: *scale,
			workers: *workers, progress: *progress,
			countersOut: *countersOut, traceOut: *traceOut, httpAddr: *httpAddr,
			op: op, governor: *governor,
		}, cfgs)
	}
	if err != nil {
		return err
	}

	return withOutput(*out, func(bw *bufio.Writer) error {
		writeHeader(bw, *freqCols)
		i := 0
		for ri, r := range rows {
			base := results[i]
			i++
			for _, cfg := range cfgs {
				scfg := dvfs.Apply(cfg, ops[ri])
				emit(bw, r, scfg, modelFor(scfg), base, results[i], *freqCols)
				i++
			}
		}
		return nil
	})
}

// withOutput buffers writes to path (stdout when empty) and only keeps
// -o files that were written in full: any failure removes the partial
// file.
func withOutput(path string, fn func(*bufio.Writer) error) error {
	var w io.Writer = os.Stdout
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer func() {
			if f == nil {
				return // already closed on the success path
			}
			f.Close()
			os.Remove(path)
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := fn(bw); err != nil {
		return err
	}
	// bufio holds the first write error; surface it rather than
	// silently dropping rows.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			os.Remove(path)
			f = nil
			return fmt.Errorf("closing %s: %w", path, err)
		}
		f = nil
	}
	return nil
}

// writeHeader emits the CSV header. The metric columns use the
// canonical sim.Field* schema names, so the CSV header, the counters
// JSON, and the harness reports agree.
func writeHeader(w io.Writer, freqCols bool) {
	fmt.Fprint(w, "workload,category,gpms,bw,topology,domain,"+strings.Join([]string{
		sim.FieldCycles, sim.FieldSeconds,
		sim.FieldSpeedup, sim.FieldEnergyJ, sim.FieldEnergyRatio, sim.FieldEDPSEPct, sim.FieldAvgPowerW,
		sim.FieldL1Hit, sim.FieldL2Hit, sim.FieldRemoteFillFrac,
		sim.FieldDRAMGB, sim.FieldInterGPMGB, sim.FieldStallFrac,
	}, ","))
	if freqCols {
		fmt.Fprint(w, ",freq_mhz,voltage_v")
	}
	fmt.Fprintln(w)
}

type localOptions struct {
	names, countersOut, traceOut, httpAddr string
	all, progress                          bool
	scale                                  float64
	workers                                int
	op                                     dvfs.OperatingPoint
	governor                               string
}

func runLocal(o localOptions, cfgs []sim.Config) ([]row, []*sim.Result, []dvfs.OperatingPoint, error) {
	params := workloads.Params{Scale: o.scale}
	var apps []*trace.App
	if o.all {
		apps = workloads.Eval14(params)
	} else {
		for _, name := range sim.SplitList(o.names) {
			app, err := workloads.ByName(name, params)
			if err != nil {
				return nil, nil, nil, err
			}
			apps = append(apps, app)
		}
	}

	// The engine must exist before the introspection server starts:
	// its handlers pull the profile from listener goroutines, so a
	// late-bound engine variable would race with them.
	var srv *profiling.HTTPServer
	onEvent := func(ev runner.Event) {
		if ev.Kind != runner.PointDone {
			return
		}
		if srv != nil {
			srv.SetProgress(ev.Completed, ev.Total)
		}
		if o.progress {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d %s (%.2fs)\n",
				ev.Completed, ev.Total, ev.Point, ev.Elapsed.Seconds())
		}
	}
	eng := runner.New(runner.Options{
		Workers:  o.workers,
		OnEvent:  onEvent,
		Counters: o.countersOut != "",
		Trace:    o.traceOut != "",
	})
	if o.httpAddr != "" {
		var err error
		srv, err = profiling.ServeHTTP(o.httpAddr, eng.Profile)
		if err != nil {
			return nil, nil, nil, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: live introspection on http://%s/\n", srv.Addr())
	}

	// Per-row operating points: every row runs at the fixed -freq point
	// unless the sweet-spot governor picks a per-workload one on its
	// 1-GPM baseline. At the nominal point the stamps are the identity
	// and the point set is exactly the legacy grid.
	ops := make([]dvfs.OperatingPoint, len(apps))
	for i := range ops {
		ops[i] = o.op
	}
	baseCfg := sim.MultiGPM(1, sim.BW2x)
	if o.governor == "sweetspot" {
		curve := dvfs.K40Curve()
		var cal []runner.Point
		for _, app := range apps {
			for _, p := range curve.Points() {
				cal = append(cal, runner.Point{App: app, Scale: o.scale, Config: dvfs.Apply(baseCfg, p)})
			}
		}
		if _, err := eng.Run(context.Background(), cal); err != nil {
			return nil, nil, nil, err
		}
		gov := dvfs.SweetSpot{}
		for i, app := range apps {
			app := app
			d, err := gov.Decide(curve, func(p dvfs.OperatingPoint) (dvfs.Metrics, error) {
				cfg := dvfs.Apply(baseCfg, p)
				r, err := eng.One(context.Background(), runner.Point{App: app, Scale: o.scale, Config: cfg})
				if err != nil {
					return dvfs.Metrics{}, err
				}
				return dvfs.Metrics{Point: p, Energy: modelFor(cfg).EstimateEnergy(&r.Counts), Seconds: r.Seconds()}, nil
			})
			if err != nil {
				return nil, nil, nil, err
			}
			ops[i] = d.Point
			if o.progress {
				fmt.Fprintf(os.Stderr, "sweep: %s sweet spot %s\n", app.Name, d.Point)
			}
		}
	}
	points := make([]runner.Point, 0, len(apps)*(len(cfgs)+1))
	for i, app := range apps {
		points = append(points, runner.Point{App: app, Scale: o.scale, Config: dvfs.Apply(baseCfg, ops[i])})
		for _, cfg := range cfgs {
			points = append(points, runner.Point{App: app, Scale: o.scale, Config: dvfs.Apply(cfg, ops[i])})
		}
	}
	results, err := eng.Run(context.Background(), points)
	if err != nil {
		return nil, nil, nil, err
	}
	if o.progress {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "sweep: %d points, %d distinct simulations, %d cache hits, %.2fs sim wall\n",
			len(points), st.Simulated, st.CacheHits, st.SimWall.Seconds())
		fmt.Fprintf(os.Stderr, "sweep: profile %s\n", eng.Profile())
	}

	if o.countersOut != "" {
		profile := eng.Profile()
		rep := obs.Report{Profile: &profile}
		gov := ""
		if o.governor != "fixed" {
			gov = o.governor
		}
		for i, pt := range points {
			energy, err := obs.AttributeEnergy(modelFor(pt.Config), &results[i].Counts, results[i].Counters)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("attributing %s: %w", pt, err)
			}
			pc := obs.PointCounters{
				Workload: pt.App.Name,
				Config:   pt.Config.Name(),
				SimKey:   pt.Key(),
				Counters: results[i].Counters,
				Energy:   energy,
			}
			if pt.Config.ClockHz != 0 || pt.Config.VoltageV != 0 {
				p := dvfs.PointOf(pt.Config)
				pc.OperatingPoint = &obs.OperatingPointInfo{FreqMHz: p.MHz(), VoltageV: p.Voltage, Governor: gov}
			}
			rep.Points = append(rep.Points, pc)
		}
		if err := rep.WriteFile(o.countersOut); err != nil {
			return nil, nil, nil, err
		}
	}
	if o.traceOut != "" {
		traces := make([]obs.PointTrace, len(points))
		for i, pt := range points {
			traces[i] = obs.PointTrace{Name: pt.String(), Trace: results[i].Trace}
		}
		if err := obs.WriteChromeTracesFile(o.traceOut, traces); err != nil {
			return nil, nil, nil, err
		}
	}

	rows := make([]row, len(apps))
	for i, app := range apps {
		rows[i] = row{name: app.Name, category: app.Category}
	}
	return rows, results, ops, nil
}

// dialService builds the v2 service client: tenant billing, automatic
// 307 ownership-redirect following (a cluster node that does not own
// the sweep's points rebases the client onto the node that does), and
// Retry-After-honouring backpressure retry. With -progress, redirects
// and retry waits are narrated on stderr.
func dialService(url, tenant string, progress bool) (*service.Client, error) {
	opts := []service.ClientOption{
		service.WithBaseURL(url),
		service.WithTenant(tenant),
		service.WithRetry(service.RetryPolicy{
			Notify: func(err error, delay time.Duration) {
				if progress {
					fmt.Fprintf(os.Stderr, "sweep: backpressure (%v); retrying in %s\n", err, delay)
				}
			},
		}),
	}
	if progress {
		opts = append(opts, service.WithLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		}))
	}
	return service.Dial(opts...)
}

// rowSet resolves the spec's workload selection to CSV row identities.
// Workload categories come from the registry metadata — no traces are
// built client-side.
func rowSet(spec service.JobSpec) ([]row, error) {
	categories := map[string]trace.Category{}
	var eval14 []string
	for _, g := range workloads.Generators() {
		categories[g.Name] = g.Category
		if g.InEval14 {
			eval14 = append(eval14, g.Name)
		}
	}
	sel := sim.SplitList(spec.Workloads)
	if spec.All {
		sel = eval14
	}
	var rows []row
	for _, name := range sel {
		cat, ok := categories[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads.Names())
		}
		rows = append(rows, row{name: name, category: cat})
	}
	return rows, nil
}

// runRemote submits the grid as one gpujouled job and reassembles the
// row set from the daemon's result document.
func runRemote(url, tenant string, spec service.JobSpec, progress bool, perRow int) ([]row, []*sim.Result, error) {
	rows, err := rowSet(spec)
	if err != nil {
		return nil, nil, err
	}
	client, err := dialService(url, tenant, progress)
	if err != nil {
		return nil, nil, err
	}
	if progress {
		fmt.Fprintf(os.Stderr, "sweep: submitting %d points to %s\n", len(rows)*(perRow+1), url)
	}
	doc, err := client.RunSweep(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	if want := len(rows) * (perRow + 1); len(doc.Points) != want {
		return nil, nil, fmt.Errorf("daemon returned %d points, want %d; version skew?", len(doc.Points), want)
	}
	results := make([]*sim.Result, len(doc.Points))
	for i, p := range doc.Points {
		if p.Result == nil {
			return nil, nil, fmt.Errorf("daemon returned no result for %s", p.SimKey)
		}
		results[i] = p.Result
	}
	return rows, results, nil
}

// streamRemote submits the grid as one gpujouled job, follows its SSE
// event feed, and emits CSV rows incrementally: a row is written the
// moment its full point span (1-GPM baseline plus every grid config)
// has resolved, always in grid order — so the file grows live yet
// finishes byte-identical to a batch run, no matter how the scheduler
// interleaved this job with other tenants' work.
func streamRemote(bw *bufio.Writer, url, tenant string, spec service.JobSpec, progress bool, cfgs []sim.Config, op dvfs.OperatingPoint, freqCols bool) error {
	rows, err := rowSet(spec)
	if err != nil {
		return err
	}
	client, err := dialService(url, tenant, progress)
	if err != nil {
		return err
	}

	writeHeader(bw, freqCols)
	span := len(cfgs) + 1 // baseline + one point per config
	total := len(rows) * span
	results := make([]*sim.Result, total)
	next := 0 // first result index not yet rendered

	// flush renders every complete prefix row: row r spans result
	// indices [r*span, (r+1)*span).
	flush := func() error {
		for next < total {
			r := next / span
			end := (r + 1) * span
			complete := true
			for i := r * span; i < end; i++ {
				if results[i] == nil {
					complete = false
					break
				}
			}
			if !complete {
				return nil
			}
			base := results[r*span]
			for ci, cfg := range cfgs {
				scfg := dvfs.Apply(cfg, op)
				emit(bw, rows[r], scfg, modelFor(scfg), base, results[r*span+1+ci], freqCols)
			}
			next = end
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("writing output: %w", err)
			}
		}
		return nil
	}

	if progress {
		fmt.Fprintf(os.Stderr, "sweep: streaming %d points from %s\n", total, url)
	}
	var flushErr error
	doc, err := client.RunSweepStream(context.Background(), spec, func(ev service.JobEvent) {
		if flushErr != nil || ev.Kind != service.EventPoint || ev.Point == nil {
			return
		}
		if ev.Index >= 0 && ev.Index < total {
			results[ev.Index] = ev.Point.Result
		}
		if progress {
			fmt.Fprintf(os.Stderr, "sweep: point %d/%d (%s) %s\n", ev.Index+1, total, ev.Source, ev.Point.SimKey)
		}
		flushErr = flush()
	})
	if err != nil {
		return err
	}
	if flushErr != nil {
		return flushErr
	}
	if len(doc.Points) != total {
		return fmt.Errorf("daemon streamed %d points, want %d; version skew?", len(doc.Points), total)
	}
	// Anything the stream missed (it shouldn't — the log replays from
	// the start) is backfilled from the verified document.
	for i, p := range doc.Points {
		if results[i] == nil {
			if p.Result == nil {
				return fmt.Errorf("daemon returned no result for %s", p.SimKey)
			}
			results[i] = p.Result
		}
	}
	return flush()
}

func emit(w io.Writer, r row, cfg sim.Config, model *core.Model, base, res *sim.Result, freqCols bool) {
	b := model.Estimate(&res.Counts)
	bs := metrics.Sample{EnergyJoules: model.EstimateEnergy(&base.Counts), DelaySeconds: base.Seconds()}
	ss := metrics.Sample{EnergyJoules: b.Total(), DelaySeconds: res.Seconds()}
	pt := metrics.Derive(bs, cfg.GPMs, ss)
	stallFrac := float64(res.Counts.StallCycles) /
		(float64(res.Counts.Cycles) * float64(res.Counts.SMCount))
	fmt.Fprintf(w, "%s,%s,%d,%s,%s,%s,%d,%.6g,%.4g,%.6g,%.4g,%.4g,%.4g,%.4f,%.4f,%.4f,%.4g,%.4g,%.4f",
		r.name, r.category, cfg.GPMs, cfg.InterGPM, cfg.Topology, cfg.Domain,
		res.Counts.Cycles, res.Seconds(),
		pt.Speedup, ss.EnergyJoules, pt.EnergyRatio, pt.EDPSE, b.AveragePower(),
		res.L1HitRate(), res.L2HitRate(), res.RemoteFillFraction(),
		gb(res.Counts.TotalTransactionBytes(isa.TxnDRAMToL2)),
		gb(res.Counts.TotalTransactionBytes(isa.TxnInterGPM)),
		stallFrac)
	if freqCols {
		p := dvfs.PointOf(cfg)
		fmt.Fprintf(w, ",%g,%.2f", p.MHz(), p.Voltage)
	}
	fmt.Fprintln(w)
}

// modelFor prices a config's energy: the projection model of its
// integration domain, rescaled to any operating point stamped on it
// (the nominal path returns the unscaled model).
func modelFor(cfg sim.Config) *core.Model {
	m := core.ProjectionModel(core.OnBoardLinks())
	if cfg.Domain == sim.DomainOnPackage {
		m = core.ProjectionModel(core.OnPackageLinks())
	}
	return dvfs.ScaleForConfig(m, cfg)
}

func gb(b uint64) float64 { return float64(b) / (1 << 30) }
