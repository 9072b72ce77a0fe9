// Command gpmsim simulates one workload on one multi-module GPU
// configuration and reports performance, event counts, and the
// GPUJoule energy breakdown.
//
// Usage:
//
//	gpmsim -workload Stream -gpms 8 [-bw 2x] [-topology ring]
//	       [-monolithic] [-scale f] [-baseline] [-json]
//	       [-freq mhz] [-governor fixed|sweetspot|racetoidle|pacetofinish]
//	       [-deadline s] [-counters out.json] [-sample cycles]
//	       [-trace out.trace.json] [-httpaddr :8080] [-version]
//
// With -freq, the run executes at the given K40 V/f-curve operating
// point (internal/dvfs): timing re-derives under the scaled clock and
// energy is priced by the rescaled model. -governor lets a DVFS policy
// pick the point instead: sweetspot minimizes EDP over the curve,
// racetoidle chooses between racing at the curve maximum (then deep-
// idling the slack) and pacing at the minimum, and pacetofinish picks
// the slowest point that still meets -deadline. The 1-GPM baseline of
// -baseline runs at the same chosen point.
//
// With -baseline, the 1-GPM run is also simulated and scaling metrics
// (speedup, energy ratio, EDPSE, parallel efficiency) are reported.
// With -counters, the run records per-GPM/per-link observability
// counters (internal/obs) plus the exact energy attribution and writes
// them as JSON; -sample additionally records a time series every given
// number of cycles. With -trace, the run's timeline is written as a
// Chrome trace_event file (chrome://tracing / Perfetto). With
// -httpaddr, the process serves live introspection (pprof, /progress,
// /metrics) while it runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpujoule/internal/core"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/interconnect"
	"gpujoule/internal/isa"
	"gpujoule/internal/metrics"
	"gpujoule/internal/obs"
	"gpujoule/internal/profiling"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

func main() {
	prof := profiling.AddFlags()
	name := flag.String("workload", "Stream", "Table II workload name (see -list)")
	gpms := flag.Int("gpms", 4, "number of GPU modules (1, 2, 4, 8, 16, 32)")
	bw := flag.String("bw", "2x", "inter-GPM bandwidth setting: 1x, 2x, or 4x")
	topo := flag.String("topology", "ring", "inter-GPM topology: ring or switch")
	mono := flag.Bool("monolithic", false, "fuse modules into a hypothetical monolithic die")
	scale := flag.Float64("scale", 0.5, "workload scale factor (1.0 = paper scale)")
	baseline := flag.Bool("baseline", false, "also run 1-GPM and report scaling metrics")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON summary instead of text")
	countersOut := flag.String("counters", "", "write per-GPM/per-link counters + energy attribution JSON to this file")
	sample := flag.Float64("sample", 0, "with -counters, record a time-series sample every n cycles")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the run to this file")
	httpAddr := flag.String("httpaddr", "", "serve live introspection (pprof, /progress, /metrics) on this address")
	freqMHz := flag.Float64("freq", 0, "run at this K40 V/f-curve frequency in MHz (0 = nominal 1000)")
	governor := flag.String("governor", "fixed", "operating-point policy: fixed, sweetspot, racetoidle, or pacetofinish")
	deadline := flag.Float64("deadline", 0, "with -governor pacetofinish: the wall-clock deadline in seconds (0 = slowest curve point)")
	version := flag.Bool("version", false, "print schema and module version, then exit")
	list := flag.Bool("list", false, "list workload names and exit")
	flag.Parse()

	if *version {
		fmt.Println(profiling.VersionString("gpmsim"))
		return
	}
	if *list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	app, err := workloads.ByName(*name, workloads.Params{Scale: *scale})
	if err != nil {
		fatal(err)
	}

	cfg, err := buildConfig(*gpms, *bw, *topo, *mono)
	if err != nil {
		fatal(err)
	}
	// The engine must exist before the introspection server starts: the
	// server's handlers pull the profile from listener goroutines, so a
	// late-bound engine variable would race with them. Events only fire
	// inside Run, which starts after srv is assigned.
	var srv *profiling.HTTPServer
	eng := runner.New(runner.Options{
		OnEvent: func(ev runner.Event) {
			if srv != nil && ev.Kind == runner.PointDone {
				srv.SetProgress(ev.Completed, ev.Total)
			}
		},
		Counters:       *countersOut != "",
		SampleInterval: *sample,
		Trace:          *traceOut != "",
	})
	if *httpAddr != "" {
		srv, err = profiling.ServeHTTP(*httpAddr, eng.Profile)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gpmsim: live introspection on http://%s/\n", srv.Addr())
	}

	// The operating point comes from -freq, or from the chosen
	// governor's sweep of the V/f curve (every candidate runs through
	// the same engine, so the final point is a memo hit).
	op, decision, err := pickPoint(eng, app, *scale, cfg, *governor, *freqMHz, *deadline)
	if err != nil {
		fatal(err)
	}
	if decision != nil {
		fmt.Fprintf(os.Stderr, "gpmsim: governor %s chose %s (%s)\n",
			decision.Policy, decision.Point, decision.Reason)
	}
	cfg = dvfs.Apply(cfg, op)
	model := dvfs.ScaleForConfig(core.ProjectionModel(linksFor(cfg)), cfg)

	// Both points (the run and, with -baseline, its 1-GPM reference)
	// go through the shared run engine: they execute concurrently and
	// identical points collapse to one simulation.
	points := []runner.Point{{App: app, Scale: *scale, Config: cfg}}
	withBase := *baseline && !*mono && *gpms > 1
	if withBase {
		points = append(points, runner.Point{App: app, Scale: *scale, Config: dvfs.Apply(sim.MultiGPM(1, sim.BW2x), op)})
	}
	results, err := eng.Run(context.Background(), points)
	if err != nil {
		fatal(err)
	}
	res := results[0]

	if *countersOut != "" {
		profile := eng.Profile()
		rep := obs.Report{Profile: &profile}
		for i, pt := range points {
			m := dvfs.ScaleForConfig(core.ProjectionModel(linksFor(pt.Config)), pt.Config)
			energy, err := obs.AttributeEnergy(m, &results[i].Counts, results[i].Counters)
			if err != nil {
				fatal(err)
			}
			pc := obs.PointCounters{
				Workload: pt.App.Name,
				Config:   pt.Config.Name(),
				SimKey:   pt.Key(),
				Counters: results[i].Counters,
				Energy:   energy,
			}
			if !op.IsNominal() {
				pc.OperatingPoint = &obs.OperatingPointInfo{FreqMHz: op.MHz(), VoltageV: op.Voltage}
				if decision != nil {
					pc.OperatingPoint.Governor = decision.Policy
					pc.OperatingPoint.Reason = decision.Reason
				}
			}
			rep.Points = append(rep.Points, pc)
		}
		if err := rep.WriteFile(*countersOut); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		label := fmt.Sprintf("%s on %s", app.Name, cfg.Name())
		if err := res.Trace.WriteChromeFile(*traceOut, label); err != nil {
			fatal(err)
		}
	}

	var pt *metrics.ScalingPoint
	if withBase {
		base := results[1]
		bs := metrics.Sample{EnergyJoules: model.EstimateEnergy(&base.Counts), DelaySeconds: base.Seconds()}
		ss := metrics.Sample{EnergyJoules: model.EstimateEnergy(&res.Counts), DelaySeconds: res.Seconds()}
		p := metrics.Derive(bs, cfg.GPMs, ss)
		pt = &p
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, app.Name, cfg, model, res, pt); err != nil {
			fatal(err)
		}
		return
	}
	printRun(app.Name, cfg, model, res)
	if pt != nil {
		fmt.Printf("\nscaling vs 1-GPM: %v\n", *pt)
	}
}

// summary is the -json output schema.
type summary struct {
	Workload    string                `json:"workload"`
	Config      string                `json:"config"`
	GPMs        int                   `json:"gpms"`
	Cycles      uint64                `json:"cycles"`
	Seconds     float64               `json:"seconds"`
	EnergyJ     float64               `json:"energy_joules"`
	AvgPowerW   float64               `json:"avg_power_watts"`
	Launches    int                   `json:"launches"`
	L1HitRate   float64               `json:"l1_hit_rate"`
	L2HitRate   float64               `json:"l2_hit_rate"`
	RemoteFills float64               `json:"remote_fill_fraction"`
	Breakdown   map[string]float64    `json:"energy_breakdown_joules"`
	Txns        map[string]uint64     `json:"transactions"`
	Scaling     *metrics.ScalingPoint `json:"scaling_vs_1gpm,omitempty"`
	// FreqMHz/VoltageV record a non-nominal DVFS operating point
	// (absent at the nominal 1000 MHz, keeping the legacy schema).
	FreqMHz  float64 `json:"freq_mhz,omitempty"`
	VoltageV float64 `json:"voltage_v,omitempty"`
}

func writeJSON(w *os.File, app string, cfg sim.Config, model *core.Model, res *sim.Result, pt *metrics.ScalingPoint) error {
	b := model.Estimate(&res.Counts)
	out := summary{
		Workload:    app,
		Config:      cfg.Name(),
		GPMs:        cfg.GPMs,
		Cycles:      res.Counts.Cycles,
		Seconds:     res.Seconds(),
		EnergyJ:     b.Total(),
		AvgPowerW:   b.AveragePower(),
		Launches:    len(res.Launches),
		L1HitRate:   res.L1HitRate(),
		L2HitRate:   res.L2HitRate(),
		RemoteFills: res.RemoteFillFraction(),
		Breakdown: map[string]float64{
			"compute":  b.Compute,
			"stall":    b.Stall,
			"constant": b.Constant,
			"shm_rf":   b.ShmToRF,
			"l1_rf":    b.L1ToRF,
			"l2_l1":    b.L2ToL1,
			"dram_l2":  b.DRAMToL2,
			"intergpm": b.InterGPM,
		},
		Txns:    make(map[string]uint64, isa.NumTxnKinds),
		Scaling: pt,
	}
	if cfg.ClockHz != 0 || cfg.VoltageV != 0 {
		p := dvfs.PointOf(cfg)
		out.FreqMHz, out.VoltageV = p.MHz(), p.Voltage
	}
	for k := 0; k < isa.NumTxnKinds; k++ {
		kind := isa.TxnKind(k)
		if n := res.Counts.Txn[kind]; n > 0 {
			out.Txns[kind.String()] = n
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// pickPoint resolves the run's operating point: -freq under the fixed
// policy, or the governor's choice after evaluating every curve point
// through the engine.
func pickPoint(eng *runner.Engine, app *trace.App, scale float64, cfg sim.Config,
	governor string, freqMHz, deadline float64) (dvfs.OperatingPoint, *dvfs.Decision, error) {
	curve := dvfs.K40Curve()
	if governor == "fixed" {
		if freqMHz == 0 {
			return dvfs.Nominal(), nil, nil
		}
		p, err := curve.AtMHz(freqMHz)
		return p, nil, err
	}
	if freqMHz != 0 {
		return dvfs.Nominal(), nil, fmt.Errorf("-governor %s picks its own frequency; drop -freq", governor)
	}
	var gov dvfs.Governor
	switch governor {
	case "sweetspot":
		gov = dvfs.SweetSpot{}
	case "racetoidle":
		m := core.ProjectionModel(linksFor(cfg))
		gov = dvfs.RaceToIdle{IdleWatts: dvfs.DeepIdleFraction * m.ConstantPowerTotal(cfg.GPMs)}
	case "pacetofinish":
		gov = dvfs.PaceToFinish{DeadlineSeconds: deadline}
	default:
		return dvfs.Nominal(), nil, fmt.Errorf("unknown -governor %q (fixed, sweetspot, racetoidle, pacetofinish)", governor)
	}
	d, err := gov.Decide(curve, func(p dvfs.OperatingPoint) (dvfs.Metrics, error) {
		c := dvfs.Apply(cfg, p)
		r, err := eng.One(context.Background(), runner.Point{App: app, Scale: scale, Config: c})
		if err != nil {
			return dvfs.Metrics{}, err
		}
		m := dvfs.ScaleForConfig(core.ProjectionModel(linksFor(c)), c)
		return dvfs.Metrics{Point: p, Energy: m.EstimateEnergy(&r.Counts), Seconds: r.Seconds()}, nil
	})
	if err != nil {
		return dvfs.Nominal(), nil, err
	}
	return d.Point, &d, nil
}

func buildConfig(gpms int, bw, topo string, mono bool) (sim.Config, error) {
	var setting sim.BWSetting
	switch bw {
	case "1x":
		setting = sim.BW1x
	case "2x":
		setting = sim.BW2x
	case "4x":
		setting = sim.BW4x
	default:
		return sim.Config{}, fmt.Errorf("unknown bandwidth setting %q (want 1x, 2x, or 4x)", bw)
	}
	cfg := sim.MultiGPM(gpms, setting)
	switch topo {
	case "ring":
	case "switch":
		cfg.Topology = interconnect.TopologySwitch
		cfg.Domain = sim.DomainOnBoard
	default:
		return sim.Config{}, fmt.Errorf("unknown topology %q (want ring or switch)", topo)
	}
	cfg.Monolithic = mono
	return cfg, nil
}

func linksFor(cfg sim.Config) core.LinkEnergyConfig {
	if cfg.Domain == sim.DomainOnPackage {
		return core.OnPackageLinks()
	}
	return core.OnBoardLinks()
}

func printRun(app string, cfg sim.Config, model *core.Model, res *sim.Result) {
	b := model.Estimate(&res.Counts)
	fmt.Printf("workload:   %s on %s\n", app, cfg.Name())
	fmt.Printf("time:       %.3f ms (%d launches)\n", res.Seconds()*1e3, len(res.Launches))
	fmt.Printf("energy:     %.4f J (avg power %.1f W)\n", b.Total(), b.AveragePower())
	fmt.Printf("caches:     L1 hit %.1f%%  L2 hit %.1f%%  remote fills %.1f%%\n",
		res.L1HitRate()*100, res.L2HitRate()*100, res.RemoteFillFraction()*100)
	fmt.Printf("breakdown:  compute %.3f J | stall %.3f J | const %.3f J\n",
		b.Compute, b.Stall, b.Constant)
	fmt.Printf("            shm->RF %.3f J | L1->RF %.3f J | L2->L1 %.3f J | DRAM->L2 %.3f J | inter-GPM %.3f J\n",
		b.ShmToRF, b.L1ToRF, b.L2ToL1, b.DRAMToL2, b.InterGPM)
	fmt.Printf("traffic:    DRAM %.1f MB  inter-GPM %.1f MB (%d switch sectors)\n",
		mb(res.Counts.TotalTransactionBytes(isa.TxnDRAMToL2)),
		mb(res.Counts.TotalTransactionBytes(isa.TxnInterGPM)),
		res.Counts.Txn[isa.TxnSwitch])
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// usageHint maps the simulator's typed configuration errors to the flag
// the user should fix.
func usageHint(err error) string {
	switch {
	case errors.Is(err, sim.ErrBadGPMCount):
		return "use -gpms with a positive module count (1, 2, 4, 8, 16, or 32)"
	case errors.Is(err, sim.ErrBadSMCount):
		return "the configuration needs at least one SM per module"
	case errors.Is(err, sim.ErrBadCacheSize):
		return "L1 and L2 capacities must be positive"
	case errors.Is(err, sim.ErrBadBandwidth):
		return "use -bw 1x, 2x, or 4x for a positive link bandwidth"
	case errors.Is(err, sim.ErrBadFrequency):
		return "the clock must be a positive, finite frequency in Hz"
	case errors.Is(err, sim.ErrBadVoltage):
		return "the supply voltage must be a positive, finite value in volts"
	case errors.Is(err, dvfs.ErrOffCurve):
		return "pick -freq from the K40 V/f curve (600, 700, 800, 900, 1000, 1100, or 1200 MHz)"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpmsim:", err)
	if hint := usageHint(err); hint != "" {
		fmt.Fprintln(os.Stderr, "gpmsim: hint:", hint)
	}
	os.Exit(1)
}
