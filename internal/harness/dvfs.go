package harness

import (
	"fmt"
	"math"

	"gpujoule/internal/dvfs"
	"gpujoule/internal/isa"
	"gpujoule/internal/obs"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
)

// SweetSpotRow is one workload's sweet-spot search outcome.
type SweetSpotRow struct {
	// Workload is the application name.
	Workload string
	// Decision is the governor's choice with all candidate evaluations.
	Decision dvfs.Decision
	// Nominal is the evaluation at the nominal 1 GHz point.
	Nominal dvfs.Metrics
	// GainPct is the objective improvement of the chosen point over
	// nominal, in percent (positive = the sweet spot is better).
	GainPct float64
}

// SweetSpotResult is the per-workload sweet-spot study.
type SweetSpotResult struct {
	// GPMs is the module count the search ran at.
	GPMs int
	// Objective names the minimized objective.
	Objective string
	// Rows holds one entry per workload, in evaluation order.
	Rows []SweetSpotRow
}

// SweetSpotStudy sweeps every workload over the K40 V/f curve at the
// given module count (1 = the baseline GPM) and picks each workload's
// objective-minimizing operating point. A nil objective minimizes EDP.
// The whole (workloads × curve) grid primes through the run engine
// first, so the governor's evaluations are memo hits.
func (h *Harness) SweetSpotStudy(gpms int, obj dvfs.Objective, objName string) (SweetSpotResult, error) {
	if obj == nil {
		obj, objName = dvfs.MinEDP, "EDP"
	}
	curve := dvfs.K40Curve()
	res := SweetSpotResult{GPMs: gpms, Objective: objName}

	cfgFor := func(p dvfs.OperatingPoint) sim.Config {
		return dvfs.Apply(sim.MultiGPM(gpms, sim.BW2x), p)
	}
	var pts []runner.Point
	for _, app := range h.apps {
		for _, p := range curve.Points() {
			pts = append(pts, runner.Point{App: app, Scale: h.params.Scale, Config: cfgFor(p)})
		}
	}
	if _, err := h.engine.Run(h.ctx, pts); err != nil {
		return res, err
	}

	gov := dvfs.SweetSpot{Objective: obj, ObjectiveName: objName}
	for _, app := range h.apps {
		eval := h.evaluator(app, cfgFor)
		d, err := gov.Decide(curve, eval)
		if err != nil {
			return res, err
		}
		nom, err := eval(dvfs.Nominal())
		if err != nil {
			return res, err
		}
		gain := 0.0
		if v := obj(nom); v > 0 {
			gain = (v - obj(d.Chosen)) / v * 100
		}
		res.Rows = append(res.Rows, SweetSpotRow{
			Workload: app.Name,
			Decision: d,
			Nominal:  nom,
			GainPct:  gain,
		})
	}
	return res, nil
}

// evaluator backs a governor with memoized simulations: each operating
// point simulates the stamped config and prices it with the matching
// rescaled model.
func (h *Harness) evaluator(app *trace.App, cfgFor func(dvfs.OperatingPoint) sim.Config) dvfs.Evaluator {
	return func(p dvfs.OperatingPoint) (dvfs.Metrics, error) {
		cfg := cfgFor(p)
		r, err := h.run(app, cfg)
		if err != nil {
			return dvfs.Metrics{}, err
		}
		m := h.Model(cfg)
		return dvfs.Metrics{
			Point:   p,
			Energy:  m.EstimateEnergy(&r.Counts),
			Seconds: r.Seconds(),
		}, nil
	}
}

// Table renders the sweet-spot study.
func (r SweetSpotResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("DVFS sweet spot per workload (%d-GPM, min %s over the K40 V/f curve)", r.GPMs, r.Objective),
		Note: "candidates simulated at every curve point; energy priced by the per-point rescaled model " +
			"(dynamic terms ×V², constant power per-unit-time); gain is vs the nominal 1 GHz point",
		Header: []string{"workload", "sweet spot", "energy J", "seconds", "nominal J", r.Objective + " gain"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Workload,
			row.Decision.Point.String(),
			fmt.Sprintf("%.4g", row.Decision.Chosen.Energy),
			fmt.Sprintf("%.4g", row.Decision.Chosen.Seconds),
			fmt.Sprintf("%.4g", row.Nominal.Energy),
			fmt.Sprintf("%+.1f%%", row.GainPct),
		)
	}
	return t
}

// RaceToIdleRow is one module count's race-vs-pace outcome.
type RaceToIdleRow struct {
	// GPMs is the module count.
	GPMs int
	// IdleWatts is the deep-idle power charged to the racer
	// (DeepIdleFraction × the design's total constant power).
	IdleWatts float64
	// RaceWins and PaceWins count the workloads each strategy won.
	RaceWins, PaceWins int
	// AvgSavingPct is the mean energy saving of each workload's winning
	// strategy over its losing one, in percent.
	AvgSavingPct float64
}

// RaceToIdleResult is the race-to-idle vs pace-to-finish study.
type RaceToIdleResult struct {
	// Rows holds one entry per module count, ascending.
	Rows []RaceToIdleRow
}

// RaceToIdleStudy pits racing (run at the curve maximum, deep-idle the
// slack until the pace deadline) against pacing (run at the curve
// minimum) for every workload at 1–32 GPMs. The deadline is the paced
// runtime; the racer is charged DeepIdleFraction of the design's
// constant power over the slack it buys. As module count grows, the
// idle bill of a racing multi-module machine grows with (amortized)
// per-GPM constant power — the multi-GPM twist on the classic result.
func (h *Harness) RaceToIdleStudy() (RaceToIdleResult, error) {
	var res RaceToIdleResult
	curve := dvfs.K40Curve()
	steps := append([]int{1}, GPMSteps...)

	var pts []runner.Point
	cfgFor := func(n int, p dvfs.OperatingPoint) sim.Config {
		return dvfs.Apply(sim.MultiGPM(n, sim.BW2x), p)
	}
	for _, n := range steps {
		for _, p := range []dvfs.OperatingPoint{curve.Min(), curve.Max()} {
			for _, app := range h.apps {
				pts = append(pts, runner.Point{App: app, Scale: h.params.Scale, Config: cfgFor(n, p)})
			}
		}
	}
	if _, err := h.engine.Run(h.ctx, pts); err != nil {
		return res, err
	}

	for _, n := range steps {
		idle := dvfs.DeepIdleFraction * h.Model(sim.MultiGPM(n, sim.BW2x)).ConstantPowerTotal(n)
		gov := dvfs.RaceToIdle{IdleWatts: idle}
		row := RaceToIdleRow{GPMs: n, IdleWatts: idle}
		var savings []float64
		for _, app := range h.apps {
			d, err := gov.Decide(curve, h.evaluator(app, func(p dvfs.OperatingPoint) sim.Config {
				return cfgFor(n, p)
			}))
			if err != nil {
				return res, err
			}
			pace, race := d.Candidates[0], d.Candidates[1]
			slack := pace.Seconds - race.Seconds
			if slack < 0 {
				slack = 0
			}
			raceTotal := race.Energy + idle*slack
			if d.Point == race.Point {
				row.RaceWins++
				savings = append(savings, (pace.Energy-raceTotal)/pace.Energy*100)
			} else {
				row.PaceWins++
				savings = append(savings, (raceTotal-pace.Energy)/raceTotal*100)
			}
		}
		var sum float64
		for _, s := range savings {
			sum += s
		}
		if len(savings) > 0 {
			row.AvgSavingPct = sum / float64(len(savings))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the race-to-idle study.
func (r RaceToIdleResult) Table() *Table {
	t := &Table{
		Title: "Race-to-idle vs pace-to-finish at 1-32 GPMs (2x-BW ring, on-package)",
		Note: fmt.Sprintf("deadline = runtime at the curve minimum; racer charged %.0f%% of the design's "+
			"constant power while deep-idling the slack", dvfs.DeepIdleFraction*100),
		Header: []string{"GPMs", "idle W", "race wins", "pace wins", "avg saving"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.GPMs),
			fmt.Sprintf("%.1f", row.IdleWatts),
			fmt.Sprintf("%d", row.RaceWins),
			fmt.Sprintf("%d", row.PaceWins),
			fmt.Sprintf("%.1f%%", row.AvgSavingPct),
		)
	}
	return t
}

// RooflineRow is one (workload, design) point of the energy roofline.
type RooflineRow struct {
	// Workload is the application name.
	Workload string
	// GPMs is the module count; Topology the fabric ("ring"/"switch",
	// "-" for the fabric-less 1-GPM design).
	GPMs     int
	Topology string
	// FreqMHz is the operating-point clock the design ran at.
	FreqMHz float64
	// AI is the arithmetic intensity: thread-level compute instructions
	// per DRAM byte moved (math.Inf(1) for kernels that never touch
	// DRAM).
	AI float64
	// OpsPerJoule is the energy efficiency: compute instructions per
	// joule of total attributed energy.
	OpsPerJoule float64
	// TotalJ is the attributed total energy; ConstSharePct the constant
	// term's share of it in percent.
	TotalJ        float64
	ConstSharePct float64
}

// RooflineResult is the energy-roofline report: ops/J vs arithmetic
// intensity per GPM count and topology.
type RooflineResult struct {
	// FreqMHz is the operating-point clock of the study.
	FreqMHz float64
	// Rows holds workload-major rows (all designs of one workload
	// together), designs ascending in GPM count, ring before switch.
	Rows []RooflineRow
}

// defaultRooflineSteps are the module counts of the roofline report.
var defaultRooflineSteps = []int{1, 4, 16, 32}

// EnergyRooflineStudy builds the energy-roofline report: for every
// workload and every (GPM count, topology) design, the arithmetic
// intensity (compute instructions per DRAM byte) against achieved
// energy efficiency (ops/J). Energy is the bit-exact per-term
// attribution of obs.AttributeEnergy, so the report's totals reconcile
// with the Eq. 4 aggregate by construction. gpmCounts nil selects
// 1/4/16/32; switch designs cover the counts above 1.
//
// The study needs per-GPM/per-link counters, so it runs its grid
// through a dedicated counters-enabled engine (the harness's shared
// engine keeps its construction-time options).
func (h *Harness) EnergyRooflineStudy(gpmCounts []int) (RooflineResult, error) {
	if len(gpmCounts) == 0 {
		gpmCounts = defaultRooflineSteps
	}
	res := RooflineResult{FreqMHz: dvfs.PointOf(h.cfgAt(baselineCfg())).MHz()}

	var cfgs []sim.Config
	for _, n := range gpmCounts {
		cfgs = append(cfgs, h.cfgAt(sim.MultiGPM(n, sim.BW2x)))
		if n > 1 {
			cfgs = append(cfgs, h.cfgAt(switchedCfg(n, sim.BW2x)))
		}
	}

	eng := runner.New(runner.Options{Workers: h.engine.Workers(), Counters: true})
	var pts []runner.Point
	for _, app := range h.apps {
		for _, cfg := range cfgs {
			pts = append(pts, runner.Point{App: app, Scale: h.params.Scale, Config: cfg})
		}
	}
	results, err := eng.Run(h.ctx, pts)
	if err != nil {
		return res, err
	}

	for i, pt := range pts {
		r := results[i]
		a, err := obs.AttributeEnergy(h.Model(pt.Config), &r.Counts, r.Counters)
		if err != nil {
			return res, err
		}
		ops := float64(r.Counts.TotalInstructions())
		dramBytes := float64(r.Counts.TotalTransactionBytes(isa.TxnDRAMToL2))
		ai := math.Inf(1)
		if dramBytes > 0 {
			ai = ops / dramBytes
		}
		topo := "-"
		if pt.Config.GPMs > 1 {
			topo = pt.Config.Topology.String()
		}
		row := RooflineRow{
			Workload:    pt.App.Name,
			GPMs:        pt.Config.GPMs,
			Topology:    topo,
			FreqMHz:     dvfs.PointOf(pt.Config).MHz(),
			AI:          ai,
			OpsPerJoule: ops / a.TotalJ,
			TotalJ:      a.TotalJ,
		}
		if a.TotalJ > 0 {
			row.ConstSharePct = a.Terms.ConstantJ / a.TotalJ * 100
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the energy roofline.
func (r RooflineResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Energy roofline: ops/J vs arithmetic intensity per GPM count and topology (%g MHz)", r.FreqMHz),
		Note: "AI = thread compute instructions per DRAM byte; energy is the bit-exact obs.AttributeEnergy " +
			"decomposition of the Eq. 4 model (const share shown)",
		Header: []string{"workload", "GPMs", "topology", "MHz", "AI ops/B", "Mops/J", "total J", "const"},
	}
	for _, row := range r.Rows {
		ai := "inf"
		if !math.IsInf(row.AI, 1) {
			ai = fmt.Sprintf("%.3f", row.AI)
		}
		t.AddRow(
			row.Workload,
			fmt.Sprintf("%d", row.GPMs),
			row.Topology,
			fmt.Sprintf("%g", row.FreqMHz),
			ai,
			fmt.Sprintf("%.2f", row.OpsPerJoule/1e6),
			fmt.Sprintf("%.4g", row.TotalJ),
			fmt.Sprintf("%.1f%%", row.ConstSharePct),
		)
	}
	return t
}
