package harness

import (
	"fmt"

	"gpujoule/internal/obs"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/workloads"
)

// energyAttrSteps are the module counts of the attribution walkthrough.
var energyAttrSteps = []int{4, 16, 32}

// EnergyAttributionStudy reproduces the paper's headline attribution
// argument (§V-B/§VI) from the exact per-term energy decomposition: as
// the module count grows, the inter-GPM share of total energy stays
// small even on the on-board 1x-bandwidth design where link energy/bit
// is at its worst — the links hurt through the *stall* term (exposed
// remote latency), not through their own energy. The final column
// quantifies the "energy/bit doesn't matter" half directly: quadrupling
// the per-bit link energy moves total energy by well under the stall
// term's share.
//
// The study needs per-GPM/per-link counters, so it runs its points
// through a dedicated counters-enabled engine rather than the harness's
// shared one (whose options are fixed at construction).
func (h *Harness) EnergyAttributionStudy() (*Table, error) {
	app, err := workloads.ByName("MiniAMR", h.params)
	if err != nil {
		return nil, err
	}
	eng := runner.New(runner.Options{Workers: h.engine.Workers(), Counters: true})

	var points []runner.Point
	for _, n := range energyAttrSteps {
		points = append(points, runner.Point{App: app, Scale: h.params.Scale, Config: h.cfgAt(sim.MultiGPM(n, sim.BW1x))})
	}
	results, err := eng.Run(h.ctx, points)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Energy attribution: per-term shares on the on-board 1x-BW ring (MiniAMR)",
		Note: "exact decomposition (obs.AttributeEnergy reconciles bit-exactly with the aggregate); " +
			"Δtotal@4x-link reprices the same counts with 4x link energy/bit (§V-C)",
		Header: []string{"GPMs", "Total J", "compute", "stall", "const",
			"shm->RF", "L1->RF", "L2->L1", "DRAM->L2", "inter-GPM", "Δtotal@4x-link"},
	}
	pct := func(part, total float64) string {
		if total == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", part/total*100)
	}
	for i, pt := range points {
		res := results[i]
		model := h.Model(pt.Config)
		a, err := obs.AttributeEnergy(model, &res.Counts, res.Counters)
		if err != nil {
			return nil, err
		}
		scaled := model.WithLinkEnergy(4).EstimateEnergy(&res.Counts)
		t.AddRow(
			fmt.Sprintf("%d", pt.Config.GPMs),
			fmt.Sprintf("%.3f", a.TotalJ),
			pct(a.Terms.ComputeJ, a.TotalJ),
			pct(a.Terms.StallJ, a.TotalJ),
			pct(a.Terms.ConstantJ, a.TotalJ),
			pct(a.Terms.ShmToRFJ, a.TotalJ),
			pct(a.Terms.L1ToRFJ, a.TotalJ),
			pct(a.Terms.L2ToL1J, a.TotalJ),
			pct(a.Terms.DRAMToL2J, a.TotalJ),
			pct(a.Terms.InterGPMJ, a.TotalJ),
			fmt.Sprintf("%+.2f%%", (scaled-a.TotalJ)/a.TotalJ*100),
		)
	}
	return t, nil
}
