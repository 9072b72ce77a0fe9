package harness

import (
	"fmt"

	"gpujoule/internal/bottomup"
	"gpujoule/internal/stats"
)

// FidelityRow is one application's estimation error under each model.
type FidelityRow struct {
	App string
	// TopDownPct is the calibrated GPUJoule error (Fig. 4b).
	TopDownPct float64
	// KeplerTunedPct is the bottom-up model tuned for the silicon's own
	// generation.
	KeplerTunedPct float64
	// FermiTunedPct is the bottom-up model tuned for the previous
	// generation and applied without retuning (§II).
	FermiTunedPct float64
}

// FidelityResult is the §II model-fidelity comparison.
type FidelityResult struct {
	Rows []FidelityRow
	// MAE per model, percent.
	TopDownMAE, KeplerMAE, FermiMAE float64
	// FermiMeanErr is the signed mean error of the stale tuning (the
	// paper reports an average error of over 100%).
	FermiMeanErr float64
}

// FidelityStudy reproduces the §II motivation: calibrate GPUJoule
// top-down against the reference silicon, then compare its
// application-level accuracy with a bottom-up model tuned for the same
// generation and with one tuned for the previous generation applied
// without retuning. It rescores Validate's calibrated model and
// application measurements, so it simulates nothing of its own.
func (h *Harness) FidelityStudy() (FidelityResult, error) {
	var res FidelityResult
	v, err := h.Validate()
	if err != nil {
		return res, err
	}
	kepler := bottomup.TunedKepler()
	fermi := bottomup.TunedFermi()

	var kp, fm []float64
	for i, e := range v.Fig4b {
		m := v.Calibration.AppRuns[i]
		c := &m.Result.Counts
		row := FidelityRow{
			App:            e.Name,
			TopDownPct:     e.ErrPct(),
			KeplerTunedPct: stats.RelErrPct(kepler.Estimate(c), m.SensorJoules),
			FermiTunedPct:  stats.RelErrPct(fermi.Estimate(c), m.SensorJoules),
		}
		res.Rows = append(res.Rows, row)
		kp = append(kp, row.KeplerTunedPct)
		fm = append(fm, row.FermiTunedPct)
	}
	res.TopDownMAE = v.Fig4bMAEPct()
	res.KeplerMAE = stats.MeanAbs(kp)
	res.FermiMAE = stats.MeanAbs(fm)
	res.FermiMeanErr = stats.Mean(fm)
	return res, nil
}

// FidelityTable renders the model-fidelity comparison.
func FidelityTable(r FidelityResult) *Table {
	t := &Table{
		Title: "Study: top-down vs bottom-up model fidelity (§II)",
		Note: fmt.Sprintf("MAE: GPUJoule %.1f%%, bottom-up same-generation %.1f%%, "+
			"bottom-up stale (Fermi-tuned) %.1f%% (mean %+.0f%%; paper reports >100%% average error "+
			"without retuning)", r.TopDownMAE, r.KeplerMAE, r.FermiMAE, r.FermiMeanErr),
		Header: []string{"Application", "GPUJoule", "Bottom-up (Kepler-tuned)", "Bottom-up (Fermi-tuned)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App,
			fmt.Sprintf("%+.1f%%", row.TopDownPct),
			fmt.Sprintf("%+.1f%%", row.KeplerTunedPct),
			fmt.Sprintf("%+.1f%%", row.FermiTunedPct))
	}
	return t
}
