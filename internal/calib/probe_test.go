package calib

import (
	"context"
	"os"
	"testing"

	"gpujoule/internal/isa"
	"gpujoule/internal/silicon"
	"gpujoule/internal/workloads"
)

// TestProbeCalibration is an exploratory aid that prints the full
// calibration outcome: recovered Table Ib values, Fig. 4a mixed-bench
// errors, and Fig. 4b application errors.
func TestProbeCalibration(t *testing.T) {
	if os.Getenv("GPUJOULE_PROBE") == "" {
		t.Skip("exploratory probe; set GPUJOULE_PROBE=1 to run")
	}
	apps := workloads.All(workloads.Params{Scale: 1.0})
	res, err := Validate(context.Background(), newEngine(), silicon.NewK40(), apps, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("idle=%gW EPStall=%.3gnJ", res.IdleWatts, res.Model.EPStall*1e9)
	for _, op := range isa.ComputeOps() {
		t.Logf("EPI %-8v calibrated=%.4f nJ", op, res.Model.EPI[op]*1e9)
	}
	for _, k := range []isa.TxnKind{isa.TxnShmToRF, isa.TxnL1ToRF, isa.TxnL2ToL1, isa.TxnDRAMToL2} {
		t.Logf("EPT %-14v calibrated=%.3f nJ", k, res.Model.EPT[k]*1e9)
	}
	for _, e := range res.MixedErrors {
		t.Logf("fig4a %-22s err=%+.2f%%", e.Name, e.ErrPct())
	}
	t.Logf("fig4a MAE=%.2f%%", res.MixedMAEPct())

	for _, e := range res.AppErrors {
		t.Logf("fig4b %-11s err=%+.1f%%  (modeled %.3g J, measured %.3g J)",
			e.Name, e.ErrPct(), e.ModeledJoules, e.MeasuredJoules)
	}
	t.Logf("fig4b MAE=%.1f%%", MAEPct(res.AppErrors))
}
