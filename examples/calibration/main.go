// Calibration walkthrough: exercise the GPUJoule methodology (Fig. 3)
// step by step against the reference silicon — measure idle power,
// derive one EPI with Eq. 5 by hand, then run the full automated
// calibration and compare the recovered Table Ib values against the
// published ones.
package main

import (
	"context"
	"fmt"
	"log"

	"gpujoule/internal/calib"
	"gpujoule/internal/core"
	"gpujoule/internal/isa"
	"gpujoule/internal/microbench"
	"gpujoule/internal/runner"
	"gpujoule/internal/silicon"
)

func main() {
	dev := silicon.NewK40()

	// Step 0: the idle (constant) power reading.
	idle := dev.IdlePowerReading()
	fmt.Printf("idle power: %.1f W\n\n", idle)

	// Step 1, by hand, for one instruction: run the FMA microbenchmark
	// and apply Eq. 5: EPI = (P_active - P_idle) * T / N.
	bench := microbench.ComputeBench(isa.OpFFMA32)
	m, err := dev.Run(bench.App)
	if err != nil {
		log.Fatal(err)
	}
	n := m.Result.Counts.Inst[isa.OpFFMA32]
	epi := (m.KernelPowerWatts - idle) * m.KernelSeconds / float64(n)
	fmt.Printf("FFMA32 microbenchmark: P_active=%.1f W over %.3f ms, %d instructions\n",
		m.KernelPowerWatts, m.KernelSeconds*1e3, n)
	fmt.Printf("Eq. 5 => EPI = %.4f nJ (Table Ib: 0.05 nJ)\n\n", epi*1e9)

	// Steps 1-3, automated: the whole microbenchmark suite runs as one
	// batch on a run engine, then the model is derived and validated on
	// the mixed benchmarks.
	res, err := calib.Calibrate(context.Background(), runner.New(runner.Options{}), dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full calibration: mixed-bench MAE %.2f%%\n\n", res.MixedMAEPct())

	paper := core.K40Model()
	fmt.Println("recovered data-movement energies (nJ, vs published Table Ib):")
	for _, k := range []isa.TxnKind{isa.TxnShmToRF, isa.TxnL1ToRF, isa.TxnL2ToL1, isa.TxnDRAMToL2} {
		fmt.Printf("  %-14v %6.3f (published %.2f)\n", k, res.Model.EPT[k]*1e9, paper.EPT[k]*1e9)
	}

	fmt.Println("\nFig. 4a validation (modeled vs measured, mixed microbenchmarks):")
	for _, e := range res.MixedErrors {
		fmt.Printf("  %-22s %+6.2f%%\n", e.Name, e.ErrPct())
	}
}
