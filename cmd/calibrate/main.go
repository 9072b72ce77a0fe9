// Command calibrate runs the full GPUJoule calibration workflow of
// Fig. 3 against the reference silicon: microbenchmark measurement,
// Eq. 5 energy derivation, mixed-benchmark validation (Fig. 4a), and
// real-application validation (Fig. 4b). It prints the recovered
// Table Ib alongside the published values.
//
// With -freq, the workflow calibrates the silicon reclocked to that
// K40 V/f-curve operating point instead of the nominal 1 GHz: the
// recovered per-event energies and idle power then absorb the hidden
// voltage/frequency effects the top-down V² rule alone cannot see.
// With -curve, every curve point is calibrated in ascending frequency
// order and a per-point summary table is printed.
// Each mode simulates its benchmarks as one parallel run-engine batch.
//
// Usage:
//
//	calibrate [-scale f] [-apps=false] [-freq mhz] [-curve]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gpujoule/internal/calib"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/harness"
	"gpujoule/internal/runner"
	"gpujoule/internal/silicon"
)

func main() {
	scale := flag.Float64("scale", 1.0, "application scale for Fig. 4b validation")
	apps := flag.Bool("apps", true, "run the 18-application Fig. 4b validation")
	freqMHz := flag.Float64("freq", 0, "calibrate at this K40 V/f-curve frequency in MHz (0 = nominal 1000)")
	curve := flag.Bool("curve", false, "calibrate every V/f-curve point and print the per-point summary")
	flag.Parse()

	if *curve {
		if err := calibrateCurve(); err != nil {
			fatal(err)
		}
		return
	}
	if *freqMHz != 0 {
		if err := calibrateAt(*freqMHz); err != nil {
			fatal(err)
		}
		return
	}

	h := harness.New(*scale)
	v, err := h.Validate()
	if err != nil {
		fatal(err)
	}

	fmt.Println("calibrated against reference silicon")
	fmt.Printf("idle (constant) power: %.1f W, EPStall: %.3f nJ\n\n",
		v.Calibration.IdleWatts, v.Calibration.Model.EPStall*1e9)

	tables := harness.ValidationTables(v)
	// Fig. 4b is the last table; skip it when -apps=false.
	if !*apps {
		tables = tables[:len(tables)-1]
	}
	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *apps {
		fmt.Printf("Fig. 4b mean absolute error: %.1f%% over %d applications (paper: 9.4%%)\n",
			v.Fig4bMAEPct(), len(v.Fig4b))
	}
}

// calibrateAt recalibrates the reference silicon at one operating
// point and prints the recovered model against the nominal one.
func calibrateAt(freqMHz float64) error {
	p, err := dvfs.K40Curve().AtMHz(freqMHz)
	if err != nil {
		return err
	}
	res, err := calib.CalibrateAt(context.Background(), runner.New(runner.Options{}), silicon.NewK40(), p)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated at %s\n", p)
	fmt.Printf("idle (constant) power: %.1f W, EPStall: %.3f nJ\n",
		res.IdleWatts, res.Model.EPStall*1e9)
	fmt.Printf("mixed-benchmark MAE: %.1f%%\n", res.MixedMAEPct())
	return nil
}

// calibrateCurve calibrates every curve point and prints the
// per-point idle power and stall energy — the measured shape the
// analytical V² rule is validated against.
func calibrateCurve() error {
	results, err := calib.CalibrateCurve(context.Background(), runner.New(runner.Options{}), silicon.NewK40())
	if err != nil {
		return err
	}
	fmt.Println("point          idle W   EPStall nJ   mixed MAE")
	for _, cr := range results {
		fmt.Printf("%-14s %6.1f %12.3f %10.1f%%\n",
			cr.Point.String(), cr.Result.IdleWatts, cr.Result.Model.EPStall*1e9,
			cr.Result.MixedMAEPct())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
