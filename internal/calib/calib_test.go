package calib

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpujoule/internal/dvfs"
	"gpujoule/internal/isa"
	"gpujoule/internal/runner"
	"gpujoule/internal/silicon"
	"gpujoule/internal/workloads"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 => x = 1, y = 3.
	x, err := solveLinear([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution %v, want [1 3]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	x, err := solveLinear([][]float64{{0, 1}, {1, 0}}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("solution %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	if _, err := solveLinear([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Error("singular system must error")
	}
	if _, err := solveLinear(nil, nil); err == nil {
		t.Error("empty system must error")
	}
	if _, err := solveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("ragged system must error")
	}
}

func TestSolveLinearRoundTripProperty(t *testing.T) {
	// Property: solving A·x = A·x0 recovers x0 for diagonally dominant A.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4
		a := make([][]float64, n)
		x0 := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64()
			}
			a[i][i] += float64(n) // dominance => well-conditioned
			x0[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range a[i] {
				b[i] += a[i][j] * x0[j]
			}
		}
		x, err := solveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-x0[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNamedErrorPct(t *testing.T) {
	e := NamedError{Name: "x", ModeledJoules: 90, MeasuredJoules: 100}
	if got := e.ErrPct(); math.Abs(got+10) > 1e-12 {
		t.Errorf("ErrPct = %g, want -10", got)
	}
}

// newEngine returns a fresh run engine for one test's silicon runs.
func newEngine() *runner.Engine { return runner.New(runner.Options{}) }

// TestCalibrateCurveMeetsMixedTarget is the Fig. 3 step-3 accuracy gate:
// at every point of the K40 V/f curve the calibrated model's mixed-suite
// error stays within 10%.
func TestCalibrateCurveMeetsMixedTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates all seven curve points; skipped with -short")
	}
	results, err := CalibrateCurve(context.Background(), newEngine(), silicon.NewK40())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(dvfs.K40Curve().Points()) {
		t.Fatalf("%d curve results, want one per curve point", len(results))
	}
	for _, cr := range results {
		if mae := cr.Result.MixedMAEPct(); mae > 10 {
			t.Errorf("%v: mixed MAE %.2f%%, want <= 10%%", cr.Point, mae)
		}
	}
}

// TestCalibrationRecoversTableIb is the core §IV claim: the Fig. 3
// workflow, given only sensor readings and event counts, recovers the
// published Table Ib energies from the reference silicon.
func TestCalibrationRecoversTableIb(t *testing.T) {
	res, err := Calibrate(context.Background(), newEngine(), silicon.NewK40())
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleWatts != 25 {
		t.Errorf("idle %g, want 25", res.IdleWatts)
	}

	published := map[isa.Op]float64{
		isa.OpFAdd32: 0.06, isa.OpFFMA32: 0.05, isa.OpIAdd32: 0.07,
		isa.OpSin32: 0.10, isa.OpFFMA64: 0.16, isa.OpRcp32: 0.31,
	}
	for op, want := range published {
		got := res.Model.EPI[op] * 1e9
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("EPI[%v] = %.4f nJ, want %.2f within 10%%", op, got, want)
		}
	}
	ept := map[isa.TxnKind]float64{
		isa.TxnShmToRF: 5.45, isa.TxnL1ToRF: 5.99,
		isa.TxnL2ToL1: 3.96, isa.TxnDRAMToL2: 7.82,
	}
	for k, want := range ept {
		got := res.Model.EPT[k] * 1e9
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("EPT[%v] = %.3f nJ, want %.2f within 10%%", k, got, want)
		}
	}
	// EPStall and ConstPower recovered too.
	if got := res.Model.EPStall * 1e9; math.Abs(got-2.2)/2.2 > 0.15 {
		t.Errorf("EPStall = %.3f nJ, want ≈2.2", got)
	}
}

// TestFig4aErrorsWithinPaperRange checks the mixed-benchmark validation
// stays in the paper's published band (within +2.5%/-6%, allowing a
// slightly wider floor for our substitute silicon).
func TestFig4aErrorsWithinPaperRange(t *testing.T) {
	res, err := Calibrate(context.Background(), newEngine(), silicon.NewK40())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MixedErrors) != 5 {
		t.Fatalf("Fig. 4a has 5 points, got %d", len(res.MixedErrors))
	}
	for _, e := range res.MixedErrors {
		if err := e.ErrPct(); err > 4 || err < -10 {
			t.Errorf("%s error %.2f%% outside the Fig. 4a band", e.Name, err)
		}
	}
	if res.MixedMAEPct() > 6 {
		t.Errorf("mixed MAE %.2f%%, want small", res.MixedMAEPct())
	}
}

// TestFig4bStructure checks the application-validation error structure
// of Fig. 4b at reduced scale: a reasonable MAE and the paper's four
// outlier applications standing out for the paper's reasons.
func TestFig4bStructure(t *testing.T) {
	apps := workloads.All(workloads.Params{Scale: 0.25})
	res, err := Validate(context.Background(), newEngine(), silicon.NewK40(), apps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	errs := res.AppErrors
	if len(res.AppRuns) != len(errs) {
		t.Fatalf("%d app measurements for %d errors", len(res.AppRuns), len(errs))
	}
	if len(errs) != 18 {
		t.Fatalf("Fig. 4b covers 18 applications, got %d", len(errs))
	}
	byName := make(map[string]float64, len(errs))
	for _, e := range errs {
		byName[e.Name] = e.ErrPct()
	}
	// Low-memory-utilization apps are underestimated...
	for _, name := range []string{"RSBench", "CoMD"} {
		if byName[name] > -15 {
			t.Errorf("%s should be strongly underestimated, got %+.1f%%", name, byName[name])
		}
	}
	// ...and short-launch apps are overestimated against the blurred
	// sensor.
	for _, name := range []string{"BFS", "MiniAMR"} {
		if byName[name] < 15 {
			t.Errorf("%s should be strongly overestimated, got %+.1f%%", name, byName[name])
		}
	}
	if mae := MAEPct(errs); mae > 20 {
		t.Errorf("Fig. 4b MAE %.1f%%, want near the paper's 9.4%%", mae)
	}
	// The well-behaved bulk stays accurate.
	for _, name := range []string{"Stream", "Lulesh-150", "Nekbone-12", "Kmeans"} {
		if math.Abs(byName[name]) > 12 {
			t.Errorf("%s error %+.1f%%, want within ±12%%", name, byName[name])
		}
	}
}

// TestCalibrateAtRecoversReclockedSilicon runs the full Fig. 3 workflow
// on silicon reclocked to 800 MHz / 0.90 V. The recalibrated model must
// meet the same accuracy gate as at nominal and absorb the reclocked
// physics: cheaper per-instruction dynamic energy and lower constant
// power than the nominal calibration. Both calibrations share one
// engine: each submits every microbenchmark once, at scale 1, on its
// own device config, so the reclocked points never alias the nominal
// ones.
func TestCalibrateAtRecoversReclockedSilicon(t *testing.T) {
	dev := silicon.NewK40()
	keys := map[string]bool{}
	var bad []string
	eng := runner.New(runner.Options{OnEvent: func(ev runner.Event) {
		if ev.Kind == runner.PointDone && !ev.CacheHit {
			keys[ev.Point.Key()] = true
		}
		if ev.Point.Scale != 1 || !strings.HasPrefix(ev.Point.App.Name, "ubench-") {
			bad = append(bad, ev.Point.Key())
		}
	}})
	nom, err := Calibrate(context.Background(), eng, dev)
	if err != nil {
		t.Fatal(err)
	}
	low, err := CalibrateAt(context.Background(), eng, dev, dvfs.OperatingPoint{FreqHz: 800e6, Voltage: 0.90})
	if err != nil {
		t.Fatal(err)
	}
	if mae := low.MixedMAEPct(); mae > 10 {
		t.Errorf("mixed MAE %.2f%% at 800 MHz, want <= 10%%", mae)
	}
	if low.Model.ClockHz != 800e6 {
		t.Errorf("recalibrated clock %g, want 800e6", low.Model.ClockHz)
	}
	if low.Model.EPI[isa.OpFFMA32] >= nom.Model.EPI[isa.OpFFMA32] {
		t.Errorf("EPI[FFMA32] %g at 0.90 V, want below nominal %g",
			low.Model.EPI[isa.OpFFMA32], nom.Model.EPI[isa.OpFFMA32])
	}
	if low.IdleWatts >= nom.IdleWatts {
		t.Errorf("idle %g W at 800 MHz, want below nominal %g W", low.IdleWatts, nom.IdleWatts)
	}
	if len(bad) > 0 {
		t.Errorf("points off scale 1 or not named ubench-*: %v", bad)
	}
	if len(keys) != 2*29 || eng.Stats().Simulated != 2*29 {
		t.Errorf("%d distinct keys, %d simulated; want 29 per operating point", len(keys), eng.Stats().Simulated)
	}
	rd, err := dev.AtOperatingPoint(dvfs.OperatingPoint{FreqHz: 800e6})
	if err != nil {
		t.Fatal(err)
	}
	onLow := 0
	for k := range keys {
		if strings.HasSuffix(k, "|"+rd.Config().SimKey()) {
			onLow++
		}
	}
	if onLow != 29 {
		t.Errorf("%d points on the 800 MHz config, want 29", onLow)
	}
	// Off-curve requests surface the typed sentinel.
	if _, err := CalibrateAt(context.Background(), eng, dev, dvfs.OperatingPoint{FreqHz: 850e6}); !errors.Is(err, dvfs.ErrOffCurve) {
		t.Errorf("850 MHz error = %v, want ErrOffCurve", err)
	}
}
