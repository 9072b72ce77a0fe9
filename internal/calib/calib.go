// Package calib implements the GPUJoule modeling workflow of Fig. 3
// against a reference device:
//
//  1. run the microbenchmark suite and derive EPI/EPT values with
//     Eq. 5 (energy-per-instruction from steady-state power deltas),
//     combining the data-movement measurements by solving the small
//     linear system their transaction mixes form;
//  2. assemble the initial energy model;
//  3. validate against mixed-instruction microbenchmarks (Fig. 4a);
//  4. validate against real applications (Fig. 4b).
//
// The step-3 accuracy gate (mixed MAE at most 10%) is a test at every
// V/f-curve point, not a loop: the suite is deterministic. No run
// depends on another's outcome, so a calibration simulates all of them
// as one batch on a shared runner.Engine and derives the model after.
//
// Calibration observes only what the paper's methodology could: event
// counts (profilers) and power-sensor readings. The hidden bottom-up
// model of the reference silicon is never consulted.
package calib

import (
	"context"
	"fmt"
	"math"

	"gpujoule/internal/core"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/isa"
	"gpujoule/internal/microbench"
	"gpujoule/internal/runner"
	"gpujoule/internal/silicon"
	"gpujoule/internal/stats"
	"gpujoule/internal/trace"
)

// NamedError is one validation point: modeled vs. measured energy.
type NamedError struct {
	// Name identifies the benchmark or application.
	Name string
	// ModeledJoules is the GPUJoule estimate from event counts.
	ModeledJoules float64
	// MeasuredJoules is the sensor-derived measurement.
	MeasuredJoules float64
}

// ErrPct returns the relative error in percent (Fig. 4 convention).
func (e NamedError) ErrPct() float64 {
	return stats.RelErrPct(e.ModeledJoules, e.MeasuredJoules)
}

// Result is the outcome of a calibration run.
type Result struct {
	// Model is the calibrated GPUJoule instance.
	Model *core.Model
	// IdleWatts is the measured constant power.
	IdleWatts float64
	// MixedErrors are the Fig. 4a validation points.
	MixedErrors []NamedError
	// AppErrors are the Fig. 4b validation points, one per application
	// given to Validate (empty after Calibrate).
	AppErrors []NamedError
	// AppRuns are the measurements behind AppErrors, in the same order.
	AppRuns []*silicon.Measurement
}

// MixedMAEPct returns the mean absolute error over the mixed suite.
func (r *Result) MixedMAEPct() float64 {
	return MAEPct(r.MixedErrors)
}

// Calibrate runs steps 1-3 of Fig. 3 on the device, simulating the
// whole microbenchmark suite as one batch on eng.
func Calibrate(ctx context.Context, eng *runner.Engine, dev *silicon.Device) (*Result, error) {
	return Validate(ctx, eng, dev, nil, 0)
}

// Validate runs the full Fig. 3 workflow on the device: Calibrate plus
// step 4 over apps, which were built at the given workload scale. The
// applications share the microbenchmarks' batch on eng.
func Validate(ctx context.Context, eng *runner.Engine, dev *silicon.Device, apps []*trace.App, scale float64) (*Result, error) {
	rs, err := run(ctx, eng, plan{dev: dev, apps: apps, scale: scale})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// CalibrateAt reclocks the device to an operating point on its V/f
// curve and runs Calibrate there. The whole microbenchmark suite
// re-executes on the reclocked silicon, so the calibrated
// EPI/EPT/ConstPower values absorb the frequency-dependent effects
// (leakage, clock tree, short-circuit slope) that the top-down V²
// scaling rule cannot predict. The nominal point is identical to
// Calibrate.
func CalibrateAt(ctx context.Context, eng *runner.Engine, dev *silicon.Device, p dvfs.OperatingPoint) (*Result, error) {
	rd, err := dev.AtOperatingPoint(p)
	if err != nil {
		return nil, err
	}
	return Calibrate(ctx, eng, rd)
}

// CurveResult is one operating point's calibration outcome.
type CurveResult struct {
	Point  dvfs.OperatingPoint
	Result *Result
}

// CalibrateCurve calibrates the device at every point of its V/f curve,
// ascending in frequency — the per-operating-point model family the
// DVFS studies consume. Every point's suite runs in one batch on eng.
func CalibrateCurve(ctx context.Context, eng *runner.Engine, dev *silicon.Device) ([]CurveResult, error) {
	curve := dev.Curve()
	if curve == nil {
		return nil, fmt.Errorf("calib: device has no V/f curve: %w", dvfs.ErrOffCurve)
	}
	pts := curve.Points()
	plans := make([]plan, len(pts))
	for i, p := range pts {
		rd, err := dev.AtOperatingPoint(p)
		if err != nil {
			return nil, fmt.Errorf("calib: at %v: %w", p, err)
		}
		plans[i] = plan{dev: rd}
	}
	rs, err := run(ctx, eng, plans...)
	if err != nil {
		return nil, err
	}
	out := make([]CurveResult, len(pts))
	for i, p := range pts {
		out[i] = CurveResult{Point: p, Result: rs[i]}
	}
	return out, nil
}

// benches is the Fig. 3 microbenchmark suite in derivation order:
// compute, stall, memory, mixed. Each step reads only energies the
// steps before it derived.
func benches() []microbench.Bench {
	bs := append(microbench.ComputeSuite(), microbench.StallBench())
	bs = append(bs, microbench.MemorySuite()...)
	return append(bs, microbench.MixedSuite()...)
}

// plan is one device's share of a calibration batch: the
// microbenchmark suite plus any step-4 applications.
type plan struct {
	dev   *silicon.Device
	apps  []*trace.App
	scale float64
}

// run simulates every plan's runs as one engine batch — on the plan's
// device config, the fixed-size microbenchmarks at scale 1 and the
// applications at theirs — then derives each plan's Result from its
// device's measurements.
func run(ctx context.Context, eng *runner.Engine, plans ...plan) ([]*Result, error) {
	bs := benches()
	var pts []runner.Point
	for _, p := range plans {
		cfg := p.dev.Config()
		for _, b := range bs {
			pts = append(pts, runner.Point{App: b.App, Scale: 1, Config: cfg})
		}
		for _, app := range p.apps {
			pts = append(pts, runner.Point{App: app, Scale: p.scale, Config: cfg})
		}
	}
	res, err := eng.Run(ctx, pts)
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	out := make([]*Result, len(plans))
	for i, p := range plans {
		ms := make([]*silicon.Measurement, len(bs)+len(p.apps))
		for j := range ms {
			ms[j] = p.dev.Measure(res[j])
		}
		res = res[len(ms):]
		if out[i], err = p.derive(bs, ms); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// derive performs Fig. 3 on the plan's measurements: one per bench of
// bs, then one per application.
func (p plan) derive(bs []microbench.Bench, ms []*silicon.Measurement) (*Result, error) {
	idle := p.dev.IdlePowerReading()
	model := &core.Model{
		Name:       "GPUJoule-calibrated",
		ConstPower: idle,
		ClockHz:    p.dev.ClockHz(),
	}

	// Step 1c's data-movement energies: each memory benchmark yields
	// one equation Σ_k txns_bk · EPT_k = E_b(residual); the suite is
	// designed so the system is well-conditioned (shared memory and
	// DRAM nearly pure, L1/L2 carrying a known DRAM background
	// stream).
	levels := []isa.TxnKind{isa.TxnShmToRF, isa.TxnL1ToRF, isa.TxnL2ToL1, isa.TxnDRAMToL2}
	var a [][]float64
	var rhs []float64
	for i, b := range bs {
		m := ms[i]
		c := &m.Result.Counts
		switch b.Kind {
		case microbench.KindCompute:
			// Step 1a: EPI via Eq. 5. The pure-ALU benchmarks stall
			// negligibly at full occupancy, so the raw power delta is
			// the instruction energy.
			n := c.Inst[b.Op]
			if n == 0 {
				return nil, fmt.Errorf("calib: compute bench %s executed no %v", b.Name, b.Op)
			}
			model.EPI[b.Op] = (m.KernelPowerWatts - idle) * m.KernelSeconds / float64(n)
			if model.EPI[b.Op] < 0 {
				model.EPI[b.Op] = 0
			}
		case microbench.KindStall:
			// Step 1b: lane-stall energy from the low-occupancy probe,
			// after subtracting the now-known instruction energies.
			residual := (m.KernelPowerWatts-idle)*m.KernelSeconds - instructionJoules(model, c)
			if c.StallCycles > 0 && residual > 0 {
				model.EPStall = residual / float64(c.StallCycles)
			}
		case microbench.KindMemory:
			row := make([]float64, len(levels))
			for j, k := range levels {
				row[j] = float64(c.Txn[k])
			}
			a = append(a, row)
			rhs = append(rhs, (m.KernelPowerWatts-idle)*m.KernelSeconds-
				instructionJoules(model, c)-
				model.EPStall*float64(c.StallCycles))
		}
	}
	if len(a) != len(levels) {
		return nil, fmt.Errorf("calib: memory suite has %d benches for %d levels", len(a), len(levels))
	}
	ept, err := solveLinear(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("calib: solving transaction energies: %w", err)
	}
	for j, k := range levels {
		if ept[j] < 0 {
			ept[j] = 0
		}
		model.EPT[k] = ept[j]
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}

	// Steps 3 and 4: the mixed suite and the applications.
	r := &Result{Model: model, IdleWatts: idle, AppRuns: ms[len(bs):]}
	for i, b := range bs {
		if b.Kind == microbench.KindMixed {
			r.MixedErrors = append(r.MixedErrors, namedError(b.Name, model, ms[i]))
		}
	}
	for i, app := range p.apps {
		r.AppErrors = append(r.AppErrors, namedError(app.Name, model, r.AppRuns[i]))
	}
	return r, nil
}

// namedError compares the model's estimate for a run with its sensor
// measurement.
func namedError(name string, model *core.Model, m *silicon.Measurement) NamedError {
	return NamedError{
		Name:           name,
		ModeledJoules:  model.EstimateEnergy(&m.Result.Counts),
		MeasuredJoules: m.SensorJoules,
	}
}

// instructionJoules sums the known compute-instruction energy of a run.
func instructionJoules(m *core.Model, c *isa.Counts) float64 {
	var e float64
	for op := range c.Inst {
		e += m.EPI[op] * float64(c.Inst[op])
	}
	return e
}

// MAEPct returns the mean absolute error in percent over points.
func MAEPct(points []NamedError) float64 {
	errs := make([]float64, len(points))
	for i, p := range points {
		errs[i] = p.ErrPct()
	}
	return stats.MeanAbs(errs)
}

// solveLinear solves a·x = b by Gaussian elimination with partial
// pivoting. It is sized for the handful of equations calibration
// produces.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("calib: malformed system (%d rows, %d rhs)", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("calib: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-18 {
			return nil, fmt.Errorf("calib: singular system at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= m[col][c] * x[c]
		}
		x[col] = sum / m[col][col]
	}
	return x, nil
}
