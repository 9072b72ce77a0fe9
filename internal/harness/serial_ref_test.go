package harness

import (
	"fmt"
	"math"

	"gpujoule/internal/bottomup"
	"gpujoule/internal/calib"
	"gpujoule/internal/core"
	"gpujoule/internal/isa"
	"gpujoule/internal/microbench"
	"gpujoule/internal/silicon"
	"gpujoule/internal/stats"
	"gpujoule/internal/workloads"
)

// serialRef is the §IV/§II outcome computed the way the harness did
// before silicon runs went through the run engine: every benchmark and
// application simulated one after another with silicon.Device.Run, the
// model derived inline, and the fidelity study rerunning the apps. It is
// a frozen reference for the differential tests; keep it unchanged.
type serialRef struct {
	idle     float64
	model    *core.Model
	fig4a    []calib.NamedError
	fig4b    []calib.NamedError
	fidelity []FidelityRow
}

func serialReference(p workloads.Params) (*serialRef, error) {
	dev := silicon.NewK40()
	model, idle, err := serialCalibrate(dev)
	if err != nil {
		return nil, err
	}
	ref := &serialRef{idle: idle, model: model}
	for _, b := range microbench.MixedSuite() {
		m, err := dev.Run(b.App)
		if err != nil {
			return nil, err
		}
		ref.fig4a = append(ref.fig4a, calib.NamedError{Name: b.Name,
			ModeledJoules: model.EstimateEnergy(&m.Result.Counts), MeasuredJoules: m.SensorJoules})
	}
	kepler, fermi := bottomup.TunedKepler(), bottomup.TunedFermi()
	for _, app := range workloads.All(p) {
		m, err := dev.Run(app)
		if err != nil {
			return nil, err
		}
		c := &m.Result.Counts
		ref.fig4b = append(ref.fig4b, calib.NamedError{Name: app.Name,
			ModeledJoules: model.EstimateEnergy(c), MeasuredJoules: m.SensorJoules})
		ref.fidelity = append(ref.fidelity, FidelityRow{
			App:            app.Name,
			TopDownPct:     stats.RelErrPct(model.EstimateEnergy(c), m.SensorJoules),
			KeplerTunedPct: stats.RelErrPct(kepler.Estimate(c), m.SensorJoules),
			FermiTunedPct:  stats.RelErrPct(fermi.Estimate(c), m.SensorJoules),
		})
	}
	return ref, nil
}

// serialCalibrate is Fig. 3 steps 1-2 on serial silicon runs.
func serialCalibrate(dev *silicon.Device) (*core.Model, float64, error) {
	idle := dev.IdlePowerReading()
	model := &core.Model{Name: "GPUJoule-calibrated", ConstPower: idle, ClockHz: dev.ClockHz()}
	instJ := func(c *isa.Counts) float64 {
		var e float64
		for op := range c.Inst {
			e += model.EPI[op] * float64(c.Inst[op])
		}
		return e
	}

	for _, b := range microbench.ComputeSuite() {
		m, err := dev.Run(b.App)
		if err != nil {
			return nil, 0, err
		}
		n := m.Result.Counts.Inst[b.Op]
		if n == 0 {
			return nil, 0, fmt.Errorf("compute bench %s executed no %v", b.Name, b.Op)
		}
		model.EPI[b.Op] = (m.KernelPowerWatts - idle) * m.KernelSeconds / float64(n)
		if model.EPI[b.Op] < 0 {
			model.EPI[b.Op] = 0
		}
	}

	m, err := dev.Run(microbench.StallBench().App)
	if err != nil {
		return nil, 0, err
	}
	c := &m.Result.Counts
	residual := (m.KernelPowerWatts-idle)*m.KernelSeconds - instJ(c)
	if c.StallCycles > 0 && residual > 0 {
		model.EPStall = residual / float64(c.StallCycles)
	}

	levels := []isa.TxnKind{isa.TxnShmToRF, isa.TxnL1ToRF, isa.TxnL2ToL1, isa.TxnDRAMToL2}
	var a [][]float64
	var rhs []float64
	for _, b := range microbench.MemorySuite() {
		m, err := dev.Run(b.App)
		if err != nil {
			return nil, 0, err
		}
		c := &m.Result.Counts
		row := make([]float64, len(levels))
		for j, k := range levels {
			row[j] = float64(c.Txn[k])
		}
		a = append(a, row)
		rhs = append(rhs, (m.KernelPowerWatts-idle)*m.KernelSeconds-instJ(c)-model.EPStall*float64(c.StallCycles))
	}
	ept, err := serialSolve(a, rhs)
	if err != nil {
		return nil, 0, err
	}
	for j, k := range levels {
		if ept[j] < 0 {
			ept[j] = 0
		}
		model.EPT[k] = ept[j]
	}
	return model, idle, model.Validate()
}

// serialSolve is Gaussian elimination with partial pivoting, as the
// calibration solves its transaction-energy system.
func serialSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-18 {
			return nil, fmt.Errorf("singular system at column %d", col)
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
