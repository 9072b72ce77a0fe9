package harness

import (
	"gpujoule/internal/calib"
	"gpujoule/internal/core"
	"gpujoule/internal/isa"
	"gpujoule/internal/silicon"
	"gpujoule/internal/workloads"
)

// TableIbRow compares one calibrated energy value with the published
// Table Ib value.
type TableIbRow struct {
	// Name is the instruction or transaction class.
	Name string
	// CalibratedNJ is the value recovered from the reference silicon.
	CalibratedNJ float64
	// PaperNJ is the published Table Ib value.
	PaperNJ float64
}

// ErrPct returns the deviation from the published value in percent.
func (r TableIbRow) ErrPct() float64 {
	if r.PaperNJ == 0 {
		return 0
	}
	return (r.CalibratedNJ - r.PaperNJ) / r.PaperNJ * 100
}

// Validation is the outcome of the §IV calibration and validation
// experiments (Table Ib, Fig. 4a, Fig. 4b).
type Validation struct {
	// Calibration is the full Fig. 3 workflow result.
	Calibration *calib.Result
	// TableIb compares calibrated against published values.
	TableIb []TableIbRow
	// Fig4a are the mixed-microbenchmark validation errors.
	Fig4a []calib.NamedError
	// Fig4b are the 18-application validation errors.
	Fig4b []calib.NamedError
}

// Fig4bMAEPct returns the Fig. 4b mean absolute error (paper: 9.4%).
func (v *Validation) Fig4bMAEPct() float64 { return calib.MAEPct(v.Fig4b) }

// Fig4bOutliers returns the applications with absolute error above the
// given percent threshold (the paper reports four above 30%).
func (v *Validation) Fig4bOutliers(thresholdPct float64) []string {
	var out []string
	for _, e := range v.Fig4b {
		if err := e.ErrPct(); err > thresholdPct || err < -thresholdPct {
			out = append(out, e.Name)
		}
	}
	return out
}

// Validate runs the §IV experiments: calibrate GPUJoule against the
// reference silicon, then validate on the mixed microbenchmarks and
// the full 18-application suite at the harness scale, all in one
// engine batch on the nominal K40 config (never stamped with the
// harness operating point), so the Eval14 runs double as the figures'
// 1-GPM baselines. Concurrent callers share one computation, kept
// unless it fails; callers must not modify the result.
func (h *Harness) Validate() (*Validation, error) {
	h.valMu.Lock()
	c := h.valCall
	if c != nil {
		h.valMu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c = &validateCall{done: make(chan struct{})}
	h.valCall = c
	h.valMu.Unlock()

	c.v, c.err = h.validate()
	if c.err != nil {
		h.valMu.Lock()
		h.valCall = nil
		h.valMu.Unlock()
	}
	close(c.done)
	return c.v, c.err
}

// validateCall is one Validate computation; done closes once v and err
// are set.
type validateCall struct {
	done chan struct{}
	v    *Validation
	err  error
}

func (h *Harness) validate() (*Validation, error) {
	res, err := calib.Validate(h.ctx, h.engine, silicon.NewK40(), workloads.All(h.params), h.params.Scale)
	if err != nil {
		return nil, err
	}

	v := &Validation{Calibration: res, Fig4a: res.MixedErrors, Fig4b: res.AppErrors}

	paper := core.K40Model() // the published Table Ib values
	for _, op := range isa.ComputeOps() {
		v.TableIb = append(v.TableIb, TableIbRow{
			Name:         op.String(),
			CalibratedNJ: res.Model.EPI[op] * 1e9,
			PaperNJ:      paper.EPI[op] * 1e9,
		})
	}
	for _, k := range []isa.TxnKind{isa.TxnShmToRF, isa.TxnL1ToRF, isa.TxnL2ToL1, isa.TxnDRAMToL2} {
		v.TableIb = append(v.TableIb, TableIbRow{
			Name:         k.String(),
			CalibratedNJ: res.Model.EPT[k] * 1e9,
			PaperNJ:      paper.EPT[k] * 1e9,
		})
	}
	return v, nil
}
