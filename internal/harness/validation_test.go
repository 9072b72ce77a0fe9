package harness

import (
	"context"
	"sync"
	"testing"

	"gpujoule/internal/calib"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/runner"
	"gpujoule/internal/workloads"
)

// validationScale keeps the differential tests' 18 applications small.
const validationScale = 0.05

// checkAgainstSerial requires v and fid to be bit-identical to the
// serial reference.
func checkAgainstSerial(t *testing.T, label string, ref *serialRef, v *Validation, fid FidelityResult) {
	t.Helper()
	if v.Calibration.IdleWatts != ref.idle {
		t.Errorf("%s: IdleWatts %v, serial %v", label, v.Calibration.IdleWatts, ref.idle)
	}
	// EPI, EPT, EPStall, ConstPower and every other model field.
	if *v.Calibration.Model != *ref.model {
		t.Errorf("%s: model\n%+v\nserial\n%+v", label, *v.Calibration.Model, *ref.model)
	}
	sameErrors := func(fig string, got, want []calib.NamedError) {
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d points, serial %d", label, fig, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s[%d] = %+v, serial %+v", label, fig, i, got[i], want[i])
			}
		}
	}
	sameErrors("Fig. 4a", v.Fig4a, ref.fig4a)
	sameErrors("Fig. 4b", v.Fig4b, ref.fig4b)
	if len(fid.Rows) != len(ref.fidelity) {
		t.Fatalf("%s: %d fidelity rows, serial %d", label, len(fid.Rows), len(ref.fidelity))
	}
	for i, want := range ref.fidelity {
		if fid.Rows[i] != want {
			t.Errorf("%s: fidelity row %d = %+v, serial %+v", label, i, fid.Rows[i], want)
		}
	}
}

// TestEngineValidationMatchesSerial is the differential test of the
// engine-batched §IV/§II path: at one and two workers, and at a
// non-nominal harness operating point (silicon runs stay nominal), the
// calibrated model, every Fig. 4a/4b point and every fidelity row are
// bit-identical to one-at-a-time silicon.Device.Run. With -short only
// the two-worker case runs.
func TestEngineValidationMatchesSerial(t *testing.T) {
	ref, err := serialReference(workloads.Params{Scale: validationScale})
	if err != nil {
		t.Fatal(err)
	}
	op, err := dvfs.K40Curve().AtMHz(800)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		opts  Options
	}{
		{"workers=1", Options{Scale: validationScale, Workers: 1}},
		{"workers=2", Options{Scale: validationScale, Workers: 2}},
		{"workers=2 at 800 MHz", Options{Scale: validationScale, Workers: 2, OperatingPoint: op}},
	} {
		if testing.Short() && tc.label != "workers=2" {
			continue
		}
		h := NewWithOptions(tc.opts)
		v, err := h.Validate()
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		fid, err := h.FidelityStudy()
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		checkAgainstSerial(t, tc.label, ref, v, fid)
	}
}

// TestValidateRunsOnce checks the memoization contract: a cancelled
// Validate is not kept, concurrent callers then share one calibration,
// and FidelityStudy simulates nothing.
func TestValidateRunsOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := NewWithOptions(Options{Scale: validationScale, Workers: 2, Context: ctx})
	if _, err := h.Validate(); err == nil {
		t.Fatal("Validate under a cancelled context succeeded")
	}
	if h.valCall != nil {
		t.Fatal("a cancelled Validate was memoized")
	}

	h.ctx = context.Background()
	var wg sync.WaitGroup
	vs := make([]*Validation, 4)
	for i := range vs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := h.Validate()
			if err != nil {
				t.Error(err)
			}
			vs[i] = v
		}()
	}
	wg.Wait()
	for _, v := range vs {
		if v == nil || v != vs[0] {
			t.Fatal("concurrent Validate calls did not share one outcome")
		}
	}
	sims := h.Engine().Stats().Simulated
	if want := len(workloads.All(h.params)) + 29; sims != want {
		t.Errorf("Validate simulated %d points, want %d (18 apps + 29 microbenchmarks)", sims, want)
	}
	if _, err := h.FidelityStudy(); err != nil {
		t.Fatal(err)
	}
	if got := h.Engine().Stats().Simulated; got != sims {
		t.Errorf("FidelityStudy after Validate simulated %d points, want 0", got-sims)
	}
}

// TestBuildReportSimulatesEachKeyOnce checks the report's run-engine
// accounting: no key simulates twice, and the Fig. 4b runs of the Eval14
// apps are the figures' 1-GPM baselines, claimed by Validate.
func TestBuildReportSimulatesEachKeyOnce(t *testing.T) {
	skipIfShort(t)
	var mu sync.Mutex
	phase := "validate"
	startedIn := map[string]string{}
	h := NewWithOptions(Options{Scale: validationScale, OnEvent: func(ev runner.Event) {
		if ev.Kind == runner.PointStarted {
			mu.Lock()
			startedIn[ev.Point.Key()] = phase
			mu.Unlock()
		}
	}})
	if _, err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	phase = "report"
	mu.Unlock()
	if _, err := h.BuildReport(); err != nil {
		t.Fatal(err)
	}
	if st := h.Engine().Stats(); st.Simulated != h.Engine().Distinct() {
		t.Errorf("simulated %d points for %d distinct keys", st.Simulated, h.Engine().Distinct())
	}
	for _, app := range h.Apps() {
		key := h.pointFor(app, baselineCfg()).Key()
		if got := startedIn[key]; got != "validate" {
			t.Errorf("%s: 1-GPM baseline simulated in phase %q, want validate", key, got)
		}
	}
}
