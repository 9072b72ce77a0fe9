// Package harness defines and runs the paper's evaluation (§V): one
// experiment per table and figure, each producing machine-checkable
// rows plus a renderable table. All simulation points execute through
// the shared run engine (internal/runner), which parallelizes each
// experiment's point grid across a worker pool and memoizes results by
// canonical point key — the 2x-BW sweep feeds Figs. 2, 6, 7, and 10,
// so regenerating the whole evaluation costs one pass per distinct
// configuration regardless of how many experiments share it.
// The §IV calibration and validation run on the same engine, once per
// harness; the Fig. 3 step-3 accuracy gate is a calib test, not a loop.
package harness

import (
	"context"
	"sync"

	"gpujoule/internal/core"
	"gpujoule/internal/dvfs"
	"gpujoule/internal/interconnect"
	"gpujoule/internal/metrics"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

// GPMSteps are the multi-module design points of Table III.
var GPMSteps = []int{2, 4, 8, 16, 32}

// Options configures a Harness.
type Options struct {
	// Scale is the workload sizing factor (1.0 = paper scale; 0 means
	// 1.0).
	Scale float64
	// Workers bounds concurrent simulations; <= 0 selects one worker
	// per CPU.
	Workers int
	// OnEvent, when non-nil, receives the run engine's progress events
	// (points started/completed, cache hits, wall time).
	OnEvent func(runner.Event)
	// Counters enables per-GPM/per-link observability counters on every
	// simulation the harness runs (see internal/obs).
	Counters bool
	// Trace records a timeline trace on every simulation the harness
	// runs (runner.Options.Trace, implies counters); collect the traces
	// with Engine().Traces().
	Trace bool
	// Context cancels in-flight experiment grids when done; nil means
	// context.Background().
	Context context.Context
	// OperatingPoint runs the whole evaluation at a DVFS operating
	// point: every config the harness builds is stamped with it (unless
	// a study stamps its own) and the projection models are rescaled to
	// match. The zero value is the nominal point and changes nothing.
	OperatingPoint dvfs.OperatingPoint
}

// Harness runs the evaluation at a chosen workload scale.
type Harness struct {
	params workloads.Params
	apps   []*trace.App
	engine *runner.Engine
	ctx    context.Context
	op     dvfs.OperatingPoint

	onPackage *core.Model
	onBoard   *core.Model

	valMu   sync.Mutex    // guards valCall
	valCall *validateCall // Validate's in-flight or memoized outcome
}

// New returns a harness over the 14-workload evaluation subset at the
// given scale (1.0 = paper scale), with default execution options.
func New(scale float64) *Harness {
	return NewWithOptions(Options{Scale: scale})
}

// NewWithOptions returns a harness with explicit execution options.
func NewWithOptions(opts Options) *Harness {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Harness{
		params: workloads.Params{Scale: opts.Scale},
		apps:   workloads.Eval14(workloads.Params{Scale: opts.Scale}),
		engine: runner.New(runner.Options{
			Workers:  opts.Workers,
			OnEvent:  opts.OnEvent,
			Counters: opts.Counters,
			Trace:    opts.Trace,
		}),
		ctx:       ctx,
		op:        opts.OperatingPoint,
		onPackage: core.ProjectionModel(core.OnPackageLinks()),
		onBoard:   core.ProjectionModel(core.OnBoardLinks()),
	}
}

// OperatingPoint returns the harness-wide DVFS operating point (the
// nominal point unless Options set one).
func (h *Harness) OperatingPoint() dvfs.OperatingPoint { return h.op }

// cfgAt stamps the harness operating point onto a config that has not
// chosen its own. At the nominal point this returns cfg unchanged, so
// every pre-DVFS key and serialization is preserved.
func (h *Harness) cfgAt(cfg sim.Config) sim.Config {
	if cfg.ClockHz != 0 || cfg.VoltageV != 0 || h.op.IsNominal() {
		return cfg
	}
	return dvfs.Apply(cfg, h.op)
}

// Apps returns the evaluation workloads.
func (h *Harness) Apps() []*trace.App { return h.apps }

// Params returns the workload sizing parameters.
func (h *Harness) Params() workloads.Params { return h.params }

// Runs reports how many distinct simulations the engine has memoized.
func (h *Harness) Runs() int { return h.engine.Distinct() }

// Engine exposes the shared run engine (for progress statistics).
func (h *Harness) Engine() *runner.Engine { return h.engine }

// pointFor wraps (app, cfg) as a run-engine point at the harness scale
// and operating point.
func (h *Harness) pointFor(app *trace.App, cfg sim.Config) runner.Point {
	return runner.Point{App: app, Scale: h.params.Scale, Config: h.cfgAt(cfg)}
}

// run simulates app on cfg through the engine (memoized by canonical
// point key).
func (h *Harness) run(app *trace.App, cfg sim.Config) (*sim.Result, error) {
	return h.engine.One(h.ctx, h.pointFor(app, cfg))
}

// prime batch-executes the full (apps × configs) grid through the run
// engine, so it runs across the worker pool and every per-point lookup
// that follows is a cache hit. Experiment builders call this with their
// whole grid before deriving metrics serially.
func (h *Harness) prime(cfgs ...sim.Config) error {
	stamped := make([]sim.Config, len(cfgs))
	for i, c := range cfgs {
		stamped[i] = h.cfgAt(c)
	}
	_, err := h.engine.Run(h.ctx, runner.Points(h.apps, h.params.Scale, stamped...))
	return err
}

// baselineCfg is the 1-GPM design every scaling metric normalizes to.
func baselineCfg() sim.Config { return sim.MultiGPM(1, sim.BW2x) }

// scaledConfigs returns the n-GPM ring configs for the given bandwidth
// across the Table III module steps, prefixed with the 1-GPM baseline.
func scaledConfigs(bw sim.BWSetting) []sim.Config {
	cfgs := []sim.Config{baselineCfg()}
	for _, n := range GPMSteps {
		cfgs = append(cfgs, sim.MultiGPM(n, bw))
	}
	return cfgs
}

// Model returns the projection energy model for a configuration's
// integration domain, rescaled to the configuration's operating point
// (the same pointer as today for nominal configs).
func (h *Harness) Model(cfg sim.Config) *core.Model {
	m := h.onBoard
	if cfg.Domain == sim.DomainOnPackage {
		m = h.onPackage
	}
	return dvfs.ScaleForConfig(m, h.cfgAt(cfg))
}

// sample derives the (energy, delay) sample of a run under a model.
func sample(m *core.Model, r *sim.Result) metrics.Sample {
	return metrics.Sample{
		EnergyJoules: m.EstimateEnergy(&r.Counts),
		DelaySeconds: r.Seconds(),
	}
}

// baseline returns the 1-GPM run of an app (the EDPSE denominator's
// base design). The 1-GPM design has no inter-GPM links, so its energy
// is domain-independent.
func (h *Harness) baseline(app *trace.App) (*sim.Result, error) {
	return h.run(app, baselineCfg())
}

// scaled returns the n-GPM ring run of an app at the given bandwidth
// setting (with the Table IV default domain).
func (h *Harness) scaled(app *trace.App, n int, bw sim.BWSetting) (*sim.Result, error) {
	return h.run(app, sim.MultiGPM(n, bw))
}

// switchedCfg is the n-GPM switch-topology on-board design.
func switchedCfg(n int, bw sim.BWSetting) sim.Config {
	cfg := sim.MultiGPM(n, bw)
	cfg.Topology = interconnect.TopologySwitch
	cfg.Domain = sim.DomainOnBoard
	return cfg
}

// switched returns the n-GPM switch-topology on-board run.
func (h *Harness) switched(app *trace.App, n int, bw sim.BWSetting) (*sim.Result, error) {
	return h.run(app, switchedCfg(n, bw))
}

// monolithicCfg is the hypothetical n×-capability monolithic die.
func monolithicCfg(n int) sim.Config {
	cfg := sim.MultiGPM(n, sim.BW2x)
	cfg.Monolithic = true
	return cfg
}

// monolithic returns the hypothetical n×-capability monolithic run.
func (h *Harness) monolithic(app *trace.App, n int) (*sim.Result, error) {
	return h.run(app, monolithicCfg(n))
}

// point computes an app's scaling point for a scaled run against its
// 1-GPM baseline, using the model that matches the scaled config's
// domain.
func (h *Harness) point(app *trace.App, cfg sim.Config, scaled *sim.Result) (metrics.ScalingPoint, error) {
	base, err := h.baseline(app)
	if err != nil {
		return metrics.ScalingPoint{}, err
	}
	m := h.Model(cfg)
	return metrics.Derive(sample(m, base), cfg.GPMs, sample(m, scaled)), nil
}
