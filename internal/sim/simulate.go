package sim

import (
	"context"
	"errors"
	"fmt"

	"gpujoule/internal/obs"
	"gpujoule/internal/trace"
)

// ErrDeadlock reports that a kernel blocked every runnable warp at CTA
// barriers — a malformed kernel (a barrier under divergent retirement),
// not a slow one. Simulate wraps it with the kernel's name; callers
// running sweeps branch with errors.Is(err, ErrDeadlock) to fail the
// one run instead of killing a whole sweep worker.
var ErrDeadlock = errors.New("deadlock: all runnable warps blocked at barriers")

// Option configures one Simulate call. Options are additive: the
// zero-option call is the fast path and produces output identical to
// the pre-options simulator.
type Option func(*simOptions)

// simOptions collects the resolved option set.
type simOptions struct {
	counters       bool
	trace          bool
	sampleInterval float64
	gpmParallel    int
}

// defaultTraceSampleCycles is the sampler interval WithTrace installs
// when the caller did not pick one: fine enough to resolve link
// saturation within a launch, coarse enough to stay a rounding error in
// simulation cost. Fixed (not derived from run length) so traced runs
// stay deterministic and memoizable.
const defaultTraceSampleCycles = 5000

// WithCounters enables the observability layer: the returned Result
// carries a Counters snapshot with per-GPM instruction/stall/cache
// counters, the local-vs-remote fill split, and per-link fabric bytes
// and queueing delay. Collection is deterministic at any
// WithGPMParallel lane count: a lane writes its own GPM's counters,
// touches another module's counters or shared state only under the
// turnstile, and shards merge in GPM order. It costs one predictable
// branch per event when enabled; without this option Result.Counters is
// nil and the simulation path is untouched.
func WithCounters() Option {
	return func(o *simOptions) { o.counters = true }
}

// WithSampler additionally records a coarse time series: one
// obs.Sample (active warps, pending CTAs, cumulative instructions)
// every interval cycles, quantized to the simulator's epoch length.
// WithSampler implies WithCounters. A non-positive interval disables
// sampling.
func WithSampler(interval float64) Option {
	return func(o *simOptions) {
		if interval > 0 {
			o.counters = true
			o.sampleInterval = interval
		}
	}
}

// WithTrace additionally records a timeline: kernel-launch windows,
// per-GPM busy/stall phases per launch, and link-saturation episodes
// derived from the sampler's time series. The timeline is attached to
// Result.Trace (cycle-exact, schema-versioned) and renders to the
// Chrome trace_event format via obs.Trace.WriteChrome for
// chrome://tracing / Perfetto. WithTrace implies WithCounters and, if
// no WithSampler interval was chosen, installs a default sampling
// interval. Without this option Result.Trace is nil and output is
// byte-identical to an untraced run.
func WithTrace() Option {
	return func(o *simOptions) {
		o.counters = true
		o.trace = true
	}
}

// WithGPMParallel runs each launch's GPMs on up to n parallel lanes
// within every epoch window, letting one simulation use more than one
// core. Results are bit-identical to the sequential engine at every
// lane count (the per-GPM lanes synchronize so that shared-resource
// operations keep their sequential order; see DESIGN.md "Performance
// engineering"), so the option does not participate in Config.SimKey
// and memoized results remain valid across lane counts. The lane count
// is clamped to the GPM count per launch; n <= 1 selects the plain
// sequential engine. Speedup is workload-dependent: lanes overlap each
// GPM's private work (warp scheduling, L1/module-side-L2 traffic) and
// serialize at shared resources (page homing, DRAM stacks, fabric).
// Lanes are not budgeted against other goroutines, and no CLI, runner
// or service option sets them: across-point workers already fill the
// cores, and two lanes ran at 0.97× of sequential on the benchmark's
// 32-GPM single_point workload on a 2-core host.
func WithGPMParallel(n int) Option {
	return func(o *simOptions) { o.gpmParallel = n }
}

// Simulate runs the whole application on the configured GPU and
// returns the result. It is the single entry point of the simulator:
// one call validates the configuration and the application, builds the
// GPU, executes every kernel launch in order, and aggregates the
// counts the energy model consumes. The context is checked between
// kernel launches, so a cancelled grid abandons a long multi-launch
// run promptly; a nil ctx means context.Background().
//
// Simulate is a pure function of (cfg, app, opts): two calls with
// equal arguments return identical results, which is what lets the run
// engine (internal/runner) memoize simulations by canonical key.
func Simulate(ctx context.Context, cfg Config, app *trace.App, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o simOptions
	for _, f := range opts {
		f(&o)
	}
	if o.trace && o.sampleInterval <= 0 {
		o.sampleInterval = defaultTraceSampleCycles
	}
	g, err := newGPU(cfg, app, o)
	if err != nil {
		return nil, err
	}
	return g.runAll(ctx)
}

// finishCounters freezes the collector into the result's Counters
// snapshot: fabric link stats become obs.LinkCounters (utilization
// normalized over the run's end-to-end cycles), and each module's
// DRAM/L2 bandwidth-resource counters are folded into its GPMCounters.
func (g *GPU) finishCounters() {
	horizon := float64(g.res.Counts.Cycles)
	for _, gpm := range g.gpms {
		gc := &g.col.GPMs[gpm.id]
		gc.DRAMBytes = gpm.dram.BytesServed
		gc.DRAMQueueCycles = gpm.dram.QueueCycles
		gc.L2Bytes = gpm.l2bw.BytesServed
		gc.L2QueueCycles = gpm.l2bw.QueueCycles
	}
	var links []obs.LinkCounters
	if g.fabric != nil {
		for _, ls := range g.fabric.LinkStats() {
			util := 0.0
			if horizon > 0 {
				util = ls.BusyCycles / horizon
				if util > 1 {
					util = 1
				}
			}
			links = append(links, obs.LinkCounters{
				Link:        ls.Name,
				Bytes:       ls.Bytes,
				BusyCycles:  ls.BusyCycles,
				QueueCycles: ls.QueueCycles,
				Utilization: util,
			})
		}
	}
	g.res.Counters = g.col.Snapshot(links)
	if g.col.TraceEnabled() {
		g.res.Trace = g.col.TraceSnapshot(g.cfg.Clock())
	}
}

// cancelled wraps a context error into the simulator's error space.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("sim: cancelled: %w", context.Cause(ctx))
}
