package runner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"gpujoule/internal/isa"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
)

// goldenApp is a small app that exercises every scheduler and memory
// path the hot-path rewrite touched: two kernels (one barriered and
// shared-memory heavy, one a strided global streamer with stores),
// multiple launches, and enough CTAs to spread over several GPMs with
// warps retiring at different times.
func goldenApp() *trace.App {
	compute := &trace.Kernel{
		Name:        "golden-compute",
		Grid:        24,
		WarpsPerCTA: 8,
		Iters:       6,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatOwn, Lines: 2}},
			{Op: isa.OpFFMA32, Times: 4},
			{Op: isa.OpLoadShared},
			{Op: isa.OpBarrier},
			{Op: isa.OpFAdd32, Times: 2},
			{Op: isa.OpStoreShared},
		},
	}
	stream := &trace.Kernel{
		Name:        "golden-stream",
		Grid:        17, // deliberately not a multiple of the GPM count
		WarpsPerCTA: 4,
		Iters:       9,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 1, Pattern: trace.PatOwn, Lines: 4}},
			{Op: isa.OpIAdd32},
			{Op: isa.OpStoreGlobal, Mem: &trace.MemAccess{Region: 1, Pattern: trace.PatOwn, Lines: 4}},
		},
	}
	return &trace.App{
		Name:     "golden-determinism",
		Category: trace.CategoryMemory,
		Regions: []trace.Region{
			{Name: "a", Bytes: 8 << 20},
			{Name: "b", Bytes: 16 << 20},
		},
		Launches: []trace.Launch{
			{Kernel: compute, Count: 2},
			{Kernel: stream, Count: 2},
			{Kernel: compute},
		},
	}
}

// marshal renders a result the way the export tools do — the full JSON
// Result including the counters snapshot — so "byte-identical" means
// the serialized form users actually diff.
func marshalResult(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenDeterminism is the regression tripwire for the scheduler /
// page-table / allocation-reuse rewrite: a multi-GPM, multi-kernel app
// simulated twice on fresh GPUs, and once more through the run engine
// at 4 workers, must produce byte-identical JSON results and counters.
// Any hidden shared state, pool-reuse contamination, or
// selection-order drift shows up here as a diff.
func TestGoldenDeterminism(t *testing.T) {
	app := goldenApp()
	cfg := sim.MultiGPM(4, sim.BW2x)

	first, err := sim.Simulate(context.Background(), cfg, app, sim.WithCounters())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.Simulate(context.Background(), cfg, app, sim.WithCounters())
	if err != nil {
		t.Fatal(err)
	}
	fb, sb := marshalResult(t, first), marshalResult(t, second)
	if !bytes.Equal(fb, sb) {
		t.Fatalf("two fresh simulations differ:\nfirst:\n%s\nsecond:\n%s", fb, sb)
	}

	// The same point through the engine at 4 workers, alongside sibling
	// points that keep the other workers busy while it runs.
	eng := runner.New(runner.Options{Workers: 4, Counters: true})
	pts := []runner.Point{
		{App: app, Scale: 1, Config: cfg},
		{App: app, Scale: 1, Config: sim.MultiGPM(2, sim.BW2x)},
		{App: app, Scale: 1, Config: sim.MultiGPM(1, sim.BW1x)},
		{App: app, Scale: 1, Config: sim.MultiGPM(4, sim.BW1x)},
	}
	results, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	pb := marshalResult(t, results[0])
	if !bytes.Equal(fb, pb) {
		t.Fatalf("engine result at 4 workers differs from fresh simulation:\nfresh:\n%s\nengine:\n%s", fb, pb)
	}

	if first.Counters == nil || results[0].Counters == nil {
		t.Fatal("counters snapshot missing from a WithCounters run")
	}

	// Tracing is opt-in: a run without WithTrace must not carry (or
	// serialize) a trace section, so counters-only output is
	// byte-identical to the pre-trace schema.
	if first.Trace != nil {
		t.Fatal("Trace present on a run without WithTrace")
	}
	if bytes.Contains(fb, []byte(`"trace"`)) {
		t.Fatalf("untraced result serializes a trace field:\n%s", fb)
	}
}

// TestGoldenDeterminismGPMParallel is the byte-identity check for
// intra-run parallelism (sim.WithGPMParallel): the same point simulated
// on 2 and 8 GPM lanes must serialize to exactly the bytes of the
// sequential run, for a counters-plus-sampler run and for a traced one.
// GOMAXPROCS is raised for the test's duration so the lane goroutines
// run on separate threads even on a small host, interleaving at
// arbitrary points rather than only where they block on the turnstile.
func TestGoldenDeterminismGPMParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(old)

	app := goldenApp()
	cfg := sim.MultiGPM(8, sim.BW1x)

	for name, opts := range map[string][]sim.Option{
		// A mid-launch sampler reads the collector at epoch boundaries,
		// exactly where the parallel driver parks its lanes — the most
		// delicate spot.
		"counters+sampler": {sim.WithCounters(), sim.WithSampler(2048)},
		// The timeline adds per-launch phases and link-busy snapshots.
		"trace": {sim.WithTrace()},
	} {
		ref, err := sim.Simulate(context.Background(), cfg, app, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rb := marshalResult(t, ref)
		for _, lanes := range []int{2, 8} {
			laneOpts := append(append([]sim.Option(nil), opts...), sim.WithGPMParallel(lanes))
			res, err := sim.Simulate(context.Background(), cfg, app, laneOpts...)
			if err != nil {
				t.Fatal(err)
			}
			if pb := marshalResult(t, res); !bytes.Equal(rb, pb) {
				t.Fatalf("%s: %d-lane simulation differs from sequential:\nseq:\n%s\nlanes:\n%s", name, lanes, rb, pb)
			}
		}
	}
}

// TestGoldenDeterminismTrace extends the golden tripwire to the traced
// path: tracing must not perturb the simulation, and traced runs must
// be byte-identical across fresh GPUs and engine worker counts.
func TestGoldenDeterminismTrace(t *testing.T) {
	app := goldenApp()
	cfg := sim.MultiGPM(4, sim.BW2x)

	plain, err := sim.Simulate(context.Background(), cfg, app, sim.WithCounters())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Simulate(context.Background(), cfg, app, sim.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.Simulate(context.Background(), cfg, app, sim.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	fb, sb := marshalResult(t, first), marshalResult(t, second)
	if !bytes.Equal(fb, sb) {
		t.Fatalf("two fresh traced simulations differ:\nfirst:\n%s\nsecond:\n%s", fb, sb)
	}
	if first.Trace == nil || len(first.Trace.Launches) == 0 {
		t.Fatal("WithTrace run carries no timeline")
	}

	// Stripping the trace-only sections (the trace itself and the
	// sampler series its default interval added) must recover the
	// counters-only result exactly: tracing observed the same simulation.
	stripped := *first
	stripped.Trace = nil
	cc := *first.Counters
	cc.Samples = nil
	stripped.Counters = &cc
	if !bytes.Equal(marshalResult(t, &stripped), marshalResult(t, plain)) {
		t.Fatal("tracing perturbed the simulated result")
	}

	eng := runner.New(runner.Options{Workers: 4, Trace: true})
	pts := []runner.Point{
		{App: app, Scale: 1, Config: cfg},
		{App: app, Scale: 1, Config: sim.MultiGPM(2, sim.BW2x)},
		{App: app, Scale: 1, Config: sim.MultiGPM(1, sim.BW1x)},
		{App: app, Scale: 1, Config: sim.MultiGPM(4, sim.BW1x)},
	}
	results, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if pb := marshalResult(t, results[0]); !bytes.Equal(fb, pb) {
		t.Fatalf("engine traced result at 4 workers differs from fresh simulation:\nfresh:\n%s\nengine:\n%s", fb, pb)
	}
}
