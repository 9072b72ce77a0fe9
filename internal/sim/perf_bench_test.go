package sim

import (
	"context"

	"fmt"
	"testing"

	"gpujoule/internal/isa"
	"gpujoule/internal/trace"
)

// schedApp builds a compute-dominated app whose cost is almost
// entirely scheduler work: a mix of issue latencies so the ready queue
// sees realistic key movement, and a tiny cached footprint so the
// memory system stays out of the measurement.
func schedApp(ctas, warpsPerCTA, iters int) *trace.App {
	k := &trace.Kernel{
		Name:        "sched",
		Grid:        ctas,
		WarpsPerCTA: warpsPerCTA,
		Iters:       iters,
		Body: []trace.Inst{
			{Op: isa.OpFFMA32, Times: 4},
			{Op: isa.OpFAdd32, Times: 2},
			{Op: isa.OpIAdd32, Times: 2},
			{Op: isa.OpFFMA64},
		},
	}
	return &trace.App{
		Name:     "sched-bench",
		Category: trace.CategoryCompute,
		Regions:  []trace.Region{{Name: "a", Bytes: 1 << 20}},
		Launches: []trace.Launch{{Kernel: k}},
	}
}

// BenchmarkSMAdvance measures per-instruction scheduler cost on one SM
// as resident warps grow from 8 to 64 (1 to 8 CTAs of 8 warps). With
// the indexed ready queue the reported ns/inst must grow sub-linearly
// in the warp count — the heap sift is O(log W) where the replaced
// linear scan was O(W).
func BenchmarkSMAdvance(b *testing.B) {
	for _, ctas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("warps=%d", ctas*8), func(b *testing.B) {
			cfg := MultiGPM(1, BW2x)
			cfg.SMsPerGPM = 1
			cfg.MaxCTAsPerSM = ctas
			// Grid sized so the SM stays at full residency for almost
			// the whole run regardless of the CTA limit.
			app := schedApp(8*ctas, 8, 32)

			res, err := Simulate(context.Background(), cfg, app)
			if err != nil {
				b.Fatal(err)
			}
			insts := res.Counts.TotalWarpInstructions()
			if insts == 0 {
				b.Fatal("no instructions issued")
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(context.Background(), cfg, app); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(insts), "ns/inst")
		})
	}
}

// memApp builds a memory-heavy app whose GPMs do real per-epoch work
// (partitioned global streams with some divergence), so the parallel
// epoch driver's turnstile and lane hand-off costs are measured
// against representative epochs rather than empty ones.
func memApp(ctas, warpsPerCTA, iters int) *trace.App {
	k := &trace.Kernel{
		Name:        "mem",
		Grid:        ctas,
		WarpsPerCTA: warpsPerCTA,
		Iters:       iters,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatOwn, Lines: 2}},
			{Op: isa.OpFFMA32, Times: 4},
			{Op: isa.OpStoreGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatOwn, Lines: 2}},
			{Op: isa.OpIAdd32, Times: 2},
		},
	}
	return &trace.App{
		Name:     "mem-bench",
		Category: trace.CategoryMemory,
		Regions:  []trace.Region{{Name: "a", Bytes: 64 << 20}},
		Launches: []trace.Launch{{Kernel: k}},
	}
}

// BenchmarkGPMParallelEpoch measures one full 8-GPM simulation at lane
// counts 1, 2, 4, and 8. On a multi-core host wall time should fall
// with lanes until the epoch barrier dominates; on a single-core host
// the turnstile's overhead over the sequential sweep is what's being
// measured. Results are byte-identical at every lane count
// (TestGoldenDeterminismGPMParallel), so this benchmark is purely about
// wall clock.
func BenchmarkGPMParallelEpoch(b *testing.B) {
	cfg := MultiGPM(8, BW1x)
	app := memApp(64, 4, 24)
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			opts := []Option{}
			if lanes > 1 {
				opts = append(opts, WithGPMParallel(lanes))
			}
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(context.Background(), cfg, app, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDVFSScaledSim measures a full 4-GPM memory-heavy simulation
// at the nominal clock and reclocked to the slowest K40 curve point.
// The clock domain split rescales every wall-clock-fixed latency and
// bandwidth once at config time, so the scaled run must cost the same
// per simulated instruction as the nominal one — a regression here
// means frequency handling leaked into the per-access hot path.
func BenchmarkDVFSScaledSim(b *testing.B) {
	app := memApp(32, 4, 16)
	for _, bc := range []struct {
		name    string
		clockHz float64
	}{
		{"nominal", 0},
		{"600MHz", 600e6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := MultiGPM(4, BW2x)
			cfg.ClockHz = bc.clockHz
			if bc.clockHz != 0 {
				cfg.VoltageV = 0.80
			}
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(context.Background(), cfg, app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
