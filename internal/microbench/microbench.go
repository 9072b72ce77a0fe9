// Package microbench constructs the GPUJoule calibration and
// validation microbenchmarks of §IV-A (Fig. 3, steps 1 and 3):
//
//   - compute benchmarks that execute one PTX instruction class
//     repeatedly at full occupancy with no memory traffic (the
//     Algorithm 1 pattern: registers initialized outside the ROI,
//     compiler effects excluded by construction);
//   - a low-occupancy stall probe that exposes the energy of SM lane
//     stalls;
//   - data-movement benchmarks that isolate one level of the memory
//     hierarchy at a time (shared memory, L1, L2, DRAM), managing
//     warp- and block-level locality so accesses hit exactly the
//     intended level;
//   - mixed validation benchmarks combining FADD64 with each memory
//     level (the Fig. 4a suite).
//
// The L1 and L2 benchmarks carry a DRAM-saturating background stream:
// the memory interface's utilization-dependent background power would
// otherwise be mis-attributed to the cache transactions under
// calibration. Calibration separates the background transaction costs
// by solving the memory suite's transaction mixes as one linear system.
package microbench

import (
	"fmt"

	"gpujoule/internal/isa"
	"gpujoule/internal/trace"
)

// Kind classifies a microbenchmark.
type Kind uint8

// Microbenchmark kinds.
const (
	// KindCompute isolates one compute instruction class.
	KindCompute Kind = iota
	// KindStall exposes SM lane-stall energy at low occupancy.
	KindStall
	// KindMemory isolates one data-movement transaction class.
	KindMemory
	// KindMixed combines FADD64 with memory traffic for validation.
	KindMixed
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindStall:
		return "stall"
	case KindMemory:
		return "memory"
	case KindMixed:
		return "mixed"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Bench is one microbenchmark with the metadata calibration needs.
type Bench struct {
	// Name identifies the benchmark.
	Name string
	// Kind classifies it.
	Kind Kind
	// App is the runnable trace.
	App *trace.App
	// Op is the stressed instruction class (KindCompute only).
	Op isa.Op
	// Level is the stressed transaction class (KindMemory only).
	Level isa.TxnKind
}

// Steady-state shaping shared by the suite: enough warps to fill the
// 16-SM reference GPM at full occupancy, enough iterations to dwarf
// ramp-up and drain.
const (
	benchGrid  = 256
	benchWarps = 8
	benchIters = 8
)

// ComputeBench isolates one compute instruction class: a pure-ALU
// kernel with zero memory traffic.
func ComputeBench(op isa.Op) Bench {
	if !op.IsCompute() {
		panic(fmt.Sprintf("microbench: %v is not a compute instruction class", op))
	}
	k := &trace.Kernel{
		Name: fmt.Sprintf("ubench-%v", op), Grid: benchGrid, WarpsPerCTA: benchWarps,
		Iters: benchIters,
		Body:  []trace.Inst{{Op: op, Times: 50}},
	}
	app := &trace.App{
		Name:          k.Name,
		Category:      trace.CategoryCompute,
		HostGapCycles: 1, // steady-state ROI measurement
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindCompute, App: app, Op: op}
}

// ComputeSuite returns one compute benchmark per Table Ib instruction
// row.
func ComputeSuite() []Bench {
	ops := isa.ComputeOps()
	out := make([]Bench, 0, len(ops))
	for _, op := range ops {
		out = append(out, ComputeBench(op))
	}
	return out
}

// StallBench runs a single warp per SM through long dependent FFMA
// chains: the SM stalls on the dependency latency between every issue,
// exposing the per-stall energy once the (already calibrated) FFMA
// energy is subtracted.
func StallBench() Bench {
	k := &trace.Kernel{
		Name: "ubench-stall", Grid: 16, WarpsPerCTA: 1, Iters: 64,
		Body: []trace.Inst{{Op: isa.OpFFMA32, Times: 50}},
	}
	app := &trace.App{
		Name:          k.Name,
		Category:      trace.CategoryCompute,
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindStall, App: app}
}

// SharedBench isolates shared-memory-to-register-file transfers: pure
// on-chip traffic, no global memory at all.
func SharedBench() Bench {
	k := &trace.Kernel{
		Name: "ubench-shm", Grid: benchGrid, WarpsPerCTA: benchWarps, Iters: benchIters,
		Body: []trace.Inst{{Op: isa.OpLoadShared, Times: 24}},
	}
	app := &trace.App{
		Name:          k.Name,
		Category:      trace.CategoryMemory,
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindMemory, App: app, Level: isa.TxnShmToRF}
}

// backgroundRegion and backgroundLoad give the L1/L2 benchmarks their
// DRAM-saturating background stream (see the package comment).
const backgroundRegionBytes = 96 << 20

func backgroundLoad(region int) trace.Inst {
	return trace.Inst{Op: isa.OpLoadGlobal,
		Mem: &trace.MemAccess{Region: region, Pattern: trace.PatOwn}}
}

// L1Bench isolates L1-to-register-file transfers: each warp cycles
// over a private 3-line working set so the per-SM resident footprint
// fits comfortably in the 32 KB L1 and every post-warmup access hits.
func L1Bench() Bench {
	totalWarps := uint64(benchGrid * benchWarps)
	k := &trace.Kernel{
		Name: "ubench-l1", Grid: benchGrid, WarpsPerCTA: benchWarps, Iters: benchIters,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatOwn}, Times: 24},
			backgroundLoad(1), backgroundLoad(1), backgroundLoad(1),
		},
	}
	app := &trace.App{
		Name:     k.Name,
		Category: trace.CategoryMemory,
		Regions: []trace.Region{
			{Name: "l1set", Bytes: totalWarps * 3 * isa.LineBytes},
			{Name: "bg", Bytes: backgroundRegionBytes},
		},
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindMemory, App: app, Level: isa.TxnL1ToRF}
}

// L2Bench isolates L2-to-L1 sector transfers: random accesses over a
// region that fits the 2 MB L2 but dwarfs the L1s, so essentially
// every access misses L1 and hits L2 after warmup.
func L2Bench() Bench {
	k := &trace.Kernel{
		Name: "ubench-l2", Grid: benchGrid, WarpsPerCTA: benchWarps, Iters: benchIters,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatRandom}, Times: 16},
			backgroundLoad(1), backgroundLoad(1), backgroundLoad(1), backgroundLoad(1),
			backgroundLoad(1), backgroundLoad(1), backgroundLoad(1), backgroundLoad(1),
		},
	}
	app := &trace.App{
		Name:     k.Name,
		Category: trace.CategoryMemory,
		Regions: []trace.Region{
			{Name: "l2set", Bytes: 1536 << 10},
			{Name: "bg", Bytes: backgroundRegionBytes},
		},
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindMemory, App: app, Level: isa.TxnL2ToL1}
}

// DRAMBench isolates DRAM-to-L2 sector transfers: random accesses over
// a region far larger than the L2, saturating the DRAM interface.
func DRAMBench() Bench {
	k := &trace.Kernel{
		Name: "ubench-dram", Grid: benchGrid, WarpsPerCTA: benchWarps, Iters: benchIters,
		Body: []trace.Inst{
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatRandom}, Times: 12},
		},
	}
	app := &trace.App{
		Name:          k.Name,
		Category:      trace.CategoryMemory,
		Regions:       []trace.Region{{Name: "dramset", Bytes: 128 << 20}},
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: k.Name, Kind: KindMemory, App: app, Level: isa.TxnDRAMToL2}
}

// MemorySuite returns the four data-movement benchmarks in calibration
// order: shared memory and DRAM first (self-contained), then L2 and L1
// (whose background-stream costs require the DRAM energy to be known).
func MemorySuite() []Bench {
	return []Bench{SharedBench(), DRAMBench(), L2Bench(), L1Bench()}
}

// MixedBench builds one Fig. 4a validation benchmark: FADD64 combined
// with traffic to the given levels. Like every microbenchmark its app
// is named ubench-*, so its run-engine points never collide with a
// workload's.
func MixedBench(name string, body []trace.Inst, regions []trace.Region) Bench {
	k := &trace.Kernel{
		Name: "ubench-" + name, Grid: benchGrid, WarpsPerCTA: benchWarps, Iters: benchIters,
		Body: body,
	}
	app := &trace.App{
		Name:          k.Name,
		Category:      trace.CategoryCompute,
		Regions:       regions,
		HostGapCycles: 1,
		Launches:      []trace.Launch{{Kernel: k}},
	}
	return Bench{Name: name, Kind: KindMixed, App: app}
}

// MixedSuite returns the five Fig. 4a validation benchmarks.
func MixedSuite() []Bench {
	totalWarps := uint64(benchGrid * benchWarps)
	l1Region := trace.Region{Name: "l1set", Bytes: totalWarps * 3 * isa.LineBytes}
	l2Region := trace.Region{Name: "l2set", Bytes: 1536 << 10}
	dramRegion := trace.Region{Name: "dramset", Bytes: 128 << 20}
	bgRegion := trace.Region{Name: "bg", Bytes: backgroundRegionBytes}
	fadd := trace.Inst{Op: isa.OpFAdd64, Times: 8}

	return []Bench{
		MixedBench("FADD64+SharedMemory", []trace.Inst{
			fadd, {Op: isa.OpLoadShared, Times: 4},
		}, nil),
		// The cache-level mixes carry the calibration suite's background
		// stream so the memory interface is in the same activity state
		// it was calibrated in.
		MixedBench("FADD64+L1DCache", []trace.Inst{
			fadd, {Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatOwn}, Times: 4},
			backgroundLoad(1),
		}, []trace.Region{l1Region, bgRegion}),
		MixedBench("FADD64+L2Cache", []trace.Inst{
			fadd, {Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatRandom}, Times: 4},
			backgroundLoad(1),
		}, []trace.Region{l2Region, bgRegion}),
		MixedBench("FADD64+DRAM", []trace.Inst{
			fadd, {Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatRandom}, Times: 4},
		}, []trace.Region{dramRegion}),
		MixedBench("FADD64+L2Cache+DRAM", []trace.Inst{
			fadd,
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 0, Pattern: trace.PatRandom}, Times: 2},
			{Op: isa.OpLoadGlobal, Mem: &trace.MemAccess{Region: 1, Pattern: trace.PatRandom}, Times: 2},
		}, []trace.Region{l2Region, dramRegion}),
	}
}
