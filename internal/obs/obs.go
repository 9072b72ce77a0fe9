// Package obs is the opt-in observability layer of the simulator: the
// per-resource counters the paper's attribution arguments rest on.
// The headline claims (inter-GPM bandwidth dominates energy at scale,
// link energy/bit is almost irrelevant, §V-B/§VI) are statements about
// *which* resource saturated — a GPM's SM lanes, a DRAM stack, one ring
// link — so the simulator records per-GPM instruction/stall/cache
// counters, the local-vs-remote fill split, per-link fabric bytes and
// queueing delay, and (optionally) a coarse time series, alongside the
// GPU-wide aggregates of sim.Result.
//
// The layer is strictly opt-in and zero-cost when disabled: a run
// without sim.WithCounters carries a nil *Collector and the simulator
// never touches it, so disabled-path output is byte-identical to a
// build without this package. Collection is per-run (one Collector per
// simulated GPU), so counters are deterministic regardless of how many
// runner workers execute the grid, and at any sim.WithGPMParallel lane
// count (see Collector).
//
// All exported structs carry stable, documented JSON field names: the
// schema (SchemaVersion) is shared by the -counters export of
// cmd/sweep and cmd/gpmsim, and by sim.Result's own JSON form.
package obs

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpujoule/internal/isa"
)

// SchemaVersion identifies the JSON schema of Counters and Report.
// Bump it when a field is renamed or its meaning changes; adding fields
// is backward-compatible and does not bump the version.
//
// v2: per-GPM instruction-class and transaction-class arrays on GPM
// rows, the per-GPM/per-term/per-link energy attribution section
// (EnergyAttribution), the timeline trace section (Trace), and the
// runner-profile warp-instruction throughput fields.
const SchemaVersion = 2

// GPMCounters holds one GPU module's event counters for a whole run.
type GPMCounters struct {
	// GPM is the module index.
	GPM int `json:"gpm"`
	// WarpInstructions counts warp-level instructions issued by the
	// module's SMs; ThreadInstructions weights them by active threads.
	WarpInstructions   uint64 `json:"warp_instructions"`
	ThreadInstructions uint64 `json:"thread_instructions"`
	// BusyCycles is the total SM-cycles the module's SMs spent issuing;
	// StallCycles is the complement within launch windows (both in
	// fractional cycles — the aggregate sim.Result truncates per launch,
	// so per-GPM sums reconcile within one cycle per launch).
	BusyCycles  float64 `json:"busy_cycles"`
	StallCycles float64 `json:"stall_cycles"`
	// L1 counters of the module's SM-private caches.
	L1Accesses uint64 `json:"l1_accesses"`
	L1Misses   uint64 `json:"l1_misses"`
	// L2 counters of the module's L2 slice (module-side: requests from
	// this module's SMs; memory-side: requests homed at this module).
	L2Accesses uint64 `json:"l2_accesses"`
	L2Misses   uint64 `json:"l2_misses"`
	// LocalFills and RemoteFills split this module's DRAM line fills by
	// whether the home stack was local — the per-GPM NUMA exposure.
	LocalFills  uint64 `json:"local_fills"`
	RemoteFills uint64 `json:"remote_fills"`
	// DRAMBytes is the payload served by this module's DRAM stack, and
	// DRAMQueueCycles the cumulative queueing delay behind it.
	DRAMBytes       uint64  `json:"dram_bytes"`
	DRAMQueueCycles float64 `json:"dram_queue_cycles"`
	// L2Bytes / L2QueueCycles are the same for the L2 bank group.
	L2Bytes       uint64  `json:"l2_bytes"`
	L2QueueCycles float64 `json:"l2_queue_cycles"`
	// Inst splits ThreadInstructions by opcode class — the per-GPM view
	// of isa.Counts.Inst, which is what lets the energy attribution
	// price each module's compute exactly.
	Inst [isa.NumOps]uint64 `json:"inst"`
	// Txn splits the module's data-movement transactions by class (in
	// isa.TxnKind order). ShmToRF and L1ToRF are charged to the
	// requesting module; L2ToL1 follows the module whose L2 slice served
	// the request (the requester under module-side caching, the home
	// module under memory-side caching); DRAMToL2 follows the home
	// module whose DRAM stack was read, matching DRAMBytes. InterGPM and
	// Switch stay zero here: fabric traffic is attributed per link, not
	// per module.
	Txn [isa.NumTxnKinds]uint64 `json:"txn"`
}

// LinkCounters holds one unidirectional fabric link's counters.
type LinkCounters struct {
	// Link is the diagnostic link name (e.g. "ring-link[d0][3]").
	Link string `json:"link"`
	// Bytes is the payload that traversed the link.
	Bytes uint64 `json:"bytes"`
	// BusyCycles is the service time implied by the bytes moved.
	BusyCycles float64 `json:"busy_cycles"`
	// QueueCycles is the cumulative queueing delay transfers experienced
	// at this link (completion minus unloaded completion).
	QueueCycles float64 `json:"queue_cycles"`
	// Utilization is BusyCycles over the run's end-to-end cycles.
	Utilization float64 `json:"utilization"`
}

// Sample is one point of the optional coarse time series recorded by
// sim.WithSampler: a snapshot taken at epoch granularity.
type Sample struct {
	// TimeCycles is the global clock at the snapshot.
	TimeCycles float64 `json:"time_cycles"`
	// ActiveWarps is the number of resident, unretired warps.
	ActiveWarps int `json:"active_warps"`
	// PendingCTAs is the number of CTAs still queued on the modules.
	PendingCTAs int `json:"pending_ctas"`
	// WarpInstructions is the cumulative warp-instruction count.
	WarpInstructions uint64 `json:"warp_instructions"`
}

// Counters is the complete observability snapshot of one simulation
// run, attached to sim.Result when counters are enabled.
type Counters struct {
	// SchemaVersion is the obs JSON schema version.
	SchemaVersion int `json:"schema_version"`
	// GPMs holds one entry per physical module, in module order.
	GPMs []GPMCounters `json:"gpms"`
	// Links holds one entry per unidirectional fabric link (empty for
	// single-module and monolithic designs, which have no fabric).
	Links []LinkCounters `json:"links,omitempty"`
	// Samples is the optional time series (sim.WithSampler).
	Samples []Sample `json:"samples,omitempty"`
}

// TotalWarpInstructions sums warp instructions over modules.
func (c *Counters) TotalWarpInstructions() uint64 {
	var n uint64
	for i := range c.GPMs {
		n += c.GPMs[i].WarpInstructions
	}
	return n
}

// TotalLinkBytes sums payload bytes over all fabric links.
func (c *Counters) TotalLinkBytes() uint64 {
	var n uint64
	for i := range c.Links {
		n += c.Links[i].Bytes
	}
	return n
}

// Collector accumulates counters during one simulation run. It is
// owned by a single GPU instance and has no locks. When that GPU runs
// its GPMs on parallel lanes (sim.WithGPMParallel), each lane writes its
// own GPM's entry, touches another module's entry only under the
// simulator's turnstile, and samples and timeline records are taken
// between epochs, so the counters are deterministic at any lane count
// and across runner worker counts. A nil *Collector is the disabled
// state; the simulator guards every update with a nil check, so the
// disabled path costs one predictable branch.
type Collector struct {
	// GPMs is indexed by physical module id; the simulator updates the
	// entries in place on its hot paths.
	GPMs []GPMCounters

	samples  []Sample
	interval float64
	next     float64

	// Trace state, populated only after EnableTrace: per-launch timeline
	// records plus, per time-series sample, a snapshot of each fabric
	// link's cumulative busy cycles (parallel to samples).
	traceOn        bool
	launches       []TraceLaunch
	linkNames      []string
	linkBusy       func() []float64
	sampleLinkBusy [][]float64
}

// NewCollector builds a collector for a run over gpms physical modules.
// A positive sampleInterval additionally records a time-series sample
// every interval cycles (at epoch granularity).
func NewCollector(gpms int, sampleInterval float64) *Collector {
	c := &Collector{
		GPMs:     make([]GPMCounters, gpms),
		interval: sampleInterval,
		next:     sampleInterval,
	}
	for i := range c.GPMs {
		c.GPMs[i].GPM = i
	}
	return c
}

// MaybeSample records a time-series sample if the clock has crossed the
// next sampling point. The simulator calls it at epoch boundaries, so
// sample spacing is at least the configured interval but quantized to
// epochs.
func (c *Collector) MaybeSample(now float64, activeWarps, pendingCTAs int) {
	if c.interval <= 0 || now < c.next {
		return
	}
	c.samples = append(c.samples, Sample{
		TimeCycles:       now,
		ActiveWarps:      activeWarps,
		PendingCTAs:      pendingCTAs,
		WarpInstructions: c.totalWarpInstructions(),
	})
	if c.traceOn && c.linkBusy != nil {
		c.sampleLinkBusy = append(c.sampleLinkBusy, c.linkBusy())
	}
	for c.next <= now {
		c.next += c.interval
	}
}

// EnableTrace switches the collector into trace mode: RecordLaunch
// becomes active and every time-series sample additionally snapshots
// the fabric links' cumulative busy cycles (linkBusy returns one value
// per link, in linkNames order; both may be nil for fabric-less
// designs).
func (c *Collector) EnableTrace(linkNames []string, linkBusy func() []float64) {
	c.traceOn = true
	c.linkNames = linkNames
	c.linkBusy = linkBusy
}

// TraceEnabled reports whether EnableTrace was called.
func (c *Collector) TraceEnabled() bool { return c.traceOn }

// RecordLaunch appends one kernel-launch window with its per-GPM
// busy/stall phases. A no-op unless tracing is enabled.
func (c *Collector) RecordLaunch(kernel string, startCycles, endCycles float64, gpms []TraceGPMPhase) {
	if !c.traceOn {
		return
	}
	c.launches = append(c.launches, TraceLaunch{
		Kernel:      kernel,
		StartCycles: startCycles,
		EndCycles:   endCycles,
		GPMs:        gpms,
	})
}

func (c *Collector) totalWarpInstructions() uint64 {
	var n uint64
	for i := range c.GPMs {
		n += c.GPMs[i].WarpInstructions
	}
	return n
}

// Snapshot freezes the collector into an exportable Counters, attaching
// the fabric link counters gathered by the simulator.
func (c *Collector) Snapshot(links []LinkCounters) *Counters {
	return &Counters{
		SchemaVersion: SchemaVersion,
		GPMs:          append([]GPMCounters(nil), c.GPMs...),
		Links:         links,
		Samples:       append([]Sample(nil), c.samples...),
	}
}

// PointProfile is one simulated point's wall-clock cost.
type PointProfile struct {
	// Point names the point ("<workload> on <config>").
	Point string `json:"point"`
	// Seconds is the point's simulation wall time.
	Seconds float64 `json:"seconds"`
	// NsPerInstruction is the simulator's cost per simulated warp
	// instruction at this point — the normalized throughput number that
	// makes points of different sizes comparable and hot-path
	// regressions visible regardless of grid shape. Zero when the point
	// issued no instructions.
	NsPerInstruction float64 `json:"ns_per_instruction,omitempty"`
}

// RunnerProfile summarizes a run engine's execution: where the wall
// clock went, how much the memo cache saved, and how busy the worker
// pool was.
type RunnerProfile struct {
	// Workers is the pool's concurrency bound.
	Workers int `json:"workers"`
	// Points is the total number of points resolved (including cache
	// hits); Simulated and CacheHits split it.
	Points    int `json:"points"`
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// Coalesced is the subset of CacheHits that joined a simulation
	// still in flight when claimed — one execution shared by concurrent
	// requests rather than a read of a resolved memo entry.
	Coalesced int `json:"coalesced,omitempty"`
	// Failed counts executions that resolved with an error (never
	// memoized, so retries that succeed also count under Simulated).
	Failed int `json:"failed,omitempty"`
	// SimWallSeconds is cumulative wall time inside the simulator;
	// BatchWallSeconds is elapsed time across Run calls.
	SimWallSeconds   float64 `json:"sim_wall_seconds"`
	BatchWallSeconds float64 `json:"batch_wall_seconds"`
	// Occupancy is SimWall / (BatchWall × Workers): the fraction of
	// worker-seconds spent simulating. Low occupancy on a large grid
	// means the pool starved (cache hits, skew, or too many workers).
	Occupancy float64 `json:"occupancy"`
	// WarpInstructions is the cumulative warp-instruction count over all
	// simulated (non-memoized) points; NsPerInstruction is SimWallSeconds
	// normalized by it — the engine-wide throughput number that the live
	// /metrics endpoint exports. Zero when nothing was simulated.
	WarpInstructions uint64  `json:"warp_instructions"`
	NsPerInstruction float64 `json:"ns_per_instruction,omitempty"`
	// Slowest lists the most expensive simulated points, costliest
	// first (bounded; ties broken by name for determinism).
	Slowest []PointProfile `json:"slowest,omitempty"`
}

// String renders the one-line summary printed by -progress.
func (p RunnerProfile) String() string {
	s := fmt.Sprintf("workers=%d points=%d simulated=%d cache_hits=%d sim_wall=%.2fs batch_wall=%.2fs occupancy=%.0f%%",
		p.Workers, p.Points, p.Simulated, p.CacheHits,
		p.SimWallSeconds, p.BatchWallSeconds, p.Occupancy*100)
	if len(p.Slowest) > 0 {
		s += fmt.Sprintf(" slowest=%s (%.2fs)", p.Slowest[0].Point, p.Slowest[0].Seconds)
	}
	return s
}

// PointCounters pairs one grid point's identity with its counters in
// the -counters export.
type PointCounters struct {
	// Workload is the application name.
	Workload string `json:"workload"`
	// Config is the human-readable configuration name.
	Config string `json:"config"`
	// SimKey is the canonical simulation key (sim.Config.SimKey plus
	// workload and scale) identifying the memoized run.
	SimKey string `json:"sim_key"`
	// Counters is the run's observability snapshot.
	Counters *Counters `json:"counters"`
	// Energy is the exact per-GPM/per-term/per-link decomposition of the
	// point's model energy, when the exporting CLI can price the point.
	Energy *EnergyAttribution `json:"energy,omitempty"`
	// OperatingPoint records the DVFS operating point and governor
	// decision behind the run. nil for nominal fixed-clock runs, so
	// pre-DVFS exports are byte-identical.
	OperatingPoint *OperatingPointInfo `json:"operating_point,omitempty"`
}

// OperatingPointInfo is the additive (v2-compatible) DVFS section of a
// point record: which clock/voltage the point ran at and, when a
// governor chose it, which policy and why.
type OperatingPointInfo struct {
	// FreqMHz is the core clock in MHz.
	FreqMHz float64 `json:"freq_mhz"`
	// VoltageV is the supply voltage in volts.
	VoltageV float64 `json:"voltage_v,omitempty"`
	// Governor names the policy that chose the point ("fixed",
	// "sweetspot", "racetoidle", "pacetofinish"); empty when the point
	// was pinned by hand.
	Governor string `json:"governor,omitempty"`
	// Reason is the governor's one-line rationale.
	Reason string `json:"reason,omitempty"`
}

// Report is the top-level -counters JSON document.
type Report struct {
	// SchemaVersion is the obs JSON schema version.
	SchemaVersion int `json:"schema_version"`
	// Profile is the run engine's execution profile, when available.
	Profile *RunnerProfile `json:"runner_profile,omitempty"`
	// Points holds one entry per grid point, in grid order. Points that
	// collapse to one memoized simulation repeat the shared counters.
	Points []PointCounters `json:"points"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.SchemaVersion == 0 {
		r.SchemaVersion = SchemaVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path atomically: the JSON is written
// to a temporary file in the same directory and renamed into place, so
// a reader (or a crash) never observes a partial export and a failed
// write leaves any previous file untouched.
func (r *Report) WriteFile(path string) error {
	return WriteFileAtomic(path, r.WriteJSON)
}

// WriteFileAtomic streams write into a temp file next to path and
// renames it over path on success; on any failure the temp file is
// removed and path is left as it was. It is the shared commit
// discipline of every artifact this repository persists — counter
// reports, Chrome traces, and the gpujouled result cache — so a crash
// or a concurrent reader never observes a torn file.
//
// A path ending in ".gz" is gzip-compressed transparently: write
// receives the compression writer, and the commit happens only after
// the gzip stream is flushed and closed, so a ".gz" artifact on disk is
// always a complete, valid stream. Every reader in this repository
// sniffs the gzip magic bytes rather than trusting the extension (see
// OpenAuto), so compressed and plain artifacts are interchangeable.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(stage string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("obs: %s %s: %w", stage, path, err)
	}
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		if err := write(gz); err != nil {
			return fail("writing", err)
		}
		if err := gz.Close(); err != nil {
			return fail("compressing", err)
		}
	} else if err := write(f); err != nil {
		return fail("writing", err)
	}
	if err := f.Close(); err != nil {
		return fail("closing", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: committing %s: %w", path, err)
	}
	return nil
}
