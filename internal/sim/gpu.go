package sim

import (
	"context"
	"fmt"
	"math"

	"gpujoule/internal/interconnect"
	"gpujoule/internal/isa"
	"gpujoule/internal/memsys"
	"gpujoule/internal/obs"
	"gpujoule/internal/trace"
)

// GPU is one simulated multi-module GPU instance. A GPU is built per
// application run; page homes and caches persist across the app's
// kernel launches but not across apps.
type GPU struct {
	cfg    Config
	fabric interconnect.Fabric // nil when a single module or monolithic
	pages  *memsys.PageTable
	gpms   []*gpmState

	// regionBase[i] is the base address of app region i.
	regionBase []uint64
	// regionLines[i] is the region size in cache lines.
	regionLines []uint64

	app  *trace.App
	time float64 // global clock in cycles, advances across launches

	// progs memoizes the predigested body of each kernel, so repeated
	// launches of the same kernel (the common case: Launch.Count > 1)
	// build it once.
	progs map[*trace.Kernel]*launchProg

	res *Result

	// col is the opt-in observability collector; nil when counters are
	// disabled, and every update below is guarded by that nil check so
	// the disabled path is untouched.
	col *obs.Collector

	// memSideFill is the hoisted L1-miss routing predicate
	// (cfg.L2 == L2MemorySide && len(gpms) > 1), evaluated once instead
	// of per miss.
	memSideFill bool

	// par is the requested per-GPM lane count (WithGPMParallel).
	par int

	// Clock-domain conversions (see Config.clockScale): the DRAM access
	// latency and inter-GPM hop latency are fixed in wall time, so in
	// core cycles they scale with the clock, as does the host-side
	// inter-launch gap. At the nominal clock all three equal the
	// historical constants exactly.
	clkScale float64
	latDRAM  float64
	hopLat   float64
}

// gpmShard is one GPM's slice of the launch-wide counters. Every
// counter a GPM touches on its own behalf accumulates here and is
// merged into the launch engine and Result in ascending GPM order at
// launch end. All fields merge exactly commutatively (integer adds and
// a float max), so the merged totals are bit-identical whether the
// GPMs ran sequentially or on parallel lanes.
type gpmShard struct {
	counts      isa.Counts // Inst/WarpInst/Txn only; time fields stay zero
	l1Accesses  uint64
	l1Misses    uint64
	l2Accesses  uint64
	l2Misses    uint64
	localFills  uint64
	remoteFills uint64
	end         float64 // max retire time seen by this GPM's SMs
	activeWarps int
}

// gpmState is one GPU module: its SMs, module-side L2, local DRAM
// stack, and CTA work queue for the current launch.
type gpmState struct {
	id   int
	l2   *memsys.Cache
	l2bw *memsys.BWResource
	dram *memsys.BWResource
	sms  []*smState

	// CTA queue for the current launch: ids ctaNext, ctaNext+ctaStride,
	// ... strictly below ctaEnd.
	ctaNext, ctaEnd, ctaStride int

	// shard accumulates this GPM's counter updates for the current
	// launch (see gpmShard).
	shard gpmShard

	// issueCnt[i] counts issues of body instruction i during the current
	// launch, across the GPM's SMs. The per-op instruction counters,
	// thread-instruction counters, and the per-execution-constant
	// transaction counters (TxnL1ToRF, TxnShmToRF, L1 accesses) are all
	// exact functions of these counts, so the issue path pays one
	// increment into this small array and runLaunch folds the per-op
	// totals into the shard once per launch. Lives outside gpmShard so
	// the backing array survives the per-launch shard reset. Only the
	// Collector's counters (sampled mid-launch by MaybeSample) must stay
	// incrementally updated; they are, behind the col != nil branch.
	issueCnt []uint64

	// gate is non-nil while the GPM runs on a parallel lane and has not
	// yet taken its shared-state turn in the current epoch; nil in
	// sequential mode, so the hot-path check is one predictable branch.
	gate *turnstile

	// l2HasRemote records whether the module-side L2 filled a
	// remotely-homed line since the last boundary invalidation. Remote
	// lines enter this L2 only on the remote-fill path (the L2 allocates
	// on every miss, and the home decides local vs remote right there),
	// so while the flag is false the boundary InvalidateIf would find
	// nothing to drop and is skipped — a pure no-op elision, since an
	// InvalidateIf that invalidates nothing rewrites every set
	// unchanged.
	l2HasRemote bool
}

// ensureTurn blocks until every lower-numbered GPM has finished the
// current epoch, establishing the sequential GPM-major order for the
// shared-state operation the caller is about to perform. No-op in
// sequential mode and after the first shared op of the epoch.
func (g *gpmState) ensureTurn() {
	if ts := g.gate; ts != nil {
		ts.waitBelow(g.id)
		g.gate = nil
	}
}

// takeCTA pops the next CTA id from the module's queue, or returns
// false when the queue is empty.
func (g *gpmState) takeCTA() (int, bool) {
	if g.ctaNext >= g.ctaEnd {
		return 0, false
	}
	id := g.ctaNext
	g.ctaNext += g.ctaStride
	return id, true
}

// pending reports how many CTAs remain queued.
func (g *gpmState) pending() int {
	if g.ctaNext >= g.ctaEnd {
		return 0
	}
	return (g.ctaEnd - g.ctaNext + g.ctaStride - 1) / g.ctaStride
}

// newGPU builds a GPU for the given configuration and application. The
// application is validated; region layout and pre-placed (striped)
// pages are established up front.
func newGPU(cfg Config, app *trace.App, o simOptions) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}

	// A monolithic configuration fuses the modules into one.
	phys := cfg
	if cfg.Monolithic {
		phys.SMsPerGPM = cfg.GPMs * cfg.SMsPerGPM
		phys.L2PerGPMBytes = cfg.GPMs * cfg.L2PerGPMBytes
		phys.DRAMBytesPerCycle = float64(cfg.GPMs) * cfg.DRAMBytesPerCycle
		phys.GPMs = 1
	}

	g := &GPU{
		cfg:      cfg,
		pages:    memsys.NewPageTable(phys.GPMs),
		app:      app,
		clkScale: cfg.clockScale(),
	}
	g.latDRAM = latDRAM * g.clkScale
	g.hopLat = interconnect.HopLatency * g.clkScale

	// Region layout: page-aligned, disjoint, deterministic. The layout
	// is contiguous from layoutBase, so the page table serves the whole
	// range from its dense backing (Reserve) and Home lookups on the
	// miss paths are array indexes rather than map probes.
	const layoutBase = uint64(16 * 1024 * 1024)
	var totalPages uint64
	for _, r := range app.Regions {
		totalPages += (r.Bytes + memsys.PageBytes - 1) / memsys.PageBytes
	}
	g.pages.Reserve(layoutBase, totalPages*memsys.PageBytes)

	base := layoutBase
	g.regionBase = make([]uint64, len(app.Regions))
	g.regionLines = make([]uint64, len(app.Regions))
	for i, r := range app.Regions {
		g.regionBase[i] = base
		lines := r.Bytes / isa.LineBytes
		if lines == 0 {
			lines = 1
		}
		g.regionLines[i] = lines
		pages := (r.Bytes + memsys.PageBytes - 1) / memsys.PageBytes
		if r.Home == trace.HomeStriped || cfg.ForceStripedPages {
			g.pages.Stripe(base, r.Bytes)
		}
		base += pages * memsys.PageBytes
	}

	if phys.GPMs > 1 {
		g.fabric = interconnect.NewAtClock(cfg.Topology, phys.GPMs, cfg.InterGPMBytesPerCycle(), g.clkScale)
	}

	for i := 0; i < phys.GPMs; i++ {
		l2, err := memsys.NewCache(phys.L2PerGPMBytes, 16)
		if err != nil {
			return nil, fmt.Errorf("sim: building L2 for GPM %d: %w", i, err)
		}
		gpm := &gpmState{
			id:   i,
			l2:   l2,
			l2bw: memsys.NewBWResource(fmt.Sprintf("l2[%d]", i), 2*phys.DRAMBytesPerCycle),
			dram: memsys.NewBWResource(fmt.Sprintf("dram[%d]", i), phys.DRAMBytesPerCycle/g.clkScale),
		}
		for s := 0; s < phys.SMsPerGPM; s++ {
			l1, err := memsys.NewCache(phys.L1PerSMBytes, 4)
			if err != nil {
				return nil, fmt.Errorf("sim: building L1 for GPM %d SM %d: %w", i, s, err)
			}
			gpm.sms = append(gpm.sms, &smState{gpm: gpm, shard: &gpm.shard, l1: l1})
		}
		g.gpms = append(g.gpms, gpm)
	}

	g.memSideFill = cfg.L2 == L2MemorySide && len(g.gpms) > 1
	g.par = o.gpmParallel

	g.res = &Result{App: app.Name, Config: cfg}
	if o.counters {
		g.col = obs.NewCollector(phys.GPMs, o.sampleInterval)
		if o.trace {
			g.enableTrace()
		}
	}
	return g, nil
}

// enableTrace switches the collector into trace mode, wiring the
// per-sample fabric link-busy snapshot (nil for fabric-less designs).
func (g *GPU) enableTrace() {
	var names []string
	var busy func() []float64
	if g.fabric != nil {
		for _, ls := range g.fabric.LinkStats() {
			names = append(names, ls.Name)
		}
		busy = func() []float64 {
			stats := g.fabric.LinkStats()
			out := make([]float64, len(stats))
			for i := range stats {
				out[i] = stats[i].BusyCycles
			}
			return out
		}
	}
	g.col.EnableTrace(names, busy)
}

// runAll executes every launch of the application in order, checking
// the context between launches.
func (g *GPU) runAll(ctx context.Context) (*Result, error) {
	for i := range g.app.Launches {
		l := &g.app.Launches[i]
		for rep := 0; rep < l.EffCount(); rep++ {
			if ctx.Err() != nil {
				return nil, cancelled(ctx)
			}
			if err := g.runLaunch(l.Kernel); err != nil {
				return nil, err
			}
		}
	}
	g.res.Counts.Cycles = uint64(math.Ceil(g.time))
	g.res.Counts.SMCount = g.totalSMs()
	g.res.Counts.GPMCount = g.physicalGPMs()
	if g.col != nil {
		g.finishCounters()
	}
	return g.res, nil
}

func (g *GPU) totalSMs() int {
	n := 0
	for _, gpm := range g.gpms {
		n += len(gpm.sms)
	}
	return n
}

// physicalGPMs returns the number of physical modules (1 for the
// hypothetical monolithic die regardless of its capability multiplier).
func (g *GPU) physicalGPMs() int { return len(g.gpms) }

// runLaunch simulates one kernel launch.
func (g *GPU) runLaunch(k *trace.Kernel) error {
	start := g.time

	// Software coherence at kernel boundaries (§V-A1): private L1s are
	// invalidated, and module-side L2s drop remotely-homed lines.
	for _, gpm := range g.gpms {
		for _, sm := range gpm.sms {
			sm.l1.Invalidate()
		}
		// Memory-side L2s hold the only cached copy of their home's
		// data and need no boundary invalidation; module-side L2s drop
		// remotely-homed lines — skipped when no remote line was filled
		// since the last invalidation (see gpmState.l2HasRemote).
		if len(g.gpms) > 1 && g.cfg.L2 == L2ModuleSide && gpm.l2HasRemote {
			id := gpm.id
			gpm.l2.InvalidateIf(func(addr uint64) bool {
				home, ok := g.pages.Lookup(addr)
				return ok && home != id
			})
			gpm.l2HasRemote = false
		}
	}

	// Distributed CTA scheduling (§V-A1): contiguous CTA blocks per
	// GPM by default, so that first-touch placement aligns data with
	// compute; the round-robin ablation interleaves instead.
	n := len(g.gpms)
	for i, gpm := range g.gpms {
		if g.cfg.CTASchedule == ScheduleRoundRobin {
			gpm.ctaNext = i
			gpm.ctaEnd = k.Grid
			gpm.ctaStride = n
		} else {
			gpm.ctaNext = k.Grid * i / n
			gpm.ctaEnd = k.Grid * (i + 1) / n
			gpm.ctaStride = 1
		}
	}

	prog := g.progs[k]
	if prog == nil {
		prog = g.buildProg(k)
		if g.progs == nil {
			g.progs = make(map[*trace.Kernel]*launchProg)
		}
		g.progs[k] = prog
	}

	eng := &launchEngine{
		gpu:    g,
		kernel: k,
		prog:   prog,
		start:  start,
		end:    start,
	}
	for _, gpm := range g.gpms {
		gpm.shard = gpmShard{}
		if cap(gpm.issueCnt) < len(prog.body) {
			gpm.issueCnt = make([]uint64, len(prog.body))
		} else {
			gpm.issueCnt = gpm.issueCnt[:len(prog.body)]
			clear(gpm.issueCnt)
		}
		for _, sm := range gpm.sms {
			sm.issueCnt = gpm.issueCnt
			sm.prog = prog
			sm.col = g.col
			sm.beginLaunch(start)
			sm.refill(eng)
		}
	}

	if err := g.runEpochs(eng, k, start); err != nil {
		return err
	}

	// Merge the per-GPM shards in ascending GPM order. Every field is
	// an integer add or a float max, so the totals are bit-identical to
	// the unsharded accumulation regardless of lane count. The per-op
	// counters are first folded in from the per-body-index issue counts
	// (see gpmState.issueCnt) — exact integer arithmetic, so the totals
	// equal the historical per-issue accumulation.
	for _, gpm := range g.gpms {
		sh := &gpm.shard
		for i, cnt := range gpm.issueCnt {
			if cnt == 0 {
				continue
			}
			rec := &prog.body[i]
			sh.counts.WarpInst[rec.op] += cnt
			sh.counts.Inst[rec.op] += cnt * rec.active
			switch rec.kind {
			case recGlobal:
				lines := cnt * uint64(rec.mem.lines)
				sh.counts.Txn[isa.TxnL1ToRF] += lines
				sh.l1Accesses += lines
			case recShared:
				sh.counts.Txn[isa.TxnShmToRF] += cnt
			}
		}
		eng.counts.Add(&sh.counts)
		if sh.end > eng.end {
			eng.end = sh.end
		}
		g.res.L1Accesses += sh.l1Accesses
		g.res.L1Misses += sh.l1Misses
		g.res.L2Accesses += sh.l2Accesses
		g.res.L2Misses += sh.l2Misses
		g.res.LocalLineFills += sh.localFills
		g.res.RemoteLineFills += sh.remoteFills
	}

	dur := eng.end - start
	if dur < 0 {
		dur = 0
	}

	// Lane-stall accounting: every SM-cycle inside the launch window
	// that did not issue an instruction is a stall (this covers both
	// latency stalls and whole-GPM idling on remote memory, the effect
	// §V-B identifies as the dominant energy problem).
	var busy float64
	for _, gpm := range g.gpms {
		for _, sm := range gpm.sms {
			busy += sm.busy
		}
	}
	if g.col != nil {
		// Per-GPM attribution of the same accounting. Kept separate
		// from the aggregate sum above so the aggregate's float
		// summation order (and therefore the disabled-path output)
		// is bit-identical with counters on or off.
		var phases []obs.TraceGPMPhase
		if g.col.TraceEnabled() {
			phases = make([]obs.TraceGPMPhase, 0, len(g.gpms))
		}
		for _, gpm := range g.gpms {
			var busyGPM float64
			for _, sm := range gpm.sms {
				busyGPM += sm.busy
			}
			stallGPM := dur*float64(len(gpm.sms)) - busyGPM
			if stallGPM < 0 {
				stallGPM = 0
			}
			gc := &g.col.GPMs[gpm.id]
			gc.BusyCycles += busyGPM
			gc.StallCycles += stallGPM
			if phases != nil {
				phases = append(phases, obs.TraceGPMPhase{
					GPM:         gpm.id,
					BusyCycles:  busyGPM,
					StallCycles: stallGPM,
				})
			}
		}
		if phases != nil {
			g.col.RecordLaunch(k.Name, start, eng.end, phases)
		}
	}
	totalSMCycles := dur * float64(g.totalSMs())
	stalls := totalSMCycles - busy
	if stalls < 0 {
		stalls = 0
	}

	eng.counts.StallCycles = uint64(stalls)
	eng.counts.Cycles = uint64(math.Ceil(dur))
	eng.counts.SMCount = g.totalSMs()
	eng.counts.GPMCount = g.physicalGPMs()

	g.res.Launches = append(g.res.Launches, LaunchStats{
		Kernel: k.Name,
		Start:  start,
		End:    eng.end,
		Counts: eng.counts,
	})
	g.res.Counts.Add(&eng.counts)

	gap := g.app.HostGapCycles
	if gap <= 0 {
		gap = hostGapCycles
	}
	g.time = eng.end + gap*g.clkScale
	return nil
}

// runEpochs drives the launch's epoch loop. With more than one lane
// requested (WithGPMParallel, clamped to the GPM count) the per-GPM
// work of each epoch runs on parallel lanes with shared-state order
// preserved by a turnstile; otherwise the historical sequential loop
// runs with zero added synchronization. Both paths produce
// bit-identical results (see DESIGN.md "Performance engineering").
func (g *GPU) runEpochs(eng *launchEngine, k *trace.Kernel, start float64) error {
	if lanes := min(g.par, len(g.gpms)); lanes > 1 {
		return g.runEpochsParallel(eng, k, start, lanes)
	}

	epoch := g.cfg.epoch()
	for until := start + epoch; g.liveWarps() > 0 || g.pendingCTAs() > 0; until += epoch {
		progressed := false
		for _, gpm := range g.gpms {
			for _, sm := range gpm.sms {
				p, err := sm.advance(until, eng)
				if err != nil {
					return err
				}
				if p {
					progressed = true
				}
			}
		}
		var err error
		until, err = g.epochBarrier(eng, k, until, epoch, progressed)
		if err != nil {
			return err
		}
	}
	return nil
}

// epochBarrier is the end-of-epoch bookkeeping shared by the
// sequential and parallel drivers: fast-forward across empty epochs
// (or fail a fully-deadlocked kernel) and feed the sampler. It returns
// the possibly fast-forwarded epoch end.
func (g *GPU) epochBarrier(eng *launchEngine, k *trace.Kernel, until, epoch float64, progressed bool) (float64, error) {
	if !progressed && g.liveWarps() > 0 {
		// All remaining warps are waiting beyond this epoch; jump
		// the epoch window forward to the earliest ready time to
		// avoid spinning through empty epochs.
		next := eng.earliestReady(g)
		if math.IsInf(next, 1) {
			// Every active warp on every SM is blocked at a
			// barrier: a malformed kernel, not a slow one. Fail the
			// run instead of fast-forwarding to infinity.
			return until, fmt.Errorf("sim: kernel %q: %d active warps all blocked at barriers: %w",
				k.Name, g.liveWarps(), ErrDeadlock)
		}
		if next > until {
			until = next - epoch
		}
	}
	if g.col != nil {
		g.col.MaybeSample(until, g.liveWarps(), g.pendingCTAs())
	}
	return until, nil
}

func (g *GPU) pendingCTAs() int {
	n := 0
	for _, gpm := range g.gpms {
		n += gpm.pending()
	}
	return n
}

// liveWarps sums the per-GPM resident-warp counts. Called only at
// epoch boundaries, where every lane has quiesced.
func (g *GPU) liveWarps() int {
	n := 0
	for _, gpm := range g.gpms {
		n += gpm.shard.activeWarps
	}
	return n
}

// launchEngine carries per-launch mutable state shared by the SMs.
type launchEngine struct {
	gpu        *GPU
	kernel     *trace.Kernel
	prog       *launchProg
	counts     isa.Counts
	start, end float64
}

// earliestReady returns the minimum ready time over all runnable
// warps, used to fast-forward across long idle periods. Each SM's
// ready-queue root is its per-SM minimum, so the global sweep is a min
// over tree roots instead of over every resident warp.
func (eng *launchEngine) earliestReady(g *GPU) float64 {
	min := math.Inf(1)
	for _, gpm := range g.gpms {
		for _, sm := range gpm.sms {
			if sm.rq.len() > 0 {
				if r := sm.rq.rootReadyAt(); r < min {
					min = r
				}
			}
		}
	}
	return min
}

// access simulates one global-memory warp access from an SM in gpm,
// starting at time t and touching the access descriptor's distinct
// cache lines. It returns the completion time (max over lines;
// serialized line-to-line when the access is a pointer chase).
//
// The per-line counter increments of the historical loop are hoisted
// to one add of mr.lines up front (integer adds, so the launch-end
// totals are unchanged), and the address-generation state that does
// not depend on the line index is derived once via mr.seed.
func (g *GPU) access(sm *smState, t float64, mr *memRec, w *warpState, isStore bool) float64 {
	gpm := sm.gpm
	lines := int(mr.lines)
	// L1 accesses and TxnL1ToRF are lines-per-issue constants, recovered
	// from the per-body-index issue counts at launch end (see
	// gpmState.issueCnt); only the misses below are data-dependent.
	sh := sm.shard
	if g.col != nil {
		gc := &g.col.GPMs[gpm.id]
		gc.L1Accesses += uint64(lines)
		gc.Txn[isa.TxnL1ToRF] += uint64(lines)
	}

	seed := mr.seed(w)
	done := t
	lineStart := t
	for l := 0; l < lines; l++ {
		addr := mr.lineAddr(seed, l)
		var lineDone float64
		if sm.l1.Access(addr) {
			lineDone = lineStart + latL1Hit
		} else {
			sh.l1Misses++
			if g.col != nil {
				g.col.GPMs[gpm.id].L1Misses++
			}
			if g.memSideFill {
				lineDone = g.fillMemorySide(gpm, lineStart, addr, isStore)
			} else {
				lineDone = g.fillModuleSide(gpm, lineStart, addr, isStore)
			}
		}

		if lineDone > done {
			done = lineDone
		}
		if mr.chase {
			// Dependent pointer chase: the next line's address depends
			// on this line's data.
			lineStart = lineDone
		}
	}
	return done
}

// fillModuleSide serves an L1 miss through the requesting module's own
// L2 (the paper's multi-module organization, §V-A1): the L2 caches
// local and remote data alike, so only L2 misses to remote homes cross
// the fabric.
//
// The module's own L2 (l2, l2bw) is private to its lane; the first
// genuinely shared touch — the page table's first-touch Home and the
// (possibly remote) DRAM stack — sits behind ensureTurn, so an L2 hit
// never synchronizes.
func (g *GPU) fillModuleSide(gpm *gpmState, t float64, addr uint64, isStore bool) float64 {
	sh := &gpm.shard
	sh.counts.Txn[isa.TxnL2ToL1] += isa.SectorsPerLine
	sh.l2Accesses++
	if g.col != nil {
		gc := &g.col.GPMs[gpm.id]
		gc.L2Accesses++
		gc.Txn[isa.TxnL2ToL1] += isa.SectorsPerLine
	}
	t2 := gpm.l2bw.Acquire(t, isa.LineBytes)
	if gpm.l2.Access(addr) {
		return t2 + latL2Hit
	}
	sh.l2Misses++
	sh.counts.Txn[isa.TxnDRAMToL2] += isa.SectorsPerLine
	if g.col != nil {
		g.col.GPMs[gpm.id].L2Misses++
	}

	gpm.ensureTurn()
	home := 0
	if len(g.gpms) > 1 {
		home = g.pages.Home(addr, gpm.id)
	}
	if g.col != nil {
		// DRAM reads attribute to the home module whose stack served
		// them, matching the DRAMBytes attribution.
		g.col.GPMs[home].Txn[isa.TxnDRAMToL2] += isa.SectorsPerLine
	}
	homeDRAM := g.gpms[home].dram
	if home == gpm.id {
		sh.localFills++
		if g.col != nil {
			g.col.GPMs[gpm.id].LocalFills++
		}
		return homeDRAM.Acquire(t2, isa.LineBytes) + g.latDRAM
	}
	sh.remoteFills++
	gpm.l2HasRemote = true
	if g.col != nil {
		g.col.GPMs[gpm.id].RemoteFills++
	}
	if isStore {
		// Store data travels requester -> home, then is written at the
		// home DRAM.
		tr := g.fabric.Send(t2, gpm.id, home, isa.LineBytes)
		g.chargeFabric(sh, tr)
		return homeDRAM.Acquire(tr.Done, isa.LineBytes) + g.latDRAM
	}
	// The request header rides to the home module (latency only), the
	// line is read from the home DRAM, and the data returns over the
	// fabric, consuming link bandwidth.
	reqLat := float64(g.fabric.Hops(gpm.id, home)) * g.hopLat
	dramDone := homeDRAM.Acquire(t2+reqLat, isa.LineBytes) + g.latDRAM
	tr := g.fabric.Send(dramDone, home, gpm.id, isa.LineBytes)
	g.chargeFabric(sh, tr)
	return tr.Done
}

// fillMemorySide serves an L1 miss with memory-side L2s: the lookup
// happens at the page's home module, so every remote L1 miss crosses
// the fabric regardless of whether the home L2 hits. Everything it
// touches (home L2/L2 bandwidth, DRAM stacks, fabric) is shared across
// modules, so the whole path sits behind ensureTurn.
func (g *GPU) fillMemorySide(gpm *gpmState, t float64, addr uint64, isStore bool) float64 {
	gpm.ensureTurn()
	sh := &gpm.shard
	sh.counts.Txn[isa.TxnL2ToL1] += isa.SectorsPerLine
	home := g.pages.Home(addr, gpm.id)
	homeGPM := g.gpms[home]

	arrive := t
	if home != gpm.id && isStore {
		// Store data travels to the home module first.
		tr := g.fabric.Send(t, gpm.id, home, isa.LineBytes)
		g.chargeFabric(sh, tr)
		arrive = tr.Done
	} else if home != gpm.id {
		// Request header crosses the fabric (latency only).
		arrive = t + float64(g.fabric.Hops(gpm.id, home))*g.hopLat
	}

	sh.l2Accesses++
	if g.col != nil {
		// Memory-side L2s live with their DRAM stack, so L2 counters
		// attribute to the home module; fills keep requester-relative
		// local/remote attribution (the module's NUMA exposure).
		gc := &g.col.GPMs[home]
		gc.L2Accesses++
		gc.Txn[isa.TxnL2ToL1] += isa.SectorsPerLine
	}
	t2 := homeGPM.l2bw.Acquire(arrive, isa.LineBytes)
	var ready float64
	if homeGPM.l2.Access(addr) {
		ready = t2 + latL2Hit
	} else {
		sh.l2Misses++
		sh.counts.Txn[isa.TxnDRAMToL2] += isa.SectorsPerLine
		if g.col != nil {
			gc := &g.col.GPMs[home]
			gc.L2Misses++
			gc.Txn[isa.TxnDRAMToL2] += isa.SectorsPerLine
		}
		if home == gpm.id {
			sh.localFills++
			if g.col != nil {
				g.col.GPMs[gpm.id].LocalFills++
			}
		} else {
			sh.remoteFills++
			if g.col != nil {
				g.col.GPMs[gpm.id].RemoteFills++
			}
		}
		ready = homeGPM.dram.Acquire(t2, isa.LineBytes) + g.latDRAM
	}
	if home == gpm.id || isStore {
		return ready
	}
	// Load data returns to the requester over the fabric.
	tr := g.fabric.Send(ready, home, gpm.id, isa.LineBytes)
	g.chargeFabric(sh, tr)
	return tr.Done
}

// chargeFabric records the energy-relevant transaction counts of one
// fabric transfer against the requesting module's shard.
func (g *GPU) chargeFabric(sh *gpmShard, tr interconnect.Transfer) {
	sh.counts.Txn[isa.TxnInterGPM] += uint64(tr.Hops) * isa.SectorsPerLine
	if tr.Switched {
		sh.counts.Txn[isa.TxnSwitch] += isa.SectorsPerLine
	}
}
