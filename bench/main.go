// Command bench is the repository benchmark. It runs one workload in one
// process for a fixed time, checks that the program's outputs are
// correct, and prints every metric as "name value unit" followed by a
// one-line JSON summary:
//
//	bash bench/run.sh --workload sweep_warm --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it records a span around every call it makes into the
// program, reports per-layer metrics instead of end-to-end ones, and
// writes the spans as a Chrome trace_event file. It sees each layer only
// through the layer's public API. README.md describes the workloads, the
// metrics and the A/B procedure.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool
	workDir  string // scratch files and traces go here
	sizes
}

// sizes are the workload dimensions. The benchmark always runs at
// fullSizes; the smoke test shrinks them so every workload takes a
// moment.
type sizes struct {
	reportScale float64 // paper_report harness scale
	pointScale  float64 // single_point application scale
	coldScale   float64 // sweep_cold job scale
	warmScale   float64 // sweep_warm prefill and job scale
	maxOps      int     // stop after this many ops; 0 leaves only the time budget
}

var fullSizes = sizes{reportScale: 0.05, pointScale: 0.5, coldScale: 0.1, warmScale: 0.05}

// benchWorkloads maps each workload to the function that sets it up,
// runs its timed phase and, when traced, measures its layers.
var benchWorkloads = map[string]func(context.Context, *run) error{
	"paper_report": paperReport,
	"single_point": singlePoint,
	"sweep_cold":   sweepCold,
	"sweep_warm":   sweepWarm,
}

func workloadNames() []string { return sortedKeys(benchWorkloads) }

func parseConfig(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := config{sizes: fullSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := benchWorkloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	sum, err := execute(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !sum.Correct {
		os.Exit(1)
	}
}

// value is one metric as printed in the summary.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	cfg     config
	tr      *tracer // nil unless traced
	scratch string  // removed when the run ends

	setup []time.Duration // one entry per set-up repetition
	wall  time.Duration   // length of the timed phase
	// timed are the spans of the timed phase; per-layer self times come
	// from them alone, not from the probes that follow.
	timed []span
	layer map[string]float64 // per-layer metrics of a traced run
	notes []string           // extra lines printed before the summary

	mu        sync.Mutex
	ops       []time.Duration // latency of every op that returned
	attempted int
	failures  map[int]string // why each failed op failed, by op index
}

// record notes one finished op: its latency, or why it failed.
func (r *run) record(i int, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures[i] = err.Error()
		return
	}
	r.ops = append(r.ops, lat)
}

// fail marks op i failed after the fact (an output check caught it).
func (r *run) fail(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.failures[i]; !ok {
		r.failures[i] = err.Error()
	}
}

// dispenser starts the timed phase and hands out op indices until its
// time budget is spent.
func (r *run) dispenser(unit, limit int) *dispenser {
	if r.cfg.maxOps > 0 && (limit == 0 || r.cfg.maxOps < limit) {
		limit = r.cfg.maxOps
	}
	return &dispenser{
		start:  time.Now(),
		budget: time.Duration(r.cfg.seconds * float64(time.Second)),
		unit:   unit,
		limit:  limit,
	}
}

// endTimed closes the timed phase that d started.
func (r *run) endTimed(d *dispenser) {
	r.wall = time.Since(d.start)
	if r.tr != nil {
		r.timed = r.tr.snapshot()
	}
}

// dispenser hands out op indices. Ops come in units of `unit` consecutive
// indices (a balanced round of inputs); a unit starts only while the
// average unit so far still fits in the budget, so every unit runs whole
// and the phase ends near its budget instead of an op past it.
type dispenser struct {
	start  time.Time
	budget time.Duration
	unit   int
	limit  int // ops available; 0 means no limit

	mu   sync.Mutex
	next int
	done bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.done && d.limit > 0 && d.next >= d.limit {
		d.done = true
	}
	if !d.done && d.next > 0 && d.next%d.unit == 0 {
		units := time.Duration(d.next / d.unit)
		elapsed := time.Since(d.start)
		d.done = elapsed+elapsed/units > d.budget
	}
	if d.done {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// execute runs one workload and prints its metrics to w.
func execute(ctx context.Context, cfg config, w io.Writer) (summary, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return summary{}, err
	}
	scratch, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return summary{}, err
	}
	defer os.RemoveAll(scratch)
	r := &run{cfg: cfg, scratch: scratch, failures: map[int]string{}}
	if cfg.trace {
		r.tr = newTracer()
		r.layer = map[string]float64{}
		for _, m := range perLayer {
			r.layer[m.name] = 0
		}
	}
	if err := benchWorkloads[cfg.workload](ctx, r); err != nil {
		return summary{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.tr != nil {
		if err := r.finishTrace(); err != nil {
			return summary{}, err
		}
	}
	sum, err := r.summarize()
	if err != nil {
		return summary{}, err
	}
	return sum, printSummary(w, sum, r.notes)
}

// finishTrace writes the Chrome trace file and the timed phase's
// per-layer self times. A span left open fails the run.
func (r *run) finishTrace() error {
	spans := r.tr.snapshot()
	if err := openSpans(spans); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.notes = append(r.notes, "# trace: "+path)
	self := selfTimes(r.timed)
	for _, l := range []string{"bench", "harness", "service", "sim"} {
		r.layer[l+".self_s"] = self[l].Seconds()
	}
	for _, l := range sortedKeys(self) {
		r.notes = append(r.notes, fmt.Sprintf("# self time %s %.6f s", l, self[l].Seconds()))
	}
	return nil
}

// summarize assembles the summary for the run's mode. Every declared
// metric must be present: a missing one is an error, not a zero.
func (r *run) summarize() (summary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := summary{
		Correct:   len(r.failures) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   map[string]value{},
	}
	for _, i := range sortedKeys(r.failures) {
		if len(r.notes) < 20 {
			r.notes = append(r.notes, fmt.Sprintf("# op %d failed: %s", i, r.failures[i]))
		}
	}
	vals := r.layer
	defs := perLayer
	if r.tr == nil {
		vals = r.endToEnd()
		defs = endToEnd
	}
	var missing []string
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		sum.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return sum, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return sum, nil
}

// endToEnd computes the end-to-end metrics of an untraced run. Caller
// holds r.mu.
func (r *run) endToEnd() map[string]float64 {
	lat := millis(r.ops)
	if p, v, ok := tail(lat); ok {
		r.notes = append(r.notes, fmt.Sprintf("# op_p%g_ms %.4f ms (%d ops)", p, v, len(lat)))
	}
	return map[string]float64{
		"setup_s":     median(seconds(r.setup)),
		"op_p50_ms":   median(lat),
		"ops_per_s":   ratio(float64(len(r.ops)), r.wall.Seconds()),
		"peak_rss_mb": peakRSSMB(),
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printSummary(w io.Writer, sum summary, notes []string) error {
	for _, n := range sortedKeys(sum.Metrics) {
		fmt.Fprintf(w, "%s %v %s\n", n, sum.Metrics[n].Value, sum.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d\n", sum.Attempted, sum.Failed)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
