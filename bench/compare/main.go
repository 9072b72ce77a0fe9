// Command compare judges a change against its parent from benchmark
// runs of both. It prints one row per (workload, end-to-end metric) with
// each side's median and quartiles, how many pairs the change won, and a
// verdict:
//
//   - improved: the change won at least 9 in 10 pairs, and its median
//     beats the parent's by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound;
//   - unchanged: none of these.
//
// It also prints bench.trace_overhead_pct for each side: how much slower
// the median op ran traced than untraced, over the seeds run both ways.
//
// Usage, from the repository root:
//
//	(cd bench && go run ./compare -spec ../BENCHMARK.json PARENT_DIR CHANGE_DIR)
//
// Each directory holds one file per run, named <workload>.<seed>.json for
// an untraced run and <workload>.<seed>.trace.json for a traced one,
// holding the benchmark's output (its last line is the JSON summary).
// Every workload needs at least ten seeds run on both sides, the two
// sides run alternately. The exit status is 1 when a metric regressed or
// a change run failed its output checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// minPairs is the fewest (parent, change) run pairs a verdict rests on.
const minPairs = 10

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// summary is the benchmark's JSON output line.
type summary struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runKey names one run: a workload at a seed, traced or not.
type runKey struct {
	workload string
	seed     int64
	traced   bool
}

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	bad, err := run(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

// run compares the two directories and reports whether the change
// regressed or failed.
func run(w io.Writer, specPath, parentDir, changeDir string) (bad bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, wl := range workloads(parent) {
		var seeds []int64
		for k := range parent {
			if k.workload == wl && !k.traced {
				if _, ok := change[k]; ok {
					seeds = append(seeds, k.seed)
				}
			}
		}
		slices.Sort(seeds)
		if len(seeds) < minPairs {
			return false, fmt.Errorf("%s: %d seeds run on both sides, want at least %d", wl, len(seeds), minPairs)
		}
		for _, s := range seeds {
			c := change[runKey{wl, s, false}]
			if !c.Correct {
				bad = true
				fmt.Fprintf(tw, "%s\t(seed %d)\t\t\t\tchange failed its output checks (%d ops)\n", wl, s, c.Failed)
			}
		}
		for _, m := range spec.EndToEnd {
			var p, c []float64
			for _, s := range seeds {
				p = append(p, parent[runKey{wl, s, false}].Metrics[m.Name].Value)
				c = append(c, change[runKey{wl, s, false}].Metrics[m.Name].Value)
			}
			v := judge(m, p, c)
			if v.verdict == "regressed" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%s\t%s\t%d/%d\t%s\n", wl, m.Name, m.Unit,
				describe(v.parent), describe(v.change), v.wins, len(seeds), v.verdict)
		}
		for _, side := range []struct {
			name string
			runs map[runKey]summary
		}{{"parent", parent}, {"change", change}} {
			if pct, n := traceOverhead(side.runs, wl); n > 0 {
				fmt.Fprintf(tw, "%s\tbench.trace_overhead_pct (%%)\t\t\t\t%s: %.2f over %d seeds\n", wl, side.name, pct, n)
			}
		}
	}
	return bad, tw.Flush()
}

// loadRuns reads every run file in dir.
func loadRuns(dir string) (map[runKey]summary, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[runKey]summary{}
	for _, f := range files {
		key, err := parseName(filepath.Base(f))
		if err != nil {
			return nil, err
		}
		sum, err := readSummary(f)
		if err != nil {
			return nil, err
		}
		runs[key] = sum
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run files", dir)
	}
	return runs, nil
}

// parseName splits <workload>.<seed>[.trace].json.
func parseName(base string) (runKey, error) {
	parts := strings.Split(strings.TrimSuffix(base, ".json"), ".")
	k := runKey{traced: len(parts) == 3 && parts[2] == "trace"}
	if len(parts) != 2 && !k.traced {
		return k, fmt.Errorf("%s: want <workload>.<seed>.json or <workload>.<seed>.trace.json", base)
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return k, fmt.Errorf("%s: seed: %w", base, err)
	}
	k.workload, k.seed = parts[0], seed
	return k, nil
}

// readSummary parses the last non-empty line of a run's output.
func readSummary(path string) (summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return summary{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		return summary{}, fmt.Errorf("%s: last line is not a summary: %w", path, err)
	}
	return sum, nil
}

func workloads(runs map[runKey]summary) []string {
	var out []string
	for k := range runs {
		if !slices.Contains(out, k.workload) {
			out = append(out, k.workload)
		}
	}
	slices.Sort(out)
	return out
}

// spread is one side's distribution of a metric.
type spread struct{ median, q1, q3 float64 }

func describe(s spread) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.median, s.q1, s.q3)
}

// verdict is the judgement on one (workload, metric).
type verdict struct {
	parent, change spread
	wins           int
	verdict        string
}

// judge compares paired runs of one metric; p[i] and c[i] share a seed.
func judge(m metricSpec, p, c []float64) verdict {
	better := func(a, b float64) bool { return a < b }
	if m.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
	}
	v := verdict{parent: spreadOf(p), change: spreadOf(c)}
	for i := range p {
		if better(c[i], p[i]) {
			v.wins++
		}
	}
	pm, cm := v.parent.median, v.change.median
	worse := cm > pm*(1+m.Bound)
	if m.Better == "higher" {
		worse = cm < pm*(1-m.Bound)
	}
	switch {
	case 10*v.wins >= 9*len(p) && better(cm, pm) && math.Abs(cm-pm) > v.parent.q3-v.parent.q1:
		v.verdict = "improved"
	case worse:
		v.verdict = "regressed"
	case relIQR(v.parent) > m.Bound || relIQR(v.change) > m.Bound:
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

func relIQR(s spread) float64 {
	if s.median == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// spreadOf returns the median and quartiles of xs, the quartiles by the
// same rule as Python's statistics.quantiles(xs, n=4).
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return spread{mid, mid, mid}
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return spread{mid, q(1), q(3)}
}

// traceOverhead is the median, over seeds run both traced and untraced,
// of how much slower the median op ran traced, in percent.
func traceOverhead(runs map[runKey]summary, wl string) (pct float64, n int) {
	var xs []float64
	for k, traced := range runs {
		if k.workload != wl || !k.traced {
			continue
		}
		plain, ok := runs[runKey{wl, k.seed, false}]
		if !ok {
			continue
		}
		t, u := traced.Metrics["bench.traced_op_p50_ms"].Value, plain.Metrics["op_p50_ms"].Value
		if u > 0 {
			xs = append(xs, (t/u-1)*100)
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return spreadOf(xs).median, len(xs)
}
