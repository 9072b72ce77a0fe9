package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// toySizes shrink every workload so a whole run takes a moment. maxOps,
// not the time budget, ends the timed phase, so a slow machine still
// runs enough sweep jobs for every tail metric.
var toySizes = sizes{reportScale: 0.005, pointScale: 0.005, coldScale: 0.01, warmScale: 0.005, maxOps: 24}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// runToy runs one workload at toy size through the benchmark's own code
// and returns its summary and printed output.
func runToy(t *testing.T, workload string, seed int64, trace bool) (summary, string) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 60, trace: trace, workDir: t.TempDir(), sizes: toySizes}
	if workload == "paper_report" {
		cfg.seconds = 1 // a toy report still takes seconds; one rep is enough
	}
	var out bytes.Buffer
	sum, err := execute(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", workload, trace, err, out.String())
	}
	return sum, out.String()
}

// TestSmoke runs every workload untraced and traced at toy size: each
// run passes its output checks and prints exactly its mode's metrics,
// every one with a valid name and a unit, and the summary last. The
// paper report takes seconds even at toy size, so -short leaves it out.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		if testing.Short() && w == "paper_report" {
			continue
		}
		for _, trace := range []bool{false, true} {
			start := time.Now()
			sum, out := runToy(t, w, 1, trace)
			t.Logf("%s (trace %v): %v", w, trace, time.Since(start))
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed\n%s", w, trace, sum.Correct, sum.Failed, sum.Attempted, out)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := sum.Metrics[m.name]
				if !ok || !metricName.MatchString(m.name) || v.Unit == "" {
					t.Errorf("%s (trace %v): metric %q = %+v, present %v", w, trace, m.name, v, ok)
				}
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var last summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s (trace %v): last line is not the JSON summary: %v", w, trace, err)
			}
		}
	}
}

// TestSeeds: the seed changes the sweep job lists and the order of the
// single points, and not the paper report, whose markdown matches the
// one pin whatever the seed.
func TestSeeds(t *testing.T) {
	specs := func(seq *jobSeq) []string {
		var out []string
		for i := range 36 {
			b, _ := json.Marshal(seq.at(i).spec)
			out = append(out, string(b))
		}
		return out
	}
	cold1, _ := coldJobs(1, 0.1)
	cold1again, _ := coldJobs(1, 0.1)
	cold2, _ := coldJobs(2, 0.1)
	if !slices.Equal(specs(cold1), specs(cold1again)) {
		t.Error("sweep_cold: one seed gave two job lists")
	}
	if slices.Equal(specs(cold1), specs(cold2)) {
		t.Error("sweep_cold: seeds 1 and 2 gave the same job list")
	}
	if slices.Equal(specs(warmJobs(1, 0.05)), specs(warmJobs(2, 0.05))) {
		t.Error("sweep_warm: seeds 1 and 2 gave the same job list")
	}
	firstOrders := map[string]bool{}
	for seed := range int64(8) {
		firstOrders[fmt.Sprint(pointOrders(seed)())] = true
	}
	if len(firstOrders) < 2 {
		t.Errorf("seeds 0-7 all start single_point in the same order %v", firstOrders)
	}
	if testing.Short() {
		return
	}
	if sum, out := runToy(t, "paper_report", 2, false); !sum.Correct {
		t.Errorf("paper_report at seed 2 differs from the pinned report\n%s", out)
	}
}

// TestColdRoundsDoNotRepeat: within the pool, no sweep_cold point
// repeats, and every round runs each workload once.
func TestColdRoundsDoNotRepeat(t *testing.T) {
	seq, pool := coldJobs(7, 0.1)
	seen := map[string]bool{}
	for i := range pool {
		b, _ := json.Marshal(seq.at(i).spec)
		if seen[string(b)] {
			t.Fatalf("job %d repeats %s", i, b)
		}
		seen[string(b)] = true
	}
	round := map[string]bool{}
	for i := range 18 {
		round[seq.at(18+i).spec.Workloads] = true
	}
	if len(round) != 18 {
		t.Errorf("round 1 ran %d distinct workloads, want 18", len(round))
	}
}

// TestDispenserRunsWholeUnits: once the budget is spent, the unit in
// progress still runs to its end and no new one starts.
func TestDispenserRunsWholeUnits(t *testing.T) {
	d := &dispenser{start: time.Now(), budget: 0, unit: 3}
	var got []int
	for {
		i, ok := d.take()
		if !ok {
			break
		}
		got = append(got, i)
	}
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("took %v, want one whole unit [0 1 2]", got)
	}
	d = &dispenser{start: time.Now(), budget: time.Hour, unit: 1, limit: 4}
	n := 0
	for _, ok := d.take(); ok; _, ok = d.take() {
		n++
	}
	if n != 4 {
		t.Errorf("took %d ops with a limit of 4", n)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []decl, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	largest := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && m.Name != "setup_s" {
			largest = max(largest, *m.Bound)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Bound == nil || *m.Bound < largest) {
			t.Errorf("setup_s must carry the largest bound (others reach %g)", largest)
		}
	}
}
