package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython: the quartiles are Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want spread
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, spread{5.5, 2.75, 8.25}},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, spread{4, 1.5, 12}},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{3, 5}, spread{4, 2.5, 5.5}},
	} {
		if got := spreadOf(c.xs); got != c.want {
			t.Errorf("spreadOf(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 65, 135, 100, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		p, c []float64
		want string
	}{
		{"faster on every pair", lower, steady, shift(steady, 0.9), "improved"},
		{"same runs", lower, steady, steady, "unchanged"},
		{"slower past the bound", lower, steady, shift(steady, 1.2), "regressed"},
		{"slower within the bound", lower, steady, shift(steady, 1.05), "unchanged"},
		{"throughput fell past the bound", higher, steady, shift(steady, 0.8), "regressed"},
		{"throughput rose on every pair", higher, steady, shift(steady, 1.1), "improved"},
		{"spread wider than the bound", lower, steady, noisy, "unresolved"},
	} {
		if got := judge(c.m, c.p, c.c).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRun compares two directories of run files end to end.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	must(t, os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644))
	parent, change := filepath.Join(dir, "parent"), filepath.Join(dir, "change")
	must(t, os.Mkdir(parent, 0o755))
	must(t, os.Mkdir(change, 0o755))
	line := func(key string, v float64) string {
		return fmt.Sprintf("op_p50_ms %g ms\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{%q:{\"value\":%g,\"unit\":\"ms\"}}}\n", v, key, v)
	}
	for seed := 1; seed <= 10; seed++ {
		v := 100 + float64(seed%3)
		must(t, os.WriteFile(filepath.Join(parent, fmt.Sprintf("sweep_cold.%d.json", seed)), []byte(line("op_p50_ms", v)), 0o644))
		must(t, os.WriteFile(filepath.Join(change, fmt.Sprintf("sweep_cold.%d.json", seed)), []byte(line("op_p50_ms", v*1.3)), 0o644))
		must(t, os.WriteFile(filepath.Join(change, fmt.Sprintf("sweep_cold.%d.trace.json", seed)), []byte(line("bench.traced_op_p50_ms", v*1.3*1.02)), 0o644))
	}
	var out bytes.Buffer
	bad, err := run(&out, spec, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if !bad || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 30%% slowdown was not reported as a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "change: 2.00 over 10 seeds") {
		t.Errorf("trace overhead missing:\n%s", out.String())
	}
	// Nine seeds are too few to judge.
	must(t, os.Remove(filepath.Join(change, "sweep_cold.10.json")))
	if _, err := run(&out, spec, parent, change); err == nil {
		t.Error("nine pairs were judged; want a refusal")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
