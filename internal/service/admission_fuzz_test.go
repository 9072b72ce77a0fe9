package service

import (
	"encoding/json"
	"testing"
)

// fuzzMaxPoints and fuzzMaxScale cap what the admission fuzzer expands:
// workload traces grow with scale, and the harness — not the product —
// keeps each input cheap.
const (
	fuzzMaxPoints = 16
	fuzzMaxScale  = 0.1
)

// FuzzJobSpecAdmission fuzzes the one admission path every server —
// node or gateway — takes: an arbitrary request body decoded into a
// JobSpec must never panic Validate, and an explicit-point spec that
// validates must survive the gateway's wire hop (SpecFor, JSON, and
// re-expansion) with the same point keys, in order.
func FuzzJobSpecAdmission(f *testing.F) {
	grid := JobSpec{Workloads: "Stream,Kmeans", Scale: 0.05, GPMs: "1,2", BWs: "1x,2x"}
	pts, err := ExpandPoints(grid)
	if err != nil {
		f.Fatal(err)
	}
	for _, spec := range []JobSpec{
		tinySpec(),
		clientSpec(),
		grid,
		{Workloads: "Stream", Scale: 0.05, GPMs: "1,2", BWs: "1x", Baseline: true, FreqMHz: 800},
		{Workloads: "Kmeans", Scale: 0.05, GPMs: "1,2", BWs: "1x", Priority: 5, TimeoutSeconds: 30},
		{All: true, Scale: 0.05, GPMs: "2", BWs: "2x"},
		SpecFor(grid, pts),
		SpecFor(JobSpec{Scale: 0.05}, pts[:1]),
	} {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"workloads":"Nope","gpms":"0","bw":"9x"}`))
	f.Add([]byte(`{"points":[{"workload":"Stream","scale":0.05,"config":{"gpms":3}}]}`))
	f.Add([]byte(`{"points":[{"workload":"Stream","config":{}}],"scale":0.05}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() != nil || len(spec.Points) == 0 || len(spec.Points) > fuzzMaxPoints {
			return
		}
		for _, p := range spec.Points {
			scale := p.Scale
			if scale <= 0 {
				scale = spec.scale()
			}
			if scale > fuzzMaxScale {
				return
			}
		}
		pts, err := ExpandPoints(spec)
		if err != nil {
			t.Fatalf("validated spec failed to expand: %v", err)
		}
		wire, err := json.Marshal(SpecFor(spec, pts))
		if err != nil {
			t.Fatal(err)
		}
		var sub JobSpec
		if err := json.Unmarshal(wire, &sub); err != nil {
			t.Fatal(err)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("SpecFor of a validated spec does not validate: %v", err)
		}
		back, err := ExpandPoints(sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(pts) {
			t.Fatalf("round trip kept %d of %d points", len(back), len(pts))
		}
		for i := range pts {
			if pts[i].Key() != back[i].Key() {
				t.Errorf("point %d: key %q came back as %q", i, pts[i].Key(), back[i].Key())
			}
		}
	})
}
