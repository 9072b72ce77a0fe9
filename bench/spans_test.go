package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTime: a span's self time is its duration minus the part of it
// its children cover; overlapping children count once, and a child
// reaching past its parent counts only inside it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, name: "harness.BuildReport", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, name: "sim.Simulate", start: ms(10), end: ms(40)},
		{id: 3, parent: 1, name: "sim.Simulate", start: ms(30), end: ms(60)},  // overlaps span 2
		{id: 4, parent: 1, name: "sim.Simulate", start: ms(90), end: ms(120)}, // runs past its parent
		{id: 5, name: "bench.rep", start: ms(200), end: ms(210)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"harness": ms(100 - 50 - 10), // [10,60) and [90,100) covered
		"sim":     ms(30 + 30 + 30),
		"bench":   ms(10),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

// TestOpenSpansAreErrors: a span still open when the run ends is
// reported, by name.
func TestOpenSpansAreErrors(t *testing.T) {
	tr := newTracer()
	root := tr.root("bench.job", 7)
	call := tr.child("service.RunSweepStream", root)
	tr.end(call)
	err := openSpans(tr.snapshot())
	if err == nil || !strings.Contains(err.Error(), "bench.job") || strings.Contains(err.Error(), "RunSweepStream") {
		t.Fatalf("openSpans = %v, want an error naming only bench.job", err)
	}
	tr.end(root)
	if err := openSpans(tr.snapshot()); err != nil {
		t.Errorf("all spans closed, yet openSpans = %v", err)
	}
}

// TestNilTracerRecordsNothing: untraced runs hold a nil tracer, and every
// call on it is a no-op.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.root("bench.op", 0)
	tr.end(tr.child("sim.Simulate", id))
	tr.end(id)
	if id != 0 || tr.simHook(nil) != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// TestChromeTrace: spans render as complete events that share their
// op's thread row and name their parent.
func TestChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.root("bench.job", 3)
	call := tr.child("service.RunSweepStream", root)
	tr.end(call)
	tr.end(root)
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "service.RunSweepStream" || ev.Cat != "service" || ev.Ph != "X" || ev.Tid != 3 || ev.Args["parent"] != int(root) {
		t.Errorf("child event = %+v", ev)
	}
}
