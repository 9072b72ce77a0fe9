package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"gpujoule/internal/runner"
)

// spanID names a recorded span; 0 means none (the parent of a root).
type spanID int

// span is one timed call into a layer of the program. Every span of one
// rep or job carries that op's index as its trace.
type span struct {
	id, parent spanID
	trace      int
	name       string        // "<layer>.<call>", e.g. "sim.Simulate"
	start, end time.Duration // since the tracer's epoch; end < 0 while open
}

// layer is the span name's prefix before the first dot.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	running map[string]spanID // engine simulations in flight, by point key
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), running: map[string]spanID{}}
}

// root opens a span with no parent for op number trace.
func (t *tracer) root(name string, trace int) spanID {
	return t.open(name, 0, trace)
}

// child opens a span under parent, in the parent's trace.
func (t *tracer) child(name string, parent spanID) spanID {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	trace := t.spans[parent-1].trace
	t.mu.Unlock()
	return t.open(name, parent, trace)
}

func (t *tracer) open(name string, parent spanID, trace int) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, trace: trace, name: name, start: now, end: -1})
	return id
}

// end closes a span; closing 0 is a no-op.
func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// simHook returns a run-engine event callback that records every real
// simulation as a sim.Simulate span under the span parentOf names for
// its point. Memo hits record nothing. It returns nil for a nil tracer,
// which leaves the engine's callback unset.
func (t *tracer) simHook(parentOf func(runner.Point) spanID) func(runner.Event) {
	if t == nil {
		return nil
	}
	return func(ev runner.Event) {
		switch {
		case ev.Kind == runner.PointStarted:
			id := t.child("sim.Simulate", parentOf(ev.Point))
			t.mu.Lock()
			t.running[ev.Point.Key()] = id
			t.mu.Unlock()
		case ev.Kind == runner.PointDone && !ev.CacheHit:
			key := ev.Point.Key()
			t.mu.Lock()
			id := t.running[key]
			delete(t.running, key)
			t.mu.Unlock()
			t.end(id)
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// openSpans reports every span still open as an error: a call that never
// returned, or a span the benchmark forgot to close.
func openSpans(spans []span) error {
	var names []string
	for _, s := range spans {
		if s.end < 0 {
			names = append(names, fmt.Sprintf("%s (id %d, op %d)", s.name, s.id, s.trace))
		}
	}
	if len(names) > 0 {
		return fmt.Errorf("%d spans still open at exit: %s", len(names), strings.Join(names, ", "))
	}
	return nil
}

// selfTimes returns each layer's self time: every closed span's duration
// minus the part of it that its children cover, summed by layer.
// Children that overlap each other (parallel simulations) are counted
// once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[spanID][]span{}
	for _, s := range spans {
		if s.parent != 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		self[s.layer()] += s.end - s.start - covered(s, kids[s.id])
	}
	return self
}

// covered is how much of parent's interval the union of the children's
// intervals covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeChrome writes the closed spans as a Chrome trace_event document
// (complete "X" events, one thread row per op), which Perfetto and
// chrome://tracing open directly.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.trace,
			Args: map[string]int{"id": int(s.id), "parent": int(s.parent)},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
}
