package memsys

import (
	"fmt"

	"gpujoule/internal/isa"
)

// BWResource models a shared throughput-limited component (a DRAM
// stack, an interconnect link, an L2 bank group) on a continuous time
// axis measured in cycles.
//
// Capacity is tracked in fixed-width time buckets over a sliding
// window. A request arriving at time t consumes capacity from its
// bucket forward; when near-term buckets are full it spills into later
// ones, which yields queueing delay and saturation organically. Unlike
// a single next-free FIFO, bucketed accounting lets requests that are
// issued later but arrive earlier backfill idle capacity, so dependent
// (pointer-chase) request chains do not forfeit bandwidth for
// everyone else.
type BWResource struct {
	name string
	rate float64 // bytes per cycle

	bucketCycles float64
	// invBucket is 1/bucketCycles, hoisting the bucket-index division
	// out of Acquire. The bucket width is a power of two, so the
	// reciprocal is exact and multiplying by it rounds identically to
	// dividing.
	invBucket float64
	// lineCycles is isa.LineBytes/rate, precomputed because nearly
	// every Acquire in the simulator moves exactly one cache line: the
	// unloaded-completion division then becomes a constant load. It is
	// the identical IEEE-754 quotient, just computed once, so results
	// are bit-identical.
	lineCycles float64
	bucketCap  float64 // bytes per bucket
	used       []float64
	mask       int64 // len(used)-1; the window length is a power of two
	base       int64 // bucket index of the window start

	// minFree is a skip hint: every bucket with index in [base, minFree)
	// is known full, so a request arriving below it starts its walk at
	// minFree instead of re-walking saturated buckets. Buckets only gain
	// load (until Reset or window-slide reuse, which both touch indexes
	// at or above minFree), so the hint never skips usable capacity and
	// completion times are unchanged.
	minFree int64

	// skipFrom/skipTo is an amortized cursor over the most recent
	// contiguous run of full buckets observed by a walk that started
	// above minFree (a saturated stretch behind an idle gap, which the
	// window-start hint cannot cover). A walk starting inside
	// [skipFrom, skipTo) jumps to skipTo. Buckets only gain load and
	// the cursor tracks absolute bucket indexes, so a recorded run
	// stays full for the lifetime of the window and the jump never
	// skips usable capacity.
	skipFrom, skipTo int64

	// BytesServed accumulates total payload moved.
	BytesServed uint64
	// QueueCycles accumulates the queueing delay requests experienced:
	// the gap between each transfer's actual completion and its
	// unloaded completion (arrival + bytes/bandwidth). Zero on an
	// uncontended resource; growth measures saturation.
	QueueCycles float64
}

const (
	// defaultBucketCycles is the capacity-accounting granularity.
	defaultBucketCycles = 64
	// defaultWindowBuckets is the sliding-window length; the window
	// must comfortably exceed the largest spread between concurrently
	// outstanding request times (epoch length plus worst-case latency).
	// Must be a power of two: bucket indexes wrap with a mask, not a
	// division, on the per-line Acquire path.
	defaultWindowBuckets = 4096
)

// NewBWResource builds a resource serving bytesPerCycle of payload per
// cycle.
func NewBWResource(name string, bytesPerCycle float64) *BWResource {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("memsys: resource %q needs positive bandwidth, got %g", name, bytesPerCycle))
	}
	return &BWResource{
		name:         name,
		rate:         bytesPerCycle,
		bucketCycles: defaultBucketCycles,
		invBucket:    1.0 / defaultBucketCycles,
		lineCycles:   float64(isa.LineBytes) / bytesPerCycle,
		bucketCap:    bytesPerCycle * defaultBucketCycles,
		used:         make([]float64, defaultWindowBuckets),
		mask:         defaultWindowBuckets - 1,
	}
}

// Name returns the diagnostic name of the resource.
func (r *BWResource) Name() string { return r.name }

// BytesPerCycle returns the configured service bandwidth.
func (r *BWResource) BytesPerCycle() float64 { return r.rate }

// Acquire reserves service for a transfer of the given size arriving at
// time now (in cycles) and returns the completion time. Completion is
// never earlier than now + bytes/bandwidth; contention pushes it later.
func (r *BWResource) Acquire(now float64, bytes int) float64 {
	if now < 0 {
		now = 0
	}
	idx := int64(now * r.invBucket)
	if idx < r.base {
		// Straggler older than the window: charge it at the window
		// start (slightly pessimistic, bounded by the window span).
		idx = r.base
	}
	if idx < r.minFree {
		// Skip buckets the hint proves full; the walk below would pass
		// over them without taking capacity anyway.
		idx = r.minFree
	}
	hintStart := idx
	if idx >= r.skipFrom && idx < r.skipTo {
		// The cursor proves [idx, skipTo) full; jump the walk past it.
		idx = r.skipTo
	}
	remaining := float64(bytes)
	var lastIdx int64
	var lastFill float64
	n := int64(len(r.used))
	for {
		if idx >= r.base+n {
			// Slow path hoisted out of ensure so the in-window check
			// stays inline in the walk.
			r.ensure(idx)
		}
		slot := &r.used[idx&r.mask]
		if free := r.bucketCap - *slot; free > 0 {
			take := free
			if remaining < take {
				take = remaining
			}
			*slot += take
			remaining -= take
			lastIdx = idx
			lastFill = *slot
			if remaining <= 0 {
				break
			}
		}
		idx++
	}
	// The walk filled every bucket in [start, lastIdx) to capacity; when
	// it started at or below the hint (before any cursor jump, which is
	// itself contiguous), fullness is contiguous from the window start
	// and the hint advances.
	if hintStart <= r.minFree && lastIdx > r.minFree {
		r.minFree = lastIdx
	}
	// Fold [hintStart, lastIdx) — full after this walk — into the run
	// cursor: extend an overlapping or adjacent run, otherwise keep the
	// longer of the two.
	if lastIdx > hintStart {
		switch {
		case hintStart <= r.skipTo && r.skipFrom <= lastIdx:
			if hintStart < r.skipFrom {
				r.skipFrom = hintStart
			}
			if lastIdx > r.skipTo {
				r.skipTo = lastIdx
			}
		case lastIdx-hintStart > r.skipTo-r.skipFrom:
			r.skipFrom, r.skipTo = hintStart, lastIdx
		}
	}
	r.BytesServed += uint64(bytes)

	var unloaded float64
	if bytes == isa.LineBytes {
		unloaded = now + r.lineCycles
	} else {
		unloaded = now + float64(bytes)/r.rate
	}
	completion := float64(lastIdx)*r.bucketCycles + lastFill/r.rate
	if completion < unloaded {
		completion = unloaded
	}
	r.QueueCycles += completion - unloaded
	return completion
}

// ensure advances the sliding window so bucket idx is addressable,
// zeroing vacated slots.
func (r *BWResource) ensure(idx int64) {
	n := int64(len(r.used))
	if idx < r.base+n {
		return
	}
	newBase := idx - n + 1
	if newBase-r.base >= n {
		for i := range r.used {
			r.used[i] = 0
		}
	} else {
		for i := r.base; i < newBase; i++ {
			r.used[i&r.mask] = 0
		}
	}
	r.base = newBase
}

// BusyCycles returns the total service time implied by the bytes moved.
func (r *BWResource) BusyCycles() float64 { return float64(r.BytesServed) / r.rate }

// Utilization returns the fraction of [0, horizon] the resource spent
// busy. Horizon must be positive.
func (r *BWResource) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := r.BusyCycles() / horizon
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears reservations and statistics.
func (r *BWResource) Reset() {
	for i := range r.used {
		r.used[i] = 0
	}
	r.base = 0
	r.minFree = 0
	r.skipFrom, r.skipTo = 0, 0
	r.BytesServed = 0
	r.QueueCycles = 0
}
