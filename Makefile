# Tier-1 verify is `make ci`: gofmt + vet + build + race-checked unit
# tests + the full (shape-test) suite. The -short race pass covers every
# unit test including the run engine's concurrency tests in a few
# minutes; the full suite without -race runs the multi-minute
# integration shape tests once.
GO ?= go

.PHONY: build test race fmt vet bench bench-regress trace-regress ci smoke cluster-smoke dvfs-smoke

build:
	$(GO) build ./...

# Fail when gofmt would rewrite any tracked Go file (tracked files only,
# so build and benchmark scratch directories are never scanned).
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt -l: run gofmt -w on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the unit tests (includes the internal/runner concurrency
# suite). The non-short shape tests are minutes-long even without the
# race detector, so they run in `test` instead.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Warn-only hot-path microbenchmark check against the checked-in
# baseline (scripts/bench_baseline.txt). Never fails the build;
# regenerate the baseline with `scripts/bench_regress.sh -update`
# after an intentional perf change.
bench-regress:
	scripts/bench_regress.sh

# Exact trace-signature regression check: run the fig2 slice with
# -trace, reduce it with `tracelens sig`, and diff against the
# checked-in scripts/trace_baseline.sig. The simulator is
# deterministic, so any diff is a real behavior change; regenerate the
# baseline with `scripts/trace_regress.sh -update` when intentional.
trace-regress:
	scripts/trace_regress.sh

# End-to-end gpujouled service smoke: daemon + persistent cache
# round-trip + byte-identical -server sweep. Not part of tier-1 `ci`
# (it builds binaries and binds a port); CI runs it as its own step.
smoke:
	scripts/service_smoke.sh

# Scaled-down DVFS smoke: sweet-spot + energy-roofline studies, a
# fixed-frequency sweep with frequency columns, and the nominal-point
# byte-identity check (no DVFS flags vs -freq 1000). Artifacts land
# in the workdir for CI upload.
dvfs-smoke:
	scripts/dvfs_smoke.sh

# End-to-end cluster smoke: 3 nodes + gateway, byte-identical
# distributed sweeps (including a mid-sweep node kill), then a
# loadgen storm writing BENCH_cluster.json. Same caveats as `smoke`.
cluster-smoke:
	scripts/cluster_smoke.sh

ci: fmt vet build race test
