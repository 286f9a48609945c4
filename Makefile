# make check is the repository's one gate: CI runs it verbatim, and it is
# what a contributor runs before pushing. Each sub-target also works alone.
#
# staticcheck and govulncheck are optional locally (the targets skip with a
# note when the tools are not installed); CI installs both, so findings fail
# the build there.

.PHONY: check build vet oar-vet staticcheck test-race framecheck flake-gate fuzz-smoke vuln

check: build vet staticcheck test-race

build:
	go build ./...

# bin/oar-vet is the repo's own analysis suite (internal/analysis): framelease,
# retained, atomicfield, grouptag. It runs here as a `go vet` backend so the
# findings integrate with vet's per-package caching.
oar-vet:
	go build -o bin/oar-vet ./cmd/oar-vet

vet: oar-vet
	go vet ./...
	go vet -vettool=$(CURDIR)/bin/oar-vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs and enforces it)"; \
	fi

# The race suite runs twice: single-core (GOMAXPROCS=1 forces maximal
# goroutine interleaving on one P — the scheduler preempts at suspension
# points other schedules never hit) and multi-core (GOMAXPROCS=4 gives the
# replica loops, the client loops and the transports real parallelism, so
# counters, published positions and pooled-frame hand-offs race for real).
# Both matter: each schedule class finds bugs the other misses.
test-race:
	GOMAXPROCS=1 go test -race ./...
	GOMAXPROCS=4 go test -race ./...

# framecheck rebuilds the transport with per-frame ownership tracking: a
# double Release panics with the acquisition stack. Combined with -race this
# catches both failure modes of the pooled-frame recycle path. backend and
# core are in the list for the replica and client loops, which release every
# inbound frame they handle.
framecheck:
	go test -race -tags=framecheck ./internal/transport/ ./internal/memnet/ ./internal/core/ ./internal/backend/

# flake-gate repeats the tests whose verdict depends on the slowest replica
# having caught up — the ones that used to race it — and the Figure 4 scenario
# test, whose undo count used to depend on what happens after the heal, at
# three levels of parallelism. They must pass every time.
flake-gate:
	@set -e; for p in 1 2 4; do \
		echo "==> GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p go test -count=20 \
			-run 'TestShardedEndToEnd|TestReadFastPathHappyPath|TestReadNeverAdoptsDoomedPrefix|TestExtraTracerObservesScenario|TestE13QualitativeShape' \
			./internal/cluster ./internal/core ./internal/experiments; \
	done

# fuzz-smoke runs every fuzz target for 30s on top of its seed corpus
# (testdata/fuzz/). A new crasher is written back into testdata/fuzz/ by the
# fuzzer; commit it as a regression seed alongside the fix.
fuzz-smoke:
	@set -e; for t in \
		FuzzExpandBatch:./internal/transport \
		FuzzUnmarshalBatch:./internal/proto \
		FuzzUnmarshal:./internal/proto \
		FuzzKeyFunc:./internal/shard \
		FuzzRouter:./internal/shard \
		FuzzReader:./internal/wire; do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "==> $$name ($$pkg)"; \
		go test -run='^$$' -fuzz="^$$name$$" -fuzztime=30s $$pkg; \
	done

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs and enforces it)"; \
	fi
