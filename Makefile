# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race cover bench bench-regression fuzz experiments experiments-full serve-smoke shard-smoke parallel-smoke router-smoke chaos-smoke ingest-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate: vet runs first so static faults fail fast, then the full
# test suite.
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# One iteration of every benchmark, including the per-table/figure harness
# benches at reduced scale.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Re-run the page-format experiment against the committed baseline
# entry in results/dev/bench/data.js and fail on >15% regression of any
# shared metric; skips with a notice when no baseline exists.
bench-regression:
	./scripts/bench-regression.sh

# Short fuzzing passes over the parser and the coding identities.
fuzz:
	$(GO) test -fuzz=FuzzCodeRoundtrips -fuzztime=30s ./pbicode
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./xmltree

# Quick interactive experiment sweep (about a minute).
experiments:
	$(GO) run ./cmd/pbibench -exp all

# End-to-end serving check: pbiserve on a tiny generated database driven
# by pbiload; fails on any non-200 or a crashed server.
serve-smoke:
	./scripts/serve-smoke.sh

# Sharded-serving check: pbidb shard splits a multi-document database,
# pbiserve -shards serves it, and every answer is compared against an
# unsharded server over the same data.
shard-smoke:
	./scripts/shard-smoke.sh

# End-to-end intra-engine parallelism check: serial, -parallel and
# -shards+-parallel servers must serve identical answers (doc/PARALLEL.md).
parallel-smoke:
	./scripts/parallel-smoke.sh

# Multi-node serving check: pbirouter over per-shard pbiserve nodes must
# match a solo server, survive a replica kill, and 503 a dead shard
# (doc/ROUTER.md).
router-smoke:
	./scripts/router-smoke.sh

# Fault-containment check: dead shard → breaker-derived Retry-After and
# a degraded ?partial=1 206; corrupted page → "corrupt" failure class,
# pbifsck pinpoints it, router degrades around the shard; legacy
# pre-checksum databases still serve (doc/ROBUSTNESS.md).
chaos-smoke:
	./scripts/chaos-smoke.sh

# Live-ingest check: pbiserve -ingest under a mixed read/write load must
# advance epochs with consistent answers, fold the chain via compaction,
# survive a restart on the latest epoch, and stay legible to pbidb epochs
# and pbifsck (doc/INGEST.md).
ingest-smoke:
	./scripts/ingest-smoke.sh

# The paper-scale runs behind EXPERIMENTS.md (several minutes).
experiments-full:
	$(GO) run ./cmd/pbibench -exp e1,e2,e5,e6,e7,e8 -scale 1 -stats
	$(GO) run ./cmd/pbibench -exp e3,e4 -docscale 1 -buffer 64
	$(GO) run ./cmd/pbibench -exp a1,a2,a3,a4,a5,a6,a7,a8 -scale 1 -docscale 0.3 -stats

clean:
	rm -f cover.out
