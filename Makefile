# Developer entry points. The repo needs only the Go toolchain.

GO ?= go

.PHONY: build test race alloc-guard api apicheck loc bench-build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-guard runs the zero-allocation hot-path guards — the engine's
# (a window close allocates one object per result it emits), the
# wire's (resumable Client.Send 0 allocs, server event-line parse +
# dispatch <= 0.1 an event amortized over the session's event slabs, a
# batch frame 0 to encode and <= 5 to parse + apply whatever its rows,
# a one-row shard frame <= 0.1, a full resend ring no dearer than an
# empty one),
# the coordinator's (Process 0 allocs an event, flushes included) and
# the snapshot encoder's (an event table costs the same few objects
# whatever its size, a payload blob one) — and the routing / pool / wire
# micro-benchmarks. Metrics cells are armed by default, so the guard
# exercises the instrumented hot path; the overhead bench pins the
# armed-vs-disarmed cost at the public layer with -benchmem.
alloc-guard:
	$(GO) test -run 'TestNoHotPathAllocs|TestSnapshotEncodeAllocs' -count=1 ./internal/core
	$(GO) test -run 'TestWireHotPathAllocs|TestFullRingSendCostsNoMore' -count=1 ./netstream
	$(GO) test -run TestCoordinatorHotPathAllocs -count=1 ./cluster
	$(GO) test -run '^$$' -bench 'BenchmarkClientSend|BenchmarkEventLineDecode|BenchmarkBatchFrameDecode' -benchmem ./netstream
	$(GO) test -run '^$$' -bench 'BenchmarkPartitionRouting|BenchmarkPayloadPool' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkMetricsOverhead' -benchtime 1x -benchmem .

# obs-smoke runs a metrics-armed workload and a live 2-shard cluster,
# scrapes both /metrics endpoints, and asserts the key series families
# are present and parseable (see scripts/obs_smoke.sh).
.PHONY: obs-smoke
obs-smoke:
	scripts/obs_smoke.sh

# api regenerates api.txt, the committed fingerprint of the public API
# surface; apicheck fails if the code drifted from it (run in CI).
api:
	scripts/apicheck.sh update

apicheck:
	scripts/apicheck.sh check

# loc prints the non-test Go lines per package directory and their
# total, benchmark/ (its own module) excluded — the size figure every
# PR reports next to its perf numbers.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# bench-build compiles and vets the nested benchmark module against the
# working tree, so an internal/... refactor cannot silently break it
# (the root module's ./... does not reach it).
bench-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...
