# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short race bench profile-engine profile-daemon check staticcheck smoke sweep figures figures-paper cover loc clean

all: build test

# check is what CI runs: formatting of the tracked Go files (untracked
# build output such as .bench_build/ is not ours to format), static
# analysis, a full build, the race detector over every test (which
# certifies the sweep worker pool and the online service), and the
# daemon smoke test.
check: staticcheck
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go build ./...
	go test -race ./...
	./scripts/smoke.sh

# staticcheck runs when the binary is installed (CI installs it; local
# runs without it just skip).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# e2e smoke: boot dollympd, push jobs via dollymp-load, verify /metrics
# and a clean drain.
smoke:
	./scripts/smoke.sh

# Run the multi-seed benchmark sweep and write BENCH_sweep.json.
sweep:
	go run ./cmd/dollymp-bench -sweep

build:
	go build ./...
	go vet ./...

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go test -race ./...

# Run the measurements that are not tests: the Go micro-benchmarks
# (stdout only; what you profile) and the multi-seed sweep grid, whose
# JCT aggregates are deterministic and committed as BENCH_sweep.json.
# Throughput and memory regressions are judged by the BENCHMARK.json
# pipeline (bench/), which runs parent and change on the same box.
bench:
	go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/dollymp-bench -sweep -o BENCH_sweep.json

# Where the event engine and Schedule spend a drain the repo benchmark
# judges: one row of BenchmarkEngineDrain — ROW=paced-2k (60 000 paced
# jobs on 2000 servers, the cloning regime), ROW=backlog-200 (15 000
# jobs queued at slot 0 on 200 servers, the packing regime) or
# ROW=replay-32 (100 000 jobs streamed from an on-disk trace into 32
# servers: frame decode beside many cheap Schedule calls) — drained
# once under the CPU profiler, then the 30 heaviest frames by cumulative
# time. The row fails unless it reproduces the schedule bench/ pins. The
# test binary and the profile stay for `go tool pprof -list <func>
# sim.test engine.cpu.pprof`.
ROW ?= paced-2k
profile-engine:
	go test -run '^$$' -bench 'BenchmarkEngineDrain/$(ROW)$$' -benchtime 1x -cpuprofile engine.cpu.pprof -o sim.test ./internal/sim
	go tool pprof -top -cum -nodecount 30 sim.test engine.cpu.pprof

# Where the durable intake path spends a closed loop: two callers doing
# submit + status against a journaled 2-shard router (no HTTP; the
# in-process shape of the repo benchmark's daemon-durable workload,
# which has no profiler flag), under the CPU profiler, then the 30
# heaviest frames by cumulative time. The benchmark line above the
# profile carries jobs/s, fsyncs/job and B/op; the test binary and the
# profile stay for `go tool pprof -list <func> shard.test daemon.cpu.pprof`.
profile-daemon:
	go test -run '^$$' -bench BenchmarkRouterSubmitDurable -benchtime 12000x -cpuprofile daemon.cpu.pprof -o shard.test ./internal/shard
	go tool pprof -top -cum -nodecount 30 shard.test daemon.cpu.pprof

# Regenerate every paper figure (quick scale; use figures-paper for
# evaluation-scale job counts).
figures:
	go run ./cmd/dollymp-bench -scale quick

figures-paper:
	go run ./cmd/dollymp-bench -scale paper

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

# The one agreed size of the product: lines of tracked non-test Go
# outside bench/ — what every simplicity PR and the ROADMAP quote.
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l

# Remove generated-but-uncommitted artifacts: pprof files, profiled test
# binaries, and generated replay traces (multi-GB at the 10M/25M
# scales). The committed BENCH_sweep.json is deliberately NOT cleaned.
clean:
	rm -f cover.out *.pprof *.test *.trace
