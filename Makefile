# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short race bench profile-engine profile-daemon check staticcheck smoke sweep figures figures-paper cover clean

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
# (BenchmarkRouterDrain et al., stdout only), the online-engine drain
# (1M jobs at the full profile plus the streamed replay profiles, 1M
# to 25M jobs from an on-disk trace), the sharded-router drain, and
# the multi-seed sweep grid. Only BENCH_sweep.json is a committed
# artifact (its JCT aggregates are deterministic); the drain reports
# are wall-clock numbers of this machine and are git-ignored —
# regressions are judged by the BENCHMARK.json pipeline (bench/), which
# runs parent and change on the same box. Each profile runs in its own
# forked subprocess so peak_rss_bytes is per profile, not
# process-lifetime. The replay traces are generated on first use
# (replay-25m.trace is ~9 GB) and reused afterwards.
bench:
	go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/dollymp-bench -drain engine -profiles short,full,short-2k,full-2k,replay-1m,replay-10m,replay-25m -o BENCH_engine.json
	go run ./cmd/dollymp-bench -drain router -o BENCH_router.json
	go run ./cmd/dollymp-bench -sweep -o BENCH_sweep.json
	go run ./cmd/dollymp-bench -drain engine -profiles short -cpuprofile engine-short.cpu.pprof -o /dev/null

# Where the event engine and Schedule spend a cloning-regime drain:
# 200 000 paced jobs on 2000 servers under the CPU profiler, then the 30
# heaviest frames by cumulative time. The drain runs in a child process
# per profile, which inserts the profile's name into the file name; the
# file stays for `go tool pprof -list <func>`.
profile-engine:
	go run ./cmd/dollymp-bench -drain engine -profiles short-2k -cpuprofile engine.cpu.pprof -o /dev/null
	go tool pprof -top -cum -nodecount 30 engine.cpu.short-2k.pprof

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

# Remove generated-but-uncommitted artifacts: the drain reports, pprof
# files, and the generated replay traces (multi-GB at the 10M/25M
# scales; regenerated on next use). The committed BENCH_sweep.json is
# deliberately NOT cleaned.
clean:
	rm -f cover.out BENCH_engine.json BENCH_router.json cpu.pprof mem.pprof *.pprof *.test *.trace *.trace.tmp
