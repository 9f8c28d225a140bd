#!/bin/sh
# Builds the benchmark from source into .bench_build at the checkout root
# and runs it from there. Go's build cache and config directory are kept
# in .bench_build too, so a run writes nothing outside the checkout.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" \
	go build -C "$root/bench" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
