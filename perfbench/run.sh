#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload hit-hot --seed 1 --seconds 10 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that builds against
# the repository root through a directory replace, so it compiles only
# inside a full checkout. The binary, the Go build cache and per-run scratch
# (route-store directories, trace files) all live under .bench_build/ at the
# checkout root; nothing is read or written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The commit is only a stamp: a checkout without git history reports
# "unknown". Git may not look above the checkout for a repository.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --out "$out" --root "$root" --commit "$commit" "$@"
