#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, its config and telemetry) and the binary stay inside
# perfbench/.cache and perfbench/.bin, both ignored by git. Nothing is
# fetched: the module needs only the standard library and the repository.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export GOCACHE="$here/.cache/go-build"
export GOPATH="$here/.cache/gopath"
export XDG_CONFIG_HOME="$here/.cache/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$here/.bin/perfbench" .)
exec "$here/.bin/perfbench" "$@"
