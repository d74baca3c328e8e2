#!/usr/bin/env bash
# Builds the goldweb benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload browse-warm --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything else the Go command
# writes (its module cache and configuration directory) live under
# bench/.bench_build/, so a run writes nothing outside the checkout;
# GOTOOLCHAIN and GOPROXY keep the build offline.
set -euo pipefail
out="$(pwd)/bench/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/goldweb-bench" .
exec "$out/goldweb-bench" "$@"
