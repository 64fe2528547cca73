#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload geo-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ there (Go build cache, binary, traced-run spans).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/server here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

# A traced run keeps its client spans in memory and writes them here
# when it ends (the latest traced run of each workload).
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [ "${args[i]}" = --workload ]; then workload="${args[i + 1]:-}"; fi
done
spans="$out/spans/${workload:-none}.jsonl"

exec "$out/perfbench" --commit "$commit" --spans "$spans" "$@"
