#!/usr/bin/env bash
# The BENCHMARK.json command: runs the bench program from its own module
# directory with every build artefact kept inside the checkout (bench/out/),
# so a run reads and writes nothing outside it. Arguments are passed through:
#   bash bench/run.sh --workload cc-gnm-mem --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/gotmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/gotmp" GOTOOLCHAIN=local
exec go run . "$@"
