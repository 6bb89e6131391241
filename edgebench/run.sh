#!/usr/bin/env bash
# Builds the interval-edge latency ledger from the sources of the checkout
# it sits in, then runs it. Arguments pass through:
#   bash edgebench/run.sh --workload lnet-ffc --seed 1 --seconds 60 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# No shared build cache: every artefact stays in the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . ./edgebench/main.exe 1>&2
exec ./_build/default/edgebench/main.exe "$@"
