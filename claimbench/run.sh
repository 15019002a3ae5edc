#!/usr/bin/env bash
# Builds the claim benchmark from source and runs it from the repository
# root; every argument passes through to main.exe (see README.md):
#   bash claimbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "claimbench: needs a full checkout of the repository (dune-project and lib/ are missing)" >&2
  exit 2
fi
# Build products stay inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./claimbench/main.exe >&2
exec ./_build/default/claimbench/main.exe "$@"
