#!/usr/bin/env bash
# Run the whole panel twice on the same code and hold the two sets
# against each other with the benchmark's own bounds: end-to-end medians
# within their bound, every exact metric and sim_digest identical.
# Exits non-zero on disagreement. Arguments (--seed N, --seconds S) go to
# both runs.
set -euo pipefail
here="$(dirname "$0")"
bash "$here/run.sh" --panel benchmark/out/repeat_a.json "$@"
bash "$here/run.sh" --panel benchmark/out/repeat_b.json "$@"
bash "$here/run.sh" --compare benchmark/out/repeat_a.json benchmark/out/repeat_b.json
