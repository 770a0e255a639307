#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       build, then run every workload timed and traced, each in a fresh
#       child process, print every metric by name with its unit, check
#       correctness, and write benchmark/out/panel.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, ending in the result line (what the
#       driver calls; --trace picks the build)
#   benchmark/run.sh --compare A.json B.json
#       hold two panel documents against each other
set -euo pipefail
cd "$(dirname "$0")/.."

# Two builds, side by side: timed reps run on the plain one, where no
# allocation pays the counting allocator's atomics; traced reps need it.
target="${CARGO_TARGET_DIR:-benchmark/target}"
build() {
    cargo build --quiet --release --offline \
        --manifest-path benchmark/Cargo.toml --target-dir "$target/$1" "${@:2}"
}
build plain
build traced --features alloc-count
plain="$target/plain/release/splitbench"
export SPLITBENCH_TRACED="$target/traced/release/splitbench"

mode=panel
trace=0
args=("$@")
for ((i = 0; i < $#; i++)); do
    case "${args[i]}" in
    --workload | --compare | --panel) mode=given ;;
    --trace) trace="${args[i + 1]:-}" ;;
    esac
done
if [ "$mode" = panel ]; then
    exec "$plain" --panel benchmark/out/panel.json "$@"
elif [ "$trace" = 1 ]; then
    exec "$SPLITBENCH_TRACED" "$@"
else
    exec "$plain" "$@"
fi
