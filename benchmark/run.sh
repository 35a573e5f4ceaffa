#!/usr/bin/env bash
# Stage the repository's sources, build the harness offline, run workloads.
#
#   benchmark/run.sh [--workload NAME] [--trace [0|1]] [--seed N]
#                    [--seconds S] [--smoke]
#
# Without --workload every workload runs; without --trace each runs untraced
# (end-to-end metrics) and then traced (per-layer metrics). Each run prints
# `metric <name> <value> <unit>` lines and ends with one JSON result line.
# When every workload runs, an untraced run that reports `# noisy` (the
# machine yardstick moved more than 15 % under it) is run once more, so both
# results are on record. Everything written stays inside benchmark/ (and
# $CARGO_TARGET_DIR if set).
set -euo pipefail

invoked_from=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

workloads=(citysee-clean citysee-lossy trace-wide stream-replay)
modes=(0 1)
rerun_noisy=1
pass=()
while (($#)); do
    case $1 in
    --workload)
        workloads=("${2:?--workload needs a name}")
        rerun_noisy=0
        shift 2
        ;;
    --trace)
        if [[ ${2:-} == [01] ]]; then
            modes=("$2")
            shift 2
        else
            modes=(1)
            shift
        fi
        ;;
    --seed | --seconds)
        pass+=("$1" "${2:?$1 needs a value}")
        shift 2
        ;;
    --smoke)
        pass+=("$1")
        shift
        ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
done

# --- stage -----------------------------------------------------------------
# The harness is a workspace of its own that path-depends on a copy of the
# program's sources, so the one manifest fix-up below never touches the
# repository. `cp -a` keeps modification times, so cargo rebuilds only what
# changed in the repository.
for needed in Cargo.toml crates src; do
    if [[ ! -e $needed ]]; then
        echo "run.sh: $root/$needed not found: the benchmark builds the program from the repository's sources" >&2
        exit 1
    fi
done
stage=benchmark/stage
rm -rf "$stage"
mkdir -p "$stage"
cp -a Cargo.toml crates src "$stage/"

# Guarded manifest fix-up: crates/core/src/explain.rs calls serde_json, but
# crates/core/Cargo.toml does not declare it, and [patch] cannot add a
# dependency. No .rs file is altered.
core_manifest=$stage/crates/core/Cargo.toml
if grep -rqs 'serde_json::' crates/core/src &&
    ! grep -qs '^serde_json' crates/core/Cargo.toml &&
    grep -qs '^serde_json' Cargo.toml; then
    sed -i 's/^serde\.workspace = true$/&\nserde_json.workspace = true/' "$core_manifest"
    grep -q '^serde_json' "$core_manifest" || {
        echo "run.sh: could not add serde_json to the staged crates/core/Cargo.toml" >&2
        exit 1
    }
    touch -r crates/core/Cargo.toml "$core_manifest"
    echo "run.sh: staged crates/core/Cargo.toml: added 'serde_json.workspace = true' (used by src/explain.rs, undeclared in the repository)" >&2
else
    echo "run.sh: no manifest fix-up needed" >&2
fi

# --- build -----------------------------------------------------------------
target=${CARGO_TARGET_DIR:-$here/target}
[[ $target == /* ]] || target=$invoked_from/$target
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --bin refill-benchmark >&2

# --- run -------------------------------------------------------------------
run_one() {
    "$target/release/refill-benchmark" --workload "$1" --trace "$2" ${pass[@]+"${pass[@]}"}
}
mkdir -p benchmark/out
for workload in "${workloads[@]}"; do
    for mode in "${modes[@]}"; do
        run_one "$workload" "$mode" | tee benchmark/out/last-run.log
        if ((rerun_noisy)) && [[ $mode == 0 ]] && grep -q '^# noisy' benchmark/out/last-run.log; then
            echo "# run.sh: $workload was noisy; running it once more"
            run_one "$workload" "$mode"
        fi
    done
done
