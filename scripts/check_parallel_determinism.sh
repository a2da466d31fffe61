#!/usr/bin/env sh
# Parallel-determinism regression, run as a ctest entry
# (bench_parallel_determinism, label parallel).
#
# Runs the full bench_all --smoke sweep at 1, 2 and 4 sweep workers
# (--jobs) with Chrome-trace export on, and byte-compares every JSON
# artifact and every .trace.json across the three runs. Each chip runs
# on its own serial event kernel and its event order is a pure function
# of its config (DESIGN.md §2.1), so ANY byte difference here is a
# determinism bug: state shared between concurrently running chips, or
# a row or trace that depends on which worker ran its cell.
#
# This is a determinism check, not a speedup check; it is exactly as
# meaningful on a 1-CPU host (workers still interleave preemptively).
#
# Usage: check_parallel_determinism.sh <bench_all-binary> <scratch-dir>

set -u

bin=${1:?usage: check_parallel_determinism.sh <bench_all> <scratch>}
scratch=${2:?usage: check_parallel_determinism.sh <bench_all> <scratch>}

rm -rf "$scratch"
mkdir -p "$scratch"

for j in 1 2 4; do
    out="$scratch/j$j"
    mkdir -p "$out/traces"
    start=$(date +%s)
    CBSIM_TRACE_DIR="$out/traces" "$bin" --smoke --jobs "$j" \
        --out-dir "$out" > "$out.log" 2>&1 || {
        echo "check_parallel_determinism: --jobs $j sweep failed:" >&2
        tail -n 20 "$out.log" >&2
        exit 1
    }
    echo "check_parallel_determinism: $j worker(s): \
$(( $(date +%s) - start ))s wall"
done
# Wall times are informational only: on hosts with fewer CPUs than
# workers a speedup assertion would be meaningless — this test's job
# is byte-equality, which is exactly as strong on 1 CPU.

status=0
artifacts=0
traces=0
for ref in "$scratch/j1"/*.json "$scratch/j1/traces"/*.trace.json; do
    [ -f "$ref" ] || continue
    rel=${ref#"$scratch/j1/"}
    case $rel in
        *.trace.json) traces=$((traces + 1)) ;;
        *) artifacts=$((artifacts + 1)) ;;
    esac
    for j in 2 4; do
        other="$scratch/j$j/$rel"
        if [ ! -f "$other" ]; then
            echo "check_parallel_determinism: $rel missing at" \
                 "--jobs $j" >&2
            status=1
            continue
        fi
        if ! cmp -s "$ref" "$other"; then
            echo "check_parallel_determinism: $rel differs between" \
                 "1 and $j workers:" >&2
            diff -u "$ref" "$other" | head -n 40 >&2
            status=1
        fi
    done
done

if [ "$artifacts" -eq 0 ] || [ "$traces" -eq 0 ]; then
    echo "check_parallel_determinism: no artifacts ($artifacts) or" \
         "traces ($traces) produced" >&2
    status=1
fi

# The traces are large; keep them only when they are needed to debug.
[ "$status" -eq 0 ] && rm -rf "$scratch"/j*/traces
[ "$status" -eq 0 ] && echo "check_parallel_determinism: OK" \
    "($artifacts artifacts and $traces traces byte-identical across" \
    "1/2/4 workers)"
exit $status
