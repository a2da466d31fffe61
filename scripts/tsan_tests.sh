#!/usr/bin/env sh
# Build and run the multithreaded test surface under ThreadSanitizer,
# as two ctest entries (label tsan) sharing one nested build tree.
#
# The simulator runs each chip on one thread; what is multithreaded is
# the sweep layer, which runs several chips at once:
#
#   sweep    (tsan_sweep_pool) — SweepRunner's worker pool (an atomic
#            job cursor, per-job result slots, the --max-failures
#            completion states, the progress callback) and the
#            crash-safe sweep machinery on top of it (isolation,
#            journals, retries, quarantine): harness_test's SweepRunner
#            suite and crash_safety_test.
#   kernels  (tsan_parallel_kernel) — whole chips, each on its own
#            event kernel, running concurrently in sweep workers with
#            every observer on: the ParallelDeterminism,
#            CausalDeterminism and worker-count ObsInteraction suites.
#            A race here is state that chips share behind the kernel's
#            back (a static, a lazily built table, a process default).
#
# TSan fails on any data race the happens-before graph does not cover.
#
# Uses its own nested build tree (like sanitize_tests.sh) so the TSan
# flags never leak into the primary build; the tree is reused
# incrementally across runs (ctest serializes the two entries on it).
#
# Usage: tsan_tests.sh <source-root> <build-dir> sweep|kernels
# Exit: 0 pass, 77 skipped (no TSan runtime), anything else fail.

set -u

src=${1:?usage: tsan_tests.sh <source-root> <build-dir> sweep|kernels}
bld=${2:?usage: tsan_tests.sh <source-root> <build-dir> sweep|kernels}
surface=${3:?usage: tsan_tests.sh <source-root> <build-dir> sweep|kernels}
case $surface in
    sweep) targets="harness_test crash_safety_test" ;;
    kernels) targets="integration_test obs_test" ;;
    *) echo "tsan_tests: unknown surface '$surface'" >&2; exit 2 ;;
esac

# Probe for a working TSan toolchain; skip (ctest SKIP_RETURN_CODE 77)
# rather than fail where the runtime library is not installed.
probe_dir=$(mktemp -d) || exit 1
trap 'rm -rf "$probe_dir"' EXIT
printf 'int main(){return 0;}\n' > "$probe_dir/probe.cc"
if ! c++ -fsanitize=thread "$probe_dir/probe.cc" \
        -o "$probe_dir/probe" 2> /dev/null || ! "$probe_dir/probe"; then
    echo "tsan_tests: no usable ThreadSanitizer toolchain; skipping" >&2
    exit 77
fi

cmake -S "$src" -B "$bld" \
      -DCBSIM_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      > "$bld.configure.log" 2>&1 || {
    echo "tsan_tests: configure failed; see $bld.configure.log" >&2
    exit 1
}
cmake --build "$bld" \
      --target $targets \
      > "$bld.build.log" 2>&1 || {
    echo "tsan_tests: build failed; see $bld.build.log" >&2
    tail -n 40 "$bld.build.log" >&2
    exit 1
}

TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}
export TSAN_OPTIONS

status=0
if [ "$surface" = sweep ]; then
    echo "tsan_tests: running harness_test (sweep worker pool)"
    "$bld/tests/harness_test" --gtest_filter='SweepRunner.*' || status=1
    echo "tsan_tests: running crash_safety_test (crash-safe sweeps)"
    "$bld/tests/crash_safety_test" || status=1
else
    echo "tsan_tests: running integration_test (concurrent chips)"
    "$bld/tests/integration_test" \
        --gtest_filter='ParallelDeterminism.*' || status=1
    echo "tsan_tests: running obs_test (concurrent observed chips)"
    obs='CausalDeterminism.*:ObsInteraction.EverythingOnIsWorkerCountInvariant'
    "$bld/tests/obs_test" --gtest_filter="$obs" || status=1
fi
exit $status
