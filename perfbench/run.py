#!/usr/bin/env python3
"""Build cbsim's host-performance benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload apps64|sync64|regen_quick \
        --seed N --seconds S --trace 0|1

The first call configures and builds the simulator library and the
driver under .bench_build/ (later calls only re-check the build). The
driver's last line of standard output is the result object; build
output goes to standard error. Every CBSIM_* variable of the caller is
dropped, so runs are hermetic. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
DRIVER = os.path.join(BUILD_DIR, "cbsim_perfbench")
WORKLOADS = ("apps64", "sync64", "regen_quick")
# Margin for the build check and process start on top of --seconds.
TIMEOUT_MARGIN_S = 90


def hermetic_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CBSIM_")}


def build(target="cbsim_perfbench"):
    """Configure once, then build @target; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    env = hermetic_env()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)


def source_id():
    """The commit when run in a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("paper", "smoke"), default="paper",
                    help="smoke = smallest sizes, for the self-test")
    ap.add_argument("--inject-failure", action="store_true",
                    help="add a cell that throws (self-test only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--out-dir", RUN_DIR,
           "--source-id", source_id()]
    if args.inject_failure:
        cmd.append("--inject-failure")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=hermetic_env(),
                              timeout=args.seconds + TIMEOUT_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode if proc.returncode >= 0 else 4


if __name__ == "__main__":
    sys.exit(main())
