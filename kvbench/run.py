#!/usr/bin/env python3
"""Build kvbench from this checkout's sources and run one workload.

    python3 kvbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The benchmark is configured and built
(Release) under $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check the build. The last line of stdout is the
result JSON printed by the benchmark binary; the exit code is the
binary's (nonzero on any correctness violation). Traced runs write their
Chrome trace-event JSON to <build dir>/traces/.
"""

import argparse
import ctypes
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fixed_layout():
    """Disable address-space randomisation for the benchmark process, so
    table and orec-stripe addresses (and with them TM false conflicts)
    do not vary from run to run."""
    libc = ctypes.CDLL(None, use_errno=True)
    addr_no_randomize = 0x0040000
    current = libc.personality(0xffffffff)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def fail(msg, code=1):
    print(f"kvbench: {msg}", file=sys.stderr)
    return code


def source_hash():
    """sha256 over every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    # Stop git at the checkout root: nothing above it is read.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_root):
    build_dir = os.path.join(build_root, "kvbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "kvbench-build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # One build at a time per build dir.
    with open(os.path.join(build_root, "kvbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return None
    return os.path.join(build_dir, "kvbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kvstore",
                                       "kvstore.hpp")):
        return fail(f"ProteusKV sources not found under {ROOT}/src", 2)

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    binary = build(build_root)
    if binary is None:
        return fail("build failed")

    scratch = os.path.join(build_root, "scratch",
                           f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--git-commit", git_commit(),
           "--source-hash", source_hash()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces,
                             f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        # run() kills and reaps the benchmark if it overstays.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
