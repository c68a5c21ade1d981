#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload olden --seed 1 --seconds 15 --trace 0
        [--workers N] [--save DIR]

Run from the repository root. Configures and builds perfbench/ (and
the emulator libraries under src/) into .bench_build/ with the
repository's default RelWithDebInfo build type, then runs the
perfbench binary, which prints a human-readable report and, as its
last line, the JSON result. --save DIR also writes that run's full
record to DIR/<workload>-seed<N>-trace<T>.json for compare.py.
--workers N sets the fleet's worker threads (default: one less than
the cores, at most four). With --trace 1 the spans go to
.bench_build/spans-<workload>-seed<N>.jsonl.
Exits non-zero, printing no result, when the build or any check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("olden", "vm_gc", "fleet", "fig_sweep")
# Every run ends well inside this; a hung run is a failure.
RUN_TIMEOUT_S = 175


def commit_id():
    """The git commit, or a hash of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configure and build perfbench; returns the binary's path."""
    BUILD.mkdir(exist_ok=True)
    out = BUILD / "perfbench-build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(out), "--target", "perfbench",
                     "-j", jobs]):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workers", type=int,
                        help="fleet worker threads (default: nproc - 1, "
                             "at most 4)")
    parser.add_argument("--save", help="directory for the run's record")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.workers is not None:
        cmd += ["--workers", str(args.workers)]
    if args.trace:
        cmd += ["--spans",
                str(BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        # Keep the report for diagnosis, but never end on a result line.
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: exited with {done.returncode}")
    sys.stdout.write(done.stdout)

    if args.save:
        report = next(json.loads(line[len("report "):]) for line in lines
                      if line.startswith("report "))
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "report": report,
                  "result": json.loads(lines[-1])}
        save = pathlib.Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (save / name).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
