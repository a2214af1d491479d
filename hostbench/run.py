#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload serve|fresh|churn --seed N \
        --seconds S --trace 0|1 [--tiny] [--perturb-digest]

The first run configures and builds hostbench/ (which compiles the
repository's src/ libraries) in Release mode under .bench_build/; later
runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Snapshots and
journals live in a scratch directory under .bench_build/ that is removed
when the run ends; the traced run's spans are kept there as JSON.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
RUNS = ROOT / ".bench_build" / "hostbench-runs"
JOBS = "3"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "hostbench"


def revision():
    """The git revision when there is one, else a digest of src/."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if rev:
            return "git:" + rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "fresh", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes (self-test)")
    parser.add_argument("--perturb-digest", action="store_true",
                        help="flip a recorded digest (self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hostbench: build failed: {err}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--rev", revision()]
    if args.trace:
        command += ["--spans-out", str(RUNS / f"{name}.spans.json")]
    if args.tiny:
        command.append("--tiny")
    if args.perturb_digest:
        command.append("--perturb-digest")
    child = subprocess.Popen(command)
    # A terminated run stops its benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
