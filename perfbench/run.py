#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --serve-rate R --limit-ms encode-long=A,... \\
        --workload encode-long --seed 1 --seconds 10 --trace 0

BENCHMARK.json's "command" carries the fixed serve-tcp rate, the per-workload
latency limits and the default seed. The first call configures and builds
the library and the benchmark binary into .bench_build/ (CMake, Release);
later calls rebuild only what changed. The binary's stdout is passed through, so the last
line is the JSON result; each run's result file (host fingerprint, report
lines, result) lands in .bench_build/results/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("encode-long", "encode-batch", "serve-tcp")


def parse_limits(text):
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        if name not in WORKLOADS or not value:
            raise argparse.ArgumentTypeError(f"bad --limit-ms item {item!r}")
        limits[name] = float(value)
    return limits


def build(root, build_dir):
    """Configure (once) and build the binary; build output goes to stderr."""
    cache = build_dir / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "nnlut_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def commit_of(root):
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--default-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, help="workload seed (default: --default-seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rate", type=float, required=True,
                    help="serve-tcp offered load, requests/s")
    ap.add_argument("--limit-ms", type=parse_limits, required=True,
                    help="latency limit per workload, name=ms,...")
    args = ap.parse_args()
    if args.workload not in args.limit_ms:
        ap.error(f"--limit-ms has no limit for {args.workload}")
    seed = args.default_seed if args.seed is None else args.seed

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "cmake"
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    results = root / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    cmd = [str(build_dir / "nnlut_perfbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", repr(args.serve_rate),
           "--limit-ms", repr(args.limit_ms[args.workload]),
           "--out", str(results / f"{stem}.json"),
           "--commit", commit_of(root)]
    if args.trace and args.workload == "serve-tcp":
        cmd += ["--trace-out", str(results / f"{stem}.chrome-trace.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
