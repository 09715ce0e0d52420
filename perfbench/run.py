#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload noc-moela --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark driver from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, then runs the driver. Build output
goes to stderr; the driver's report goes to stdout, ending with one JSON
line {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("noc-moela", "noc-ea", "fleet-sweep")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, cwd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_root):
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src").is_dir():
        fail(f"no program sources next to {BENCH_DIR.name}/ (expected "
             "CMakeLists.txt and src/ at the repository root)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], REPO_ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "--target",
                "perfbench_driver", "moela_serve", "-j", jobs], REPO_ROOT)
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    driver = build(build_root)

    # The program reads MOELA_* settings (run log, cache location) from the
    # environment; the benchmark pins every one of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOELA_")}
    # The driver removes its caches and daemon directories when it is done;
    # a traced run leaves its span file here.
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", str(BENCH_DIR / "pins.json"),
           "--work-dir", str(build_root / "work" / args.workload)]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
