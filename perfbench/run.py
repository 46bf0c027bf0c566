#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <fig8-small|large-20k|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds `perfbench/` (a Cargo package
of its own that depends on the repository's crates by path) in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
workload in a process of its own.  The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0
only when every correctness gate passed.  Full records (environment header,
end-to-end and per-layer metrics, gate failures) are appended to
`.bench_out/results.jsonl`; traced runs also write their spans to
`.bench_out/spans-<workload>-seed<n>.jsonl`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the binary gets the time left after the build.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
# Build output and caches left out of the source digest.
SKIP = {"target", "__pycache__"}


def source_files(path):
    if os.path.isfile(path):
        return [path]
    found = []
    for parent, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d not in SKIP)
        found += [os.path.join(parent, f) for f in sorted(files)]
    return found


def source_id():
    """The git commit when the checkout is a git repository, else a digest
    of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        for name in source_files(os.path.join(ROOT, top)):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--inject", help="test hook: corrupt one output so a gate must fire")
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target_dir = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    env["PERFBENCH_COMMIT"] = source_id()
    command = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
