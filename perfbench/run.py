#!/usr/bin/env python3
"""Builds the `perfbench` binary from source and runs one benchmark workload.

    python3 perfbench/run.py --workload design --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. `--trace 0` prints every end-to-end metric,
`--trace 1` every per-layer metric (see perfbench/METRICS.md); the last line
of standard output is the result as one JSON object. `--smoke` runs every
workload of BENCHMARK.json at tiny sizes in both modes and checks that each
metric BENCHMARK.json names is printed with its declared unit.

The build goes to $CARGO_TARGET_DIR, or `.bench_build` when it is unset.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary and returns its path; exits on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def bench_args(workload, seed, seconds, trace, tiny=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", "trace" if trace else "e2e"]
    return args + ["--tiny"] if tiny else args


def smoke(binary):
    """Tiny run of every workload in both modes; checks names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            run = subprocess.run([binary] + bench_args(workload, 1, 0.1, trace, tiny=True),
                                 cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{label}: missing {name}")
                elif got[name].get("unit") != unit:
                    problems.append(f"{label}: {name} unit {got[name].get('unit')!r}, "
                                    f"declared {unit!r}")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{label}: undeclared metric {name}")
            print(f"smoke {label}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and not a.workload:
        p.error("--workload is required")
    binary = build()
    if a.smoke:
        return smoke(binary)
    return subprocess.run([binary] + bench_args(a.workload, a.seed, a.seconds, a.trace),
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
