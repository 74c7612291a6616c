#!/usr/bin/env python3
"""Build and run the uwgps benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload field-rounds --seed 1 --seconds 40 --trace 0

Steadiness mode (one run per seed, then each end-to-end metric's median,
quartiles, min/max and quartile spread, and the spread of the wall-clock
values the runs print beside the scaled ones):
    python3 perfbench/run.py --workload serve-tcp --seed 1 --seconds 40 --repeat 10

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
The binary renders its inputs under `<target dir>/perfbench/` and removes
them when the run ends; a traced run leaves its spans there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target_dir(), "release", "uw-perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(target_dir(), "perfbench")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def wall_clock_values(out):
    """The wall-clock end-to-end values an untraced run prints, by name."""
    lines = out.splitlines()
    start = next((i for i, l in enumerate(lines) if "wall-clock values:" in l), len(lines))
    values = {}
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        name, value, _unit = line.split()
        values[name] = float(value)
    return values


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def repeat(binary, args):
    values = {}
    wall = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(binary, args.workload, seed, args.seconds, args.trace, True)
        result = json.loads(out.strip().splitlines()[-1])
        if code != 0 or not result["correct"]:
            print(out, end="")
            sys.exit(f"perfbench: seed {seed} failed its checks")
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        for name, v in wall_clock_values(out).items():
            wall.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    summary = {}
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'wall':>8}")
    for name, (unit, vals) in values.items():
        q1, med, q3, s = spread(vals)
        w = spread(wall[name])[3] if len(wall.get(name, [])) == len(vals) else float("nan")
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "min": min(vals), "max": max(vals), "spread": s,
                         "wall_clock_spread": w}
        print(f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{min(vals):>12.5g} {max(vals):>12.5g} {s:>8.4f} {w:>8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: runs with seeds seed..seed+N-1")
    args = p.parse_args()
    binary = build()
    if args.repeat > 0:
        repeat(binary, args)
        return
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
