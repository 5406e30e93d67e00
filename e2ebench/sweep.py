#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 e2ebench/sweep.py --workload prove-corpus --seeds 1-10 --out DIR

Runs ``run.py`` once per seed, one run at a time, always for
``BENCHMARK.json``'s ``run_seconds`` (each workload's tail percentile is
chosen for that run length), and saves each run's
standard output as ``DIR/<workload>-trace<t>-seed<n>.txt`` (the result
set format ``compare.py`` reads). Then prints, per metric, the median,
the quartiles and the spread (quartile distance over median) of the
runs, beside the metric's bound in ``BENCHMARK.json`` and a third of it,
the steadiness the benchmark aims for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import benchmark_metrics, load_set, spread, summary

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for seed in args.seeds:
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
        )
        name = f"{args.workload}-trace{args.trace}-seed{seed}.txt"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            handle.write(done.stdout)
        status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
        print(f"seed {seed}: {status}", flush=True)
        if done.returncode != 0:
            failed += 1
            sys.stderr.write(done.stderr)

    values, envs = load_set(args.out)
    metrics = benchmark_metrics()
    for name, samples in sorted(values.get((args.workload, args.trace), {}).items()):
        median, q1, q3 = summary(samples)
        bound = metrics.get(name, {}).get("bound")
        target = f"bound {bound:.2f}, aim < {bound / 3:.3f}" if bound else ""
        print(
            f"{name:34s} median {median:12.4f} [{q1:.4f}, {q3:.4f}] "
            f"spread {spread(samples):6.3f}  {target}"
        )
    if len(envs) > 1:
        print(f"WARNING: runs from {len(envs)} environments: {envs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
