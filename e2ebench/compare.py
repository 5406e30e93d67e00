#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE_DIR NEW_DIR

A result set is a directory of saved ``run.py`` outputs, one file per run
(``sweep.py --out DIR`` writes them). For every workload and metric the
two sets share, this prints each side's median and quartiles, the change
of the medians, the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict:

* ``unresolved``: a side's own spread (quartile distance over median) is
  wider than the bound, and the runs do not separate cleanly, so the sets
  cannot tell a change within the bound from none;
* ``agree``: otherwise, when the medians differ by no more than the bound;
* ``better`` / ``worse``: they differ by more, in that direction.

Results record the environment they ran in (``nproc``, Python version,
``repro.parallel.cache.code_version()``). Sets from different
environments are still compared, but every verdict is marked ``env!``
and the command exits 2. It exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = "# e2ebench "


def load_set(directory: str):
    """``{(workload, trace): {metric: [values]}}`` and the environments
    seen."""
    values: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    envs: List[dict] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
        headers = [line for line in lines if line.startswith(HEADER)]
        if not headers or not lines[-1].startswith("{"):
            print(f"skipping {path}: not a run output", file=sys.stderr)
            continue
        header = json.loads(headers[-1][len(HEADER):])
        result = json.loads(lines[-1])
        if header["env"] not in envs:
            envs.append(header["env"])
        bucket = values[(header["workload"], header["trace"])]
        for metric, entry in result["metrics"].items():
            bucket[metric].append(entry["value"])
    return values, envs


def summary(samples: List[float]) -> Tuple[float, float, float]:
    """Median and first and third quartiles, as ``statistics.quantiles``."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def spread(samples: List[float]) -> float:
    """Quartile distance as a share of the median."""
    median, q1, q3 = summary(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def benchmark_metrics() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(base: List[float], new: List[float], bound: float, better: str) -> str:
    base_median, new_median = summary(base)[0], summary(new)[0]
    change = (new_median - base_median) / abs(base_median) if base_median else 0.0
    separated = max(new) < min(base) or min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved"
    if abs(change) <= bound:
        return "agree"
    improved = change < 0 if better == "lower" else change > 0
    return "better" if improved else "worse"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_envs = load_set(argv[1])
    new, new_envs = load_set(argv[2])
    envs = base_envs + [env for env in new_envs if env not in base_envs]
    env_differs = len(envs) > 1
    if env_differs:
        print("WARNING: the result sets come from different environments:")
        for env in envs:
            print(f"  {json.dumps(env, sort_keys=True)}")
    metrics = benchmark_metrics()
    worse = False
    print(
        f"{'workload':16s} {'metric':34s} {'base median [q1, q3]':>32s} "
        f"{'new median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(new[key])):
            spec = metrics.get(name, {})
            b, n = base[key][name], new[key][name]
            bm, bq1, bq3 = summary(b)
            nm, nq1, nq3 = summary(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            if "bound" in spec:
                outcome = verdict(b, n, spec["bound"], spec["better"])
                bound = f"{spec['bound']:.2f}"
            else:
                outcome, bound = "(no bound)", "-"
            worse = worse or outcome == "worse"
            if env_differs:
                outcome = "env! " + outcome
            print(
                f"{workload:16s} {name:34s} "
                f"{bm:12.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b):<3d}"
                f"{nm:12.4g} [{nq1:.4g}, {nq3:.4g}] n={len(n):<3d}"
                f"{change:+8.1%} {bound:>6s}  {outcome}"
            )
    if env_differs:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
