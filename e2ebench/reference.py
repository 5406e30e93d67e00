"""The host-speed reference of the end-to-end benchmark.

A shared host's speed drifts, by up to ~1.8x for tens of seconds at a
time, and its CPUs apart. :func:`reference_s` times a fixed pure-Python
workload that runs no checker code; ``run.py`` and ``setup_probe.py``
time it (:func:`host_reference_s`, on every CPU the process may use)
beside the checks and the set-ups and scale each of those times to the
speed at which it takes ``REFERENCE_S``. A serial workload's process is
pinned to one CPU, so its checks and its reference runs share that CPU.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict

#: Seconds :func:`reference_s` takes on the reference machine at full
#: speed: reported times are scaled to it.
REFERENCE_S = 0.0065


def reference_s() -> float:
    """Seconds one run of the reference workload takes.

    The workload builds and sorts dicts, strings and tuples, as the
    checker does, with the collector off so that the checker's heap does
    not slow it down; then it runs an integer loop for about as long.
    When the host slows, the first part slows more than the checker and
    the second less; timed over traces of both beside checks of a farm
    and a pivot tower, their sum kept the checks' scaled times within
    ~8% where the first part alone left ~20%.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[str, tuple] = {}
        for number in range(7500):
            key = "k%d" % (number % 2000)
            table[key] = table.get(key, ()) + (number,)
        ordered = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
        [tuple(value) for _, value in ordered]
        total = 0
        for number in range(40000):
            total += number * number % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_reference_s() -> float:
    """Mean seconds of one reference run on each CPU this process may
    use, pinned to each in turn: the CPUs of a shared host drift apart,
    and a parallel check runs on all of them."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return reference_s()
    try:
        runs = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            runs.append(reference_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(runs) / len(runs)
