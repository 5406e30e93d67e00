"""Time one cold set-up of the checker in a fresh interpreter.

``python3 e2ebench/setup_probe.py SPEC.json`` imports ``repro.api`` and
``repro.cli``, runs the checks the spec lists (the warm-up check and, for
``edit-recheck``, the cold populating check), and prints the seconds all
of that took, scaled to reference speed by three reference runs in this
same process just before it and three just after it (:mod:`reference`),
then the raw
seconds. ``run.py`` starts several probes and reports the median of the
scaled figures as ``setup_s``. The spec holds ``src`` (the directory to
import ``repro`` from) and ``checks``, a list of ``[source,
check_program keyword arguments]`` pairs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from reference import REFERENCE_S, host_reference_s, reference_s


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    reference_s()  # the first run in a fresh interpreter is a cold one
    before = settled_reference_s()
    start = time.perf_counter()
    import repro.api
    import repro.cli  # noqa: F401 -- part of the measured import set-up

    for source, options in spec["checks"]:
        report = repro.api.check_program(source, **options)
        if report.fatal or not report.verdicts:
            print("set-up check failed", file=sys.stderr)
            return 1
    seconds = time.perf_counter() - start
    after = settled_reference_s()
    print(repr(seconds * REFERENCE_S * 2 / (before + after)), repr(seconds))
    return 0


def settled_reference_s() -> float:
    """Median seconds of three reference runs in a row."""
    return statistics.median(host_reference_s() for _ in range(3))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
