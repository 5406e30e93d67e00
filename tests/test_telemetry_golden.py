"""What a check's telemetry says, pinned while its recording changes.

For each ``examples/*.oolong`` file and ``tests/test_observability.py``'s
``RATIONAL``, checked by the CLI serially, with ``-j 2`` and with
``--static-discharge on``, ``tests/data/telemetry_golden.json`` records
what the observability outputs say about the run, without what depends
on timing or scheduling:

* ``metrics`` — the ``--metrics`` counters and labelled counters, and
  each timer's count;
* ``profile`` — the ``--profile`` lines with numbers masked and runs of
  spaces collapsed; which VCs are the slowest depends on timing, so each
  row of that section reads ``<vc>``, and the deadline-pressure line
  keeps its label only;
* ``spans`` — the span skeleton: category, name, depth and sorted arg
  keys of every span, in the order spans open. Under ``-j`` the job
  subtrees of the ``supervisor`` span are sorted, since jobs file in
  completion order;
* ``report`` — ``events report --format json`` without times and run
  ids; under ``-j`` also without the per-worker job and idle-gap counts
  and the critical path, which depend on which worker took which job.

The golden changes only in a commit that regenerates it and says why::

    PYTHONPATH=src python tests/test_telemetry_golden.py --diff   # what changes
    PYTHONPATH=src python tests/test_telemetry_golden.py --write  # rewrite it
"""

import contextlib
import difflib
import glob
import io
import json
import os
import re
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "telemetry_golden.json")
EXAMPLES = sorted(glob.glob(os.path.join(HERE, "..", "examples", "*.oolong")))

#: How each input is checked, by name.
MODES = {
    "serial": [],
    "j2": ["-j", "2"],
    "discharge": ["--static-discharge", "on"],
}

#: ``events report`` keys that hold times or name the run.
_TIMES = frozenset(
    (
        "run_id",
        "wall_seconds",
        "busy_seconds",
        "utilization",
        "longest_idle_seconds",
        "at",
        "start",
        "end",
        "seconds",
        "coverage",
    )
)
#: ... and, under ``-j``, the keys that depend on scheduling.
_SCHEDULED = frozenset(("jobs", "idle_gaps", "critical_path"))

_NUMBER = re.compile(r"\d+(\.\d+)?")


def _inputs():
    """``(name, source)`` of every golden input."""
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from test_observability import RATIONAL

    inputs = [("RATIONAL", RATIONAL)]
    for path in EXAMPLES:
        with open(path) as handle:
            inputs.append((os.path.basename(path), handle.read()))
    return inputs


def _metrics(payload):
    return {
        "counters": payload["counters"],
        "labelled": payload["labelled"],
        "timers": {
            name: timer["count"] for name, timer in payload["timers"].items()
        },
    }


def _profile(text):
    lines = text[text.index("== profile ==") :].splitlines()
    out, section = [], None
    for line in lines:
        if not line.startswith("  "):
            section = line
        if line.startswith("deadline pressure:"):
            out.append("deadline pressure:")
        elif section.startswith("slowest VCs") and line.startswith("  "):
            out.append("<vc>")
        else:
            out.append(" ".join(_NUMBER.sub("#", line).split()))
    return out


def _skeleton(spans):
    """``spans`` — ``(category, name, parent index, args)`` in open order —
    as one ``category:name [arg keys]`` row per span in pre-order, indented
    by depth."""
    children = {}
    for index, (_, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(index)

    def subtree(index, depth):
        category, name, _, args = spans[index]
        keys = f" [{', '.join(sorted(args))}]" if args else ""
        rows = [f"{'  ' * depth}{category}:{name}{keys}"]
        kids = [subtree(kid, depth + 1) for kid in children.get(index, [])]
        if (category, name) == ("pipeline", "supervisor"):
            kids.sort(key=json.dumps)
        for kid in kids:
            rows.extend(kid)
        return rows

    rows = []
    for root in children.get(None, []):
        rows.extend(subtree(root, 0))
    return rows


def _recorded_spans(events):
    """The spans of the journal at ``events``, for :func:`_skeleton`."""
    from repro.obs import read_journal, spans_of

    spans = spans_of(read_journal(events))
    index = {span["span"]: at for at, span in enumerate(spans)}
    return [
        (
            span["cat"],
            span["name"],
            index.get(span.get("parent")),
            span.get("args", {}),
        )
        for span in spans
    ]


def _report(payload, mode):
    drop = _TIMES | (_SCHEDULED if mode == "j2" else frozenset())

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in drop}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(payload)


def observe(source, mode):
    """The golden entry of one input checked in ``mode``."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.oolong")
        with open(path, "w") as handle:
            handle.write(source)
        metrics = os.path.join(work, "metrics.json")
        events = os.path.join(work, "events.jsonl")
        trace = os.path.join(work, "trace.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(
                [path, "--profile", "--metrics", metrics, "--trace", trace]
                + ["--events", events]
                + MODES[mode]
            )
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            assert main(["events", "report", events, "--format", "json"]) == 0
        with open(metrics) as handle:
            metrics_payload = json.load(handle)
        spans = _recorded_spans(events)
    return {
        "metrics": _metrics(metrics_payload),
        "profile": _profile(out.getvalue()),
        "spans": _skeleton(spans),
        "report": _report(json.loads(report.getvalue()), mode),
    }


def observe_all():
    return {
        f"{name} {mode}": observe(source, mode)
        for name, source in _inputs()
        for mode in MODES
    }


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", [name for name, _ in _inputs()])
def test_telemetry_matches_golden(name, mode):
    source = dict(_inputs())[name]
    assert observe(source, mode) == _golden()[f"{name} {mode}"]


def _render(entries):
    return json.dumps(entries, indent=1, sort_keys=True).splitlines()


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--diff"]):
        sys.exit("usage: test_telemetry_golden.py --write|--diff")
    entries = observe_all()
    if sys.argv[1] == "--diff":
        diff = difflib.unified_diff(
            _render(_golden()), _render(entries), "golden", "now", lineterm=""
        )
        print("\n".join(diff) or "no change")
        sys.exit(0)
    with open(GOLDEN, "w") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN)}")
