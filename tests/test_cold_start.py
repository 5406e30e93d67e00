"""A plain check imports only what it runs.

Every ``oolong-check`` starts a fresh interpreter, so each module a check
imports is compiled (or at least loaded) again on every run. A plain
check loads the null paths of telemetry (``repro.obs``: the event
journal and the stage names) and of fault injection
(``repro.testing.faults``), and nothing of the optional layers: metrics,
reporting and analytics, ``--explain``
(the proof-replay kernel and countermodels), the chaos harness, the
parallel executors, the cache and the ledger. Those load through the
package facades (PEP 562) or inside the code that uses them.

Each budget is measured in a fresh interpreter, as ``oolong-check`` and
the e2ebench set-up probe run: ``import repro.api, repro.cli``, then
``check_program`` on ``examples/stack.oolong``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STACK = os.path.join(ROOT, "examples", "stack.oolong")

#: What a plain check must not load, by layer.
FORBIDDEN = {
    "stdlib": (
        "http.server",
        "http.client",
        "ssl",
        "email",
        "socket",
        "subprocess",
        "uuid",
        "multiprocessing",
        "dataclasses",
        "inspect",
        "argparse",
    ),
    "telemetry": (
        "repro.obs.metrics",
        "repro.obs.analyze",
        "repro.obs.export",
        "repro.obs.progress",
        "repro.obs.schema",
        "repro.obs.explain",
    ),
    "prover-and-harness": (
        "repro.prover.countermodel",
        "repro.prover.replay",
        "repro.testing.chaos",
        "repro.testing.plans",
        "repro.logic.printer",
        "repro.oolong.pretty",
    ),
    "parallel": (
        "repro.parallel.worker",
        "repro.parallel.supervisor",
        "repro.parallel.cache",
        "repro.parallel.ledger",
        "repro.cli_ops",
    ),
}

#: Run in a fresh interpreter: check the file ``argv[1]`` (with
#: ``explain`` when ``argv[2]`` says so) and print the modules the import
#: and the check loaded (not those the interpreter started with), each
#: verdict's status and whether its proof log replayed.
PROBE = """
import json, sys
before = set(sys.modules)
import repro.api, repro.cli
with open(sys.argv[1], encoding="utf-8") as handle:
    source = handle.read()
report = repro.api.check_program(source, explain=sys.argv[2] == "explain")
replays = [
    None
    if verdict.explanation is None or verdict.explanation.replay is None
    else verdict.explanation.replay.ok
    for verdict in report.verdicts
]
statuses = [verdict.status.name for verdict in report.verdicts]
print(json.dumps({
    "modules": sorted(set(sys.modules) - before),
    "replays": replays,
    "statuses": statuses,
}))
"""


def _probe(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH", "")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE, STACK, mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def plain():
    probe = _probe("plain")
    # The budget means something only if the check ran to its verdicts.
    assert probe["statuses"] and set(probe["statuses"]) == {"VERIFIED"}
    return probe


@pytest.fixture(scope="module")
def explained():
    return _probe("explain")


def _loaded(modules, names):
    """The ``names`` that ``modules`` holds, packages by any submodule."""
    return sorted(
        name
        for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    )


class TestPlainCheck:
    @pytest.mark.parametrize("layer", sorted(FORBIDDEN))
    def test_loads_nothing_of(self, plain, layer):
        assert _loaded(plain["modules"], FORBIDDEN[layer]) == []


class TestExplainCheck:
    def test_loads_the_kernel_and_countermodels(self, explained):
        wanted = (
            "repro.obs.explain",
            "repro.prover.countermodel",
            "repro.prover.replay",
        )
        assert _loaded(explained["modules"], wanted) == sorted(wanted)

    def test_proof_logs_replay(self, explained):
        assert explained["statuses"]
        assert set(explained["statuses"]) == {"VERIFIED"}
        assert explained["replays"] == [True] * len(explained["statuses"])


class TestFacades:
    @pytest.mark.parametrize(
        "package", ["repro.obs", "repro.testing", "repro.parallel"]
    )
    def test_every_public_name_resolves(self, package):
        module = __import__(package, fromlist=["__all__"])
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    def test_star_import_of_obs(self):
        namespace = {}
        exec("from repro.obs import *", namespace)
        import repro.obs

        assert set(repro.obs.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        import repro.obs
        import repro.testing

        for package in (repro.obs, repro.testing):
            with pytest.raises(AttributeError):
                getattr(package, "no_such_name")

    def test_prooflog_names_stay_importable(self):
        from repro.prover import prooflog

        for name in (
            "CLOSE_CLAUSE",
            "CLOSE_KERNEL",
            "STEP_BRANCH",
            "STEP_CLOSE",
            "STEP_END_SPLIT",
            "STEP_FACT",
            "STEP_INSTANCE",
            "STEP_PROPAGATE",
            "STEP_SPLIT",
            "ProofLog",
            "ProofStep",
            "ReplayResult",
            "flatten_forall",
            "replay_proof_log",
        ):
            assert hasattr(prooflog, name), name
