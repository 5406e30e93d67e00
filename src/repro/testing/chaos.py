"""The coordinator-kill chaos harness.

:mod:`repro.testing.faults` can crash a *worker* (SUPERVISOR_STAGES) or
sever a *connection* (FLEET_STAGES); this module drives faults against
the one process those harnesses cannot touch from inside — the
coordinator itself. A ``kill-coordinator`` fault calls ``os._exit`` in
the middle of the run, so it can only be observed from *outside*: the
harness runs ``oolong check --run-dir DIR`` as a subprocess, lets the
planned fault kill it, then re-runs with ``--resume`` and compares the
resumed report against an uninterrupted baseline byte for byte.

The subprocess boundary is crossed with the ``OOLONG_CHAOS`` environment
variable: a comma-separated list of ``stage@hit`` items (e.g.
``kill-coordinator@2,truncate-ledger-tail@0``), parsed by
:func:`plan_from_env` and installed by ``repro.cli.check_main`` around
the check — the same :func:`repro.testing.faults.inject` mechanism the
seeded in-process harnesses use, so ``stage`` must name a
:data:`~repro.testing.faults.COORDINATOR_STAGES` kind (or any other
registered stage) and ``hit`` is its deterministic ordinal.
"""

from __future__ import annotations

import os
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.testing.faults import (
    COORDINATOR_STAGES,
    Fault,
    FaultPlan,
)

__all__ = [
    "COORDINATOR_STAGES",
    "CHAOS_ENV",
    "parse_chaos_spec",
    "plan_from_env",
    "run_cli",
]

#: The environment variable carrying a chaos spec across an exec.
CHAOS_ENV = "OOLONG_CHAOS"


def parse_chaos_spec(spec: str) -> FaultPlan:
    """Parse ``stage@hit,stage@hit,...`` into a :class:`FaultPlan`.

    ``hit`` defaults to 0 when omitted. Raises ``ValueError`` on an
    unknown stage or a malformed item — a typo'd chaos spec must fail
    the run loudly, not silently test nothing.
    """
    faults: List[Fault] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        stage, _, hit_text = item.partition("@")
        try:
            hit = int(hit_text) if hit_text else 0
        except ValueError:
            raise ValueError(f"bad chaos item {item!r}: hit must be an int")
        # The coordinator stages model crashes/corruption, not the
        # raise/delay/corrupt vocabulary; "raise" is the closest action
        # label and is what the injector log records for them.
        faults.append(Fault(stage=stage, action="raise", hit=hit))
    if not faults:
        raise ValueError(f"empty chaos spec {spec!r}")
    return FaultPlan(tuple(faults))


def plan_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[FaultPlan]:
    """The :data:`CHAOS_ENV` plan, or None when the variable is unset."""
    env = os.environ if environ is None else environ
    spec = env.get(CHAOS_ENV)
    if not spec:
        return None
    return parse_chaos_spec(spec)


def run_cli(
    args: Sequence[str],
    *,
    chaos: Optional[str] = None,
    cwd: Optional[str] = None,
    timeout: float = 120.0,
) -> Tuple[int, str, str]:
    """Run ``oolong-check`` as a subprocess; ``(exit, stdout, stderr)``.

    ``chaos`` is a spec for :data:`CHAOS_ENV` (installed only for this
    invocation). The child inherits this interpreter and a PYTHONPATH
    that can import :mod:`repro`, so the harness works from a source
    checkout without installation.
    """
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    parts = [src] + env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
    if chaos is not None:
        env[CHAOS_ENV] = chaos
    else:
        env.pop(CHAOS_ENV, None)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )
    return completed.returncode, completed.stdout, completed.stderr
