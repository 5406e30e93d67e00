"""Test-support infrastructure shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
used by the resilience test suite and the CI ``fault-injection`` job. It
lives under ``src`` (rather than ``tests/``) because the pipeline modules
carry its injection points; importing it must never pull in test-only
dependencies. :mod:`repro.testing.chaos` layers the coordinator-kill
harness on top: it crosses the process boundary (``OOLONG_CHAOS``)
because a killed coordinator can only be observed from outside.

Both load on first use (PEP 562): the pipeline imports
:mod:`repro.testing.faults` for its injection points (the null paths),
and a plain check never loads the chaos harness or the fault plans and
injector (:mod:`repro.testing.plans`).
"""

import importlib

#: Each public name and the submodule that defines it.
_EXPORTS = {
    "CHAOS_ENV": "chaos",
    "parse_chaos_spec": "chaos",
    "plan_from_env": "chaos",
    "run_cli": "chaos",
    "ACTIONS": "faults",
    "COORDINATOR_STAGES": "faults",
    "STAGES": "faults",
    "SUPERVISOR_STAGES": "faults",
    "Corrupted": "plans",
    "Fault": "plans",
    "FaultError": "plans",
    "FaultPlan": "plans",
    "fault_point": "faults",
    "inject": "plans",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
