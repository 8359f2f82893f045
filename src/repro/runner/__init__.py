"""Declarative run specs and the execution backend (DESIGN.md:
runner layer).

Specs are hashable descriptions of a run::

    from repro.runner import RunSpec, sweep
    from repro.service import Client

    specs = sweep(("swaptions", "dedup"),
                  kernels=[("pmc",), ("asan",)],
                  engines_per_kernel=[2, 4, 8])
    for record in Client(workers=4).map(specs):
        print(record.spec.benchmark, record.slowdown)

Execution goes through :mod:`repro.service`: the async ``Client``
memoises records in memory, reads through the persistent result store
(``REPRO_RESULT_STORE``), and fans uncached work out over processes,
each of which builds every distinct system once and resets its session
between traces (:mod:`repro.runner.worker`).
"""

from repro.runner.spec import (
    DEFAULT_SEED,
    DEFAULT_TRACE_LEN,
    AttackPlan,
    RunRecord,
    RunSpec,
    sweep,
    trace_length,
)
from repro.runner.worker import execute_spec, simulations_executed

__all__ = [
    "AttackPlan",
    "DEFAULT_SEED",
    "DEFAULT_TRACE_LEN",
    "RunRecord",
    "RunSpec",
    "execute_spec",
    "simulations_executed",
    "sweep",
    "trace_length",
]
