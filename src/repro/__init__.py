"""FireGuard (DAC 2025) reproduction.

A cycle-level Python implementation of fine-grained security analysis
on an out-of-order superscalar core: the FireGuard microarchitecture
(data-forwarding channel, superscalar event filter, broadcast-free
mapper, ISAX programming model) plus every substrate it depends on —
a BOOM-like main core, Rocket-like µcore analysis engines, guardian
kernels, software baselines, and harnesses reproducing every table and
figure of the paper's evaluation.

Quick tour::

    from repro.core.system import FireGuardSystem, run_baseline
    from repro.kernels import make_kernel
    from repro.trace.generator import generate_trace
    from repro.trace.profiles import PARSEC_PROFILES

    trace = generate_trace(PARSEC_PROFILES["x264"], seed=1, length=10000)
    system = FireGuardSystem([make_kernel("asan")])
    result = system.run(trace)
    print(result.cycles / run_baseline(trace))

Sweeps go through the service client: declarative specs, async
submission with future-like handles, incremental streaming, and a
persistent result store (``REPRO_RESULT_STORE``) that makes warm
reruns free::

    from repro.runner import RunSpec, sweep
    from repro.service import Client

    client = Client(workers=4, store="results/")
    handle = client.submit(RunSpec(benchmark="x264",
                                   kernels=("asan",)))
    specs = sweep(("x264", "dedup"), kernels=("asan",),
                  engines_per_kernel=[2, 4, 8])
    for record in client.map(specs):       # streams, in order
        print(record.spec.benchmark, record.slowdown)
    print(handle.result().slowdown, client.stats)

Each distinct configuration is simulated at most once per store —
rerunning a whole figure grid against a warm store executes zero
simulations and returns bit-identical records.

See DESIGN.md for the architecture map and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "1.8.0"

from repro.core.config import FireGuardConfig
from repro.core.system import FireGuardSystem, SystemResult, run_baseline
from repro.kernels import KERNELS, make_kernel
from repro.runner import RunRecord, RunSpec, sweep
from repro.service import Client, ResultStore, RunHandle, default_client
from repro.sim import SimulationSession
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_BENCHMARKS, PARSEC_PROFILES
from repro.trace.scenario import (
    SCENARIOS,
    Phase,
    Scenario,
    compose_stream,
    compose_trace,
    make_scenario,
)
from repro.trace.stream import StreamedTrace, stream_trace

__all__ = [
    "Client",
    "FireGuardConfig",
    "FireGuardSystem",
    "KERNELS",
    "PARSEC_BENCHMARKS",
    "PARSEC_PROFILES",
    "Phase",
    "ResultStore",
    "RunHandle",
    "RunRecord",
    "RunSpec",
    "SCENARIOS",
    "Scenario",
    "SimulationSession",
    "StreamedTrace",
    "SystemResult",
    "__version__",
    "compose_stream",
    "compose_trace",
    "default_client",
    "generate_trace",
    "make_kernel",
    "make_scenario",
    "run_baseline",
    "stream_trace",
    "sweep",
]
