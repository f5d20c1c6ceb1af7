"""Multi-tenant serving over the shared metastore (§4 operations view).

The batch dataplane answers one caller at a time; this package turns
it into a long-lived service: admission control
(:mod:`~repro.serve.admission`), weighted fair scheduling across
tenants (:mod:`~repro.serve.scheduler`), the asyncio service itself
(:mod:`~repro.serve.service`, whose cross-tenant result memo is the
dataplane's generation-keyed, single-flight
:class:`~repro.exec.cache.GenerationCache`), and an open-loop Poisson
load generator plus saturation benchmark (:mod:`~repro.serve.loadgen`,
:mod:`~repro.serve.bench`).  Served results are bit-identical to the
batch pipeline's — continuously sampled in-service, property-tested in
``tests/test_serve.py``, and gated in CI.
"""

from repro.serve.admission import (
    SHED_QUEUE,
    SHED_RATE,
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.serve.bench import BenchConfig, default_tenants, run_serve_bench
from repro.serve.loadgen import Arrival, LoadSpec, RunStats, Workload, run_workload
from repro.serve.scheduler import FairScheduler
from repro.serve.service import (
    AnalysisQuery,
    MatchQuery,
    MatchService,
    Response,
    RWLock,
    ServeConfig,
    bit_identical,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AnalysisQuery",
    "Arrival",
    "BenchConfig",
    "FairScheduler",
    "LoadSpec",
    "MatchQuery",
    "MatchService",
    "Response",
    "RunStats",
    "RWLock",
    "SHED_QUEUE",
    "SHED_RATE",
    "ServeConfig",
    "TokenBucket",
    "Workload",
    "bit_identical",
    "default_tenants",
    "run_serve_bench",
    "run_workload",
]
