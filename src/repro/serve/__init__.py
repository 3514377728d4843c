"""Compilation-as-a-service: the ``repro serve`` daemon and its clients.

A long-lived asyncio process that keeps the warm caches
(:class:`~repro.scheduling.plan_cache.SuppressionPlanCache`, the pulse
library cache, per-(library, device, noise)
:class:`~repro.runtime.backends.LayerPropagatorCache` instances, and a
campaign :class:`~repro.campaigns.store.ResultStore`) hot and serves
concurrent compile/simulate requests over a local HTTP/JSON protocol
with keep-alive connections.  Each of ``--serve-workers`` worker slots
serves one request at a time, on a thread pool (``--backend thread``)
or, for multicore scaling, on the campaign runner's fork-warm process
pool (``--backend process``,
:class:`~repro.serve.procpool.ProcessWorkerPool`): a worker death
rebuilds that whole pool and re-runs the requests in flight, up to
``MAX_POOL_RESPAWNS`` times per request — see EXPERIMENTS.md "Serving
compiles".
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ReproServer, ServeConfig, run_server
from repro.serve.procpool import ProcessWorkerPool
from repro.serve.protocol import (
    CompileRequest,
    ProtocolError,
    SimulateRequest,
    parse_request,
    schedule_digest,
)
from repro.serve.service import CompileService

__all__ = [
    "CompileRequest",
    "CompileService",
    "ProcessWorkerPool",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SimulateRequest",
    "parse_request",
    "run_server",
    "schedule_digest",
]
