"""``repro.service`` — the persistent sort service.

A serving layer over the SPMD runtime: a warm :class:`WorldPool` keeps
spawned worlds alive between requests, a LogGP-driven :class:`Planner`
prices each request with the paper's closed forms calibrated to the host
(:class:`HostProfile`), and :class:`SortService` fronts it all with a
bounded queue, admission control, same-shape batching and per-request
tracing.

PR 6 adds the wire: :mod:`repro.service.net` frames requests over TCP
(:class:`SortServer` / :class:`SortClient`, with same-host shm payloads
and idempotent retries), :mod:`repro.service.router` spreads them across
shards with health-checked circuit breaking and failover
(:class:`ShardRouter`), and :mod:`repro.service.admission` arbitrates
tenants at the queue door (:class:`TenantAdmission`).

PR 9 closes the feedback loop: :mod:`repro.service.adapt` folds every
served request's measurements back into live per-``(backend, P,
algorithm)`` correction factors (:class:`RequestAdapter`) the planner
prices with, and the pool autoscales itself from queue pressure.  See
``docs/SERVING.md``.
"""

from repro.service.adapt import RequestAdapter
from repro.service.admission import DEFAULT_TENANT, TenantAdmission, TenantPolicy
from repro.service.net import ClientOutcome, SortClient, SortServer
from repro.service.planner import PlanDecision, Planner
from repro.service.pool import WorldPool
from repro.service.profile import PROFILE_SCHEMA, BackendCosts, HostProfile
from repro.service.router import LocalShard, ShardRouter
from repro.service.service import ServiceReport, SortOutcome, SortService, Ticket

__all__ = [
    "BackendCosts",
    "ClientOutcome",
    "DEFAULT_TENANT",
    "HostProfile",
    "LocalShard",
    "PROFILE_SCHEMA",
    "PlanDecision",
    "Planner",
    "RequestAdapter",
    "ServiceReport",
    "ShardRouter",
    "SortClient",
    "SortServer",
    "SortOutcome",
    "SortService",
    "TenantAdmission",
    "TenantPolicy",
    "Ticket",
    "WorldPool",
]
