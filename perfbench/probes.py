"""Per-layer probes for the traced run.

Every probe is installed from this file around a public function of one
layer (module attributes at the caller's binding, or attributes of the
live service/client objects) and removed again afterwards; nothing in
``src/`` changes.  The rank spans and counters come from the tracers the
program itself returns under ``trace=True``.

A probe records calls and busy seconds.  Probes that can fire in procs
rank processes (forked after installation) are gated to this process,
and the local-kernel probes additionally to threads-backend rank threads,
so the simulated twin of a traced front-door call is not counted as rank
work.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from workloads import nearest_rank

#: Planner choices the per-layer output always carries (zero when not
#: chosen): the SPMD algorithms on both backends at the planner's default
#: world sizes, plus the out-of-core path.
PLANNER_CHOICES = tuple(
    f"{alg}-{backend}-{P}"
    for alg in ("smart", "sample")
    for backend in ("threads", "procs")
    for P in (1, 2, 4, 8)
) + ("external-local-1",)

#: Rank span categories reported as ``rank.<category>_s``.
RANK_CATEGORIES = (
    "local_sort", "merge", "address", "pack", "transfer", "unpack", "wait",
)
#: The program's rank counters and the names they are reported under.
COMM_COUNTERS = (
    ("remaps", "comm.remaps"),
    ("coll.alltoallv", "comm.alltoallv"),
    ("coll.fused", "comm.fused"),
    ("coll.allgather", "comm.allgather"),
)


class Meter:
    """Calls and busy seconds of one probed function (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.busy_s = 0.0
        self.durations: List[float] = []

    def record(self, seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.busy_s += seconds
            self.durations.append(seconds)


def _in_rank_thread() -> bool:
    return threading.current_thread().name.startswith("spmd-rank-")


class LayerProbes:
    """Installs the probes, gathers what they and the tracers report,
    and renders the per-layer metrics."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._restore: List[Callable[[], None]] = []
        self.meters: Dict[str, Meter] = defaultdict(Meter)
        self.kernel_bytes = 0
        self._lock = threading.Lock()
        self.rank: Dict[str, float] = defaultdict(float)
        self.world_overhead_s = 0.0
        self.choices: Counter = Counter()
        self.queue_waits: List[float] = []
        self.batch_sizes: List[int] = []
        self.service_run_s = 0.0
        self.net_overhead_s = 0.0
        self.router_overhead_s = 0.0
        self.net_requests = 0
        self.net_via_shm = 0
        self.net_retries = 0
        self.ext = Counter()
        self._service = None
        self._service_base: Dict[str, int] = {}
        self._router = None
        self._router_base = 0
        self._tickets: List[Any] = []

    # -- installation ----------------------------------------------------

    def _timed(self, owner: Any, attr: str, meter: str, *,
               kernel: bool = False,
               after: Optional[Callable[[Any, tuple, dict, float], None]] = None,
               force: Optional[Dict[str, Any]] = None) -> None:
        """Wrap ``owner.attr`` so each call in this process is timed into
        ``meters[meter]``; ``kernel`` restricts it to rank threads and
        adds the kernel's computed bytes (inputs + output); ``force``
        overrides keyword arguments of every call.  :meth:`uninstall`
        puts the original back."""
        rec = self.meters[meter]
        pid = self._pid
        original = getattr(owner, attr)

        def probe(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid or (kernel and not _in_rank_thread()):
                return original(*args, **kwargs)
            if force:
                kwargs.update(force)
            start = perf_counter()
            result = original(*args, **kwargs)
            elapsed = perf_counter() - start
            rec.record(elapsed)
            if kernel:
                self._count_kernel_bytes(args, result)
            if after is not None:
                after(result, args, kwargs, elapsed)
            return result

        shadows_method = attr not in vars(owner)
        setattr(owner, attr, probe)
        self._restore.append(
            (lambda: delattr(owner, attr)) if shadows_method
            else (lambda: setattr(owner, attr, original))
        )

    def _count_kernel_bytes(self, args: tuple, result: Any) -> None:
        first = args[0] if args else None
        inputs = first if isinstance(first, (list, tuple)) else [first]
        nbytes = sum(a.nbytes for a in inputs if isinstance(a, np.ndarray))
        if isinstance(result, np.ndarray):
            nbytes += result.nbytes
        with self._lock:
            self.kernel_bytes += nbytes

    def install(self) -> None:
        """Module-level probes shared by every workload."""
        import repro
        import repro.remap.cache as remap_cache
        import repro.runtime.bitonic_spmd as bitonic_spmd
        import repro.runtime.driver as driver
        import repro.runtime.sample_spmd as sample_spmd
        import repro.sorts.base as sorts_base
        import repro.sorts.smart as smart

        self._timed(repro, "sort", "api")
        self._timed(sorts_base, "verify_sorted", "verify")
        self._timed(bitonic_spmd, "radix_sort", "localsort.radix", kernel=True)
        self._timed(sample_spmd, "radix_sort", "localsort.radix", kernel=True)
        self._timed(sample_spmd, "p_way_merge", "localsort.merge", kernel=True)
        self._timed(smart, "batched_bitonic_merge", "localsort.merge",
                    kernel=True)
        self._timed(smart, "sort_bitonic", "localsort.merge", kernel=True)
        self._timed(remap_cache, "build_remap_plan", "remap.build")
        self._timed(driver, "run_spmd", "run_spmd")
        self._plan_cache = remap_cache.PLAN_CACHE
        self._plan_cache_base = (self._plan_cache.hits,
                                 self._plan_cache.misses)

    def attach_service(self, service: Any) -> None:
        """Probes on a live SortService: planner, submit, pool, extsort.

        The submit probe turns on the service's per-request tracing,
        which the wire server cannot ask for, and keeps the tickets, so
        :meth:`drain_tickets` can read their rank tracers."""
        import repro.service.service as service_mod

        def on_plan(decision: Any, *_: Any) -> None:
            choice = f"{decision.algorithm}-{decision.backend}-{decision.P}"
            with self._lock:
                self.choices[choice] += 1

        def on_external(result: Any, *_: Any) -> None:
            ext = result[1]
            with self._lock:
                self.ext["runs"] += ext.runs
                self.ext["buckets"] += ext.buckets
                self.ext["spill_bytes"] += ext.spill_bytes

        def on_submit(ticket: Any, *_: Any) -> None:
            with self._lock:
                self._tickets.append(ticket)

        self._timed(service.planner, "plan", "planner", after=on_plan)
        self._timed(service, "submit", "service.submit",
                    after=on_submit, force={"trace": True})
        self._timed(service.pool, "acquire", "pool.acquire")
        self._timed(service_mod, "external_sort", "extsort",
                    after=on_external)
        self._service = service
        self._service_base = self._service_counts()

    def attach_wire(self, client: Any, router: Any) -> None:
        """Probes on the wire path: the client's sort and health RPCs."""
        self._timed(client, "sort", "net.client")
        self._timed(client, "health", "router.health")
        self._router = router
        self._router_base = router.failovers

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _service_counts(self) -> Dict[str, int]:
        rep = self._service.report()
        return {
            "rejected": rep.rejected_queue_full + rep.shed_deadline
            + rep.rejected_memory,
            "expired": rep.expired,
            "spawned": rep.pool.get("spawned", 0),
            "reused": rep.pool.get("reused", 0),
        }

    # -- observations fed by the workloads -------------------------------

    def observe_rank_tracers(self, tracers: List[Any]) -> None:
        """Fold one request's rank tracers: per category, the mean over
        ranks of exclusive seconds; counters likewise."""
        ranks = [t for t in tracers if t is not None]
        if not ranks:
            return
        for tr in ranks:
            totals = tr.totals()
            for cat in RANK_CATEGORIES:
                self.rank[f"rank.{cat}_s"] += totals.get(cat, 0.0) / len(ranks)
            for counter, name in COMM_COUNTERS:
                self.rank[name] += tr.counters.get(counter, 0) / len(ranks)

    def observe_front_door(self, report: Any) -> None:
        """After a traced ``repro.sort``: rank spans plus the world
        overhead of its ``run_spmd`` (busy minus the slowest rank's
        span extent)."""
        tracers = report.tracers or []
        self.observe_rank_tracers(tracers)
        runs = self.meters["run_spmd"].durations
        if runs and tracers:
            walls = [
                max(s[3] for s in t.spans) - min(s[2] for s in t.spans)
                for t in tracers if t is not None and t.spans
            ]
            if walls:
                self.world_overhead_s += runs[-1] - max(walls)

    def observe_service_outcome(self, outcome: Any) -> None:
        with self._lock:
            self.queue_waits.append(outcome.queue_wait_s)
            self.batch_sizes.append(outcome.batch_size)
            # run_s is the whole batch's run, the same for each member.
            self.service_run_s += outcome.run_s / outcome.batch_size
        if outcome.tracers and outcome.decision.backend != "local":
            self.observe_rank_tracers(outcome.tracers[: outcome.decision.P])

    def drain_tickets(self) -> None:
        """Fold the outcomes of the kept (finished) tickets."""
        with self._lock:
            tickets, self._tickets = self._tickets, []
        for ticket in tickets:
            self.observe_service_outcome(ticket.result(0))

    def observe_wire(self, outcome: Any, router_s: float) -> None:
        self.drain_tickets()
        client_s = self.meters["net.client"].durations[-1]
        server = outcome.server
        self.net_requests += 1
        self.net_via_shm += int(outcome.via_shm)
        self.net_retries += outcome.attempts - 1
        self.net_overhead_s += client_s - server.get("queue_wait_s", 0.0) \
            - server.get("run_s", 0.0)
        self.router_overhead_s += router_s - client_s

    # -- output ----------------------------------------------------------

    def metrics(self, *, hygiene: Dict[str, int],
                overhead_ratio: float) -> Dict[str, float]:
        m = self.meters
        api_busy_s = m["api"].busy_s
        values: Dict[str, float] = {
            "api.calls": m["api"].calls,
            "api.busy_s": api_busy_s,
            "verify.calls": m["verify"].calls,
            "verify.busy_s": m["verify"].busy_s,
            "verify.share": (m["verify"].busy_s / api_busy_s
                             if api_busy_s else 0.0),
            "localsort.radix.calls": m["localsort.radix"].calls,
            "localsort.radix.busy_s": m["localsort.radix"].busy_s,
            "localsort.merge.calls": m["localsort.merge"].calls,
            "localsort.merge.busy_s": m["localsort.merge"].busy_s,
            "localsort.bytes_computed": self.kernel_bytes,
            "runtime.world_overhead_s": self.world_overhead_s,
            "remap.plan_builds": m["remap.build"].calls,
            "remap.plan_build_s": m["remap.build"].busy_s,
            "planner.calls": m["planner"].calls,
            "planner.busy_s": m["planner"].busy_s,
            "planner.p50_us": nearest_rank(m["planner"].durations, 50) * 1e6,
            "planner.choice.other": sum(
                n for c, n in self.choices.items() if c not in PLANNER_CHOICES
            ),
            "service.submit_busy_s": m["service.submit"].busy_s,
            "service.queue_wait_p50_ms": nearest_rank(self.queue_waits, 50) * 1e3,
            "service.run_s": self.service_run_s,
            "service.batch_size_mean": (float(np.mean(self.batch_sizes))
                                        if self.batch_sizes else 0.0),
            "pool.acquire.calls": m["pool.acquire"].calls,
            "pool.acquire.busy_s": m["pool.acquire"].busy_s,
            "net.client_s": m["net.client"].busy_s,
            "net.overhead_s": self.net_overhead_s,
            "net.retries": self.net_retries,
            "net.shm_share": (self.net_via_shm / self.net_requests
                              if self.net_requests else 0.0),
            "router.overhead_s": self.router_overhead_s,
            "router.health.calls": m["router.health"].calls,
            "router.health.busy_s": m["router.health"].busy_s,
            "extsort.calls": m["extsort"].calls,
            "extsort.busy_s": m["extsort"].busy_s,
            "extsort.runs": self.ext["runs"],
            "extsort.buckets": self.ext["buckets"],
            "extsort.spill_bytes": self.ext["spill_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ([f"rank.{cat}_s" for cat in RANK_CATEGORIES]
                     + [name for _, name in COMM_COUNTERS]):
            values[name] = self.rank.get(name, 0.0)
        for choice in PLANNER_CHOICES:
            values[f"planner.choice.{choice}"] = self.choices.get(choice, 0)
        hits0, misses0 = self._plan_cache_base
        hits = self._plan_cache.hits - hits0
        misses = self._plan_cache.misses - misses0
        values["remap.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        svc = (self._service_counts() if self._service is not None
               else dict.fromkeys(("rejected", "expired", "spawned",
                                   "reused"), 0))
        base = self._service_base or dict.fromkeys(svc, 0)
        delta = {k: svc[k] - base[k] for k in svc}
        values["service.rejected"] = delta["rejected"]
        values["service.expired"] = delta["expired"]
        values["pool.spawned"] = delta["spawned"]
        acquired = delta["spawned"] + delta["reused"]
        values["pool.reuse_ratio"] = delta["reused"] / acquired if acquired else 0.0
        values["router.failovers"] = (
            self._router.failovers - self._router_base
            if self._router is not None else 0
        )
        values.update({f"hygiene.{k}": v for k, v in hygiene.items()})
        return values
