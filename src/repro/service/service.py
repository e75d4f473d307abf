"""The persistent sort service: front door, queue, dispatcher.

``SortService`` accepts sort requests (:meth:`~SortService.submit` /
:meth:`~SortService.map` / :meth:`~SortService.sort`), plans each one
with the LogGP planner, and runs it on a warm world from the pool:

* **bounded queue + admission control** — a full queue rejects
  (:class:`~repro.errors.AdmissionError`, ``reason="queue-full"``), and
  when a deadline is configured a request whose estimated completion
  time (queued work + its own planner estimate) exceeds it is shed at
  the door (``reason="deadline"``) rather than timing out after queuing;
* **same-shape batching** — consecutive requests with identical
  ``(N, dtype, plan)`` run back to back on one world acquisition, so a
  burst of lookalike requests pays one dispatch;
* **crash replacement** — a request whose world dies mid-job is retried
  once on a fresh world (the pool replaces the dead one) before the
  failure is surfaced;
* **per-request tracing** — each request can carry its own per-rank
  :class:`~repro.trace.recorder.Tracer` set plus a service-lane tracer
  recording the queue wait as a ``wait/queue`` span on the same
  monotonic timebase, exported per request (not blurred per batch);
* **online adaptation** — when the planner carries a
  :class:`~repro.service.adapt.RequestAdapter`, every served request's
  measured run time (and, for traced requests, its per-rank tracers)
  feeds back into the adapter, so the next plan prices with live
  corrections; every planned arrival is also reported to the pool
  (:meth:`~repro.service.pool.WorldPool.note_arrival`) as the
  queue-pressure signal its autoscaler prespawns from.

Everything observable lands in :class:`ServiceReport`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    MemoryBudgetError,
    RequestTimeoutError,
    ServiceClosedError,
    SpmdTimeoutError,
)
from repro.extsort import (
    estimate_spill_bytes,
    external_sort,
    inmem_working_set_bytes,
    sweep_orphaned_spill_dirs,
)
from repro.runtime.driver import BackendOptions
from repro.service.admission import DEFAULT_TENANT, TenantAdmission
from repro.service.jobs import sort_shards_job
from repro.service.planner import EXTERNAL_BACKEND, PlanDecision, Planner
from repro.service.pool import WorldPool
from repro.trace.recorder import Tracer

__all__ = ["SortService", "SortOutcome", "ServiceReport", "Ticket"]


@dataclass
class SortOutcome:
    """What one request produced."""

    request_id: int
    sorted_keys: np.ndarray
    decision: PlanDecision
    queue_wait_s: float
    run_s: float
    wall_s: float
    #: Number of requests that shared this request's world dispatch.
    batch_size: int = 1
    #: World-replacement retries this request survived.
    retries: int = 0
    #: Per-rank tracers (+ one service-lane tracer with the queue-wait
    #: span) when the request was traced; feed to write_chrome_trace.
    tracers: Optional[List[Tracer]] = None
    fault_stats: Dict[str, int] = field(default_factory=dict)


class Ticket:
    """A pending request's handle; :meth:`result` blocks for the outcome."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._done = threading.Event()
        self._outcome: Optional[SortOutcome] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, outcome: SortOutcome) -> None:
        self._outcome = outcome
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> SortOutcome:
        if not self._done.wait(timeout):
            raise RequestTimeoutError(
                f"request {self.request_id} still pending after {timeout}s",
                deadline_s=timeout or 0.0,
                elapsed_s=timeout or 0.0,
                stage="result-wait",
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome


@dataclass
class _Pending:
    ticket: Ticket
    keys: np.ndarray
    decision: PlanDecision
    faults: Optional[Any]  # FaultPlan
    trace: bool
    enqueued_at: float
    tenant: str = DEFAULT_TENANT
    #: The memory budget (bytes) this request was planned under; carried
    #: so the out-of-core path spills at the budget admission priced.
    memory_budget: Optional[int] = None
    #: Absolute monotonic expiry (enqueue time + the caller's budget);
    #: ``None`` means the caller waits forever.
    deadline_at: Optional[float] = None


@dataclass
class ServiceReport:
    """Aggregate service telemetry plus one record per served request."""

    served: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    shed_deadline: int = 0
    #: Requests too big even for the spill-to-disk path (the estimated
    #: spill footprint exceeded the disk budget); rejected at the door
    #: with a typed MemoryBudgetError.
    rejected_memory: int = 0
    #: Requests the memory-budget admission degraded to the out-of-core
    #: external sort instead of dispatching to a world.
    degraded_external: int = 0
    #: Requests whose deadline passed while they queued; failed with
    #: RequestTimeoutError *before* dispatch (never run past a give-up).
    expired: int = 0
    batches: int = 0
    world_retries: int = 0
    pool: Dict[str, Any] = field(default_factory=dict)
    #: Online-adaptation snapshot (update count, live correction factors)
    #: when the planner carries an adapter.
    adapt: Dict[str, Any] = field(default_factory=dict)
    #: Per-tenant admission counters (queued/admitted/rejections) when a
    #: TenantAdmission controller is attached.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: One dict per served request: id, keys, algorithm, backend, P,
    #: est/queue/run/wall seconds, batch size.
    requests: List[Dict[str, Any]] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        if not self.requests:
            return 0.0
        walls = sorted(r["wall_s"] for r in self.requests)
        idx = min(len(walls) - 1, max(0, int(round(q * (len(walls) - 1)))))
        return walls[idx]

    def describe(self) -> str:
        lines = [
            f"service: {self.served} served, {self.failed} failed, "
            f"{self.rejected_queue_full} rejected (queue), "
            f"{self.shed_deadline} shed (deadline), "
            f"{self.expired} expired (in queue), "
            f"{self.batches} batches, {self.world_retries} world retries",
            f"  pool: {self.pool}",
        ]
        if self.rejected_memory or self.degraded_external:
            lines.insert(
                1,
                f"  memory budget: {self.degraded_external} degraded to "
                f"external, {self.rejected_memory} rejected (disk budget)",
            )
        if self.adapt:
            lines.append(
                f"  adapt: {self.adapt.get('updates', 0)} updates, "
                f"factors {self.adapt.get('factors', {})}"
            )
        for tenant, st in sorted(self.tenants.items()):
            lines.append(
                f"  tenant {tenant}: {st['admitted']:.0f} admitted, "
                f"{st['rejected_rate']:.0f} rate-limited, "
                f"{st['rejected_share']:.0f} share-limited"
            )
        if self.requests:
            lines.append(
                f"  latency p50={self.latency_percentile(0.5) * 1e3:.1f}ms "
                f"p95={self.latency_percentile(0.95) * 1e3:.1f}ms "
                f"max={self.latency_percentile(1.0) * 1e3:.1f}ms"
            )
        return "\n".join(lines)


class SortService:
    """A persistent sort service over a warm world pool.

    Parameters
    ----------
    planner:
        Request planner; defaults to a :class:`Planner` over the default
        host profile (pass one built on a calibrated profile for real
        estimates).
    pool:
        Warm world pool; defaults to a fresh :class:`WorldPool`.
    queue_depth:
        Bounded-queue capacity; submissions beyond it are rejected.
    deadline_s:
        Default admission deadline: a request whose estimated completion
        (queued estimates + its own) exceeds this is shed.  ``None``
        disables deadline shedding (per-request ``deadline_s`` still
        applies).
    batch_max:
        Most same-shape requests coalesced into one world dispatch.
    trace:
        Default per-request tracing (overridable per request).
    verify:
        Element-exact output verification against ``np.sort`` per
        request (off by default: the service is the hot path; the bench
        and tests verify independently).
    timeout:
        Wall-clock budget per world dispatch.
    admission:
        Optional per-tenant :class:`~repro.service.admission.TenantAdmission`
        controller layered on the bounded queue; when attached,
        ``submit(tenant=...)`` is rate-limited and fair-share-bounded per
        tenant and :meth:`report` carries per-tenant counters.
    autoscale:
        Enable queue-driven autoscaling on the default-constructed pool
        (ignored when ``pool`` is supplied — configure that pool
        directly).
    memory_budget:
        Default per-request memory budget in bytes.  A request whose
        estimated in-memory working set exceeds it is degraded to the
        out-of-core external sort (run in-process, never dispatched to a
        world) instead of OOMing; ``None`` disables the check.
    disk_budget:
        Cap in bytes on a degraded request's estimated spill footprint;
        a request too big even for the external path is rejected at the
        door with :class:`~repro.errors.MemoryBudgetError`.  ``None``
        means unbounded disk.
    spill_root:
        Directory external-sort spill dirs are created under (default
        ``$REPRO_SPILL_ROOT`` or the system tempdir).  Orphaned spill
        dirs from crashed processes are swept here at service start.
    """

    def __init__(
        self,
        planner: Optional[Planner] = None,
        pool: Optional[WorldPool] = None,
        queue_depth: int = 32,
        deadline_s: Optional[float] = None,
        batch_max: int = 8,
        trace: bool = False,
        verify: bool = False,
        timeout: float = 120.0,
        prewarm: Sequence[Tuple[str, int]] = (),
        admission: Optional[TenantAdmission] = None,
        autoscale: bool = False,
        memory_budget: Optional[int] = None,
        disk_budget: Optional[int] = None,
        spill_root: Optional[str] = None,
    ):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        if batch_max < 1:
            raise ConfigurationError(f"batch_max must be >= 1, got {batch_max}")
        self.planner = planner or Planner()
        if pool is None:
            # A calibrated spin budget in the planner's host profile
            # reaches the worlds this service spawns (procs ranks
            # spin-then-yield on that budget; irrelevant knobs are
            # ignored by the threads backend).
            budget = self.planner.profile.spin_budget
            pool = WorldPool(
                options=BackendOptions(spin_budget=budget)
                if budget is not None else None,
                autoscale=autoscale,
            )
        self.pool = pool
        self._queue_depth = queue_depth
        self._deadline_s = deadline_s
        self._batch_max = batch_max
        self._trace = trace
        self._verify = verify
        self._timeout = timeout
        self._admission = admission
        self._memory_budget = memory_budget
        self._disk_budget = disk_budget
        self._spill_root = spill_root
        # Crash hygiene mirrors the pool's shm sweep: spill dirs leaked
        # by dead processes are reclaimed before this service spills.
        sweep_orphaned_spill_dirs(spill_root)
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._ids = itertools.count(1)
        self._report = ServiceReport()
        self._report_lock = threading.Lock()
        for backend, P in prewarm:
            self.pool.prewarm(backend, P)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="sort-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- the front door -------------------------------------------------

    def submit(
        self,
        keys: np.ndarray,
        *,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        faults: Optional[Any] = None,
        deadline_s: Optional[float] = None,
        trace: Optional[bool] = None,
        tenant: str = DEFAULT_TENANT,
        memory_budget: Optional[int] = None,
    ) -> Ticket:
        """Enqueue one sort request; returns its :class:`Ticket`.

        ``algorithm``/``backend``/``P`` are forced overrides for the
        planner (``None`` = planner chooses, including the
        smart-bitonic-vs-sample algorithm routing).  Raises
        :class:`~repro.errors.AdmissionError` when the queue is full, the
        deadline estimate says the request cannot finish in time, or the
        tenant is over its rate/fair-share entitlement — admission
        failures never enqueue.

        ``deadline_s`` is also the request's *absolute* remaining-time
        budget: if it is still queued when the budget runs out, it fails
        with :class:`~repro.errors.RequestTimeoutError` instead of ever
        dispatching — work is never done for a caller that has given up.

        ``memory_budget`` (bytes, default the service-wide budget)
        engages the memory-budget admission: a request whose estimated
        working set exceeds it degrades to the out-of-core external sort
        (run in-process on the serving host); when even the external
        path's estimated spill footprint exceeds the service's disk
        budget the request is rejected with
        :class:`~repro.errors.MemoryBudgetError`.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size < 1:
            raise ConfigurationError(
                f"service sorts 1-D non-empty arrays, got shape {keys.shape}"
            )
        budget = (
            memory_budget if memory_budget is not None
            else self._memory_budget
        )
        # The external path streams runs of any length; only the SPMD
        # network paths need the power-of-two shape.
        will_external = algorithm == "external" or (
            budget is not None
            and inmem_working_set_bytes(keys.size, keys.dtype.itemsize)
            > budget
        )
        if not will_external and keys.size & (keys.size - 1):
            raise ConfigurationError(
                f"the bitonic network needs a power-of-two input, "
                f"got {keys.size} keys"
            )
        if will_external and self._disk_budget is not None:
            spill = estimate_spill_bytes(keys.nbytes)
            if spill > self._disk_budget:
                with self._report_lock:
                    self._report.rejected_memory += 1
                raise MemoryBudgetError(
                    f"request of {keys.size} keys needs ~{spill} spill "
                    f"bytes, over the {self._disk_budget}-byte disk "
                    f"budget; too big even for the out-of-core path",
                    required_bytes=spill,
                    budget_bytes=self._disk_budget,
                )
        have_faults = faults is not None and not getattr(faults, "is_null", False)
        decision = self.planner.plan(
            keys.size,
            dtype_size=keys.dtype.itemsize,
            faults=have_faults,
            algorithm=algorithm,
            backend=backend,
            P=P,
            memory_budget=budget,
        )
        if decision.source == "budget":
            with self._report_lock:
                self._report.degraded_external += 1
        ticket = Ticket(next(self._ids))
        deadline = deadline_s if deadline_s is not None else self._deadline_s
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if len(self._queue) >= self._queue_depth:
                with self._report_lock:
                    self._report.rejected_queue_full += 1
                raise AdmissionError(
                    f"queue full ({self._queue_depth} pending); request "
                    "rejected",
                    reason="queue-full",
                )
            if deadline is not None:
                est_completion = decision.est_seconds + sum(
                    p.decision.est_seconds for p in self._queue
                )
                if est_completion > deadline:
                    with self._report_lock:
                        self._report.shed_deadline += 1
                    raise AdmissionError(
                        f"estimated completion {est_completion:.3f}s exceeds "
                        f"the {deadline}s deadline "
                        f"({len(self._queue)} requests queued); request shed",
                        reason="deadline",
                        est_seconds=est_completion,
                    )
            if self._admission is not None:
                # Tenant checks last: their ledger increments on success,
                # so earlier rejections need no unwind.
                self._admission.admit(
                    tenant, len(self._queue), self._queue_depth
                )
            now = time.perf_counter()
            self._queue.append(
                _Pending(
                    ticket=ticket,
                    keys=keys,
                    decision=decision,
                    faults=faults if have_faults else None,
                    trace=self._trace if trace is None else trace,
                    enqueued_at=now,
                    tenant=tenant,
                    deadline_at=(
                        None if deadline is None else now + deadline
                    ),
                    memory_budget=budget,
                )
            )
            self._cond.notify()
        # Queue-pressure signal for the pool's autoscaler: one planned
        # arrival headed for the decision's shape (admitted requests
        # only — rejections never exert pressure, and external requests
        # never touch a world, so they must not make the pool prespawn).
        if decision.backend != EXTERNAL_BACKEND:
            self.pool.note_arrival(decision.backend, decision.P)
        return ticket

    def sort(self, keys: np.ndarray, **kwargs: Any) -> SortOutcome:
        """Submit and wait: the synchronous convenience spelling."""
        timeout = kwargs.pop("result_timeout", None)
        return self.submit(keys, **kwargs).result(timeout)

    def map(
        self, arrays: Sequence[np.ndarray], **kwargs: Any
    ) -> List[SortOutcome]:
        """Submit many requests, wait for all, return outcomes in order.

        Same-shape neighbours batch onto shared world dispatches."""
        timeout = kwargs.pop("result_timeout", None)
        tickets = [self.submit(a, **kwargs) for a in arrays]
        return [t.result(timeout) for t in tickets]

    # -- the dispatcher -------------------------------------------------

    def _batch_key(self, p: _Pending) -> Optional[Tuple]:
        if p.faults is not None or not 1 <= p.decision.P <= p.keys.size:
            return None  # fault runs never share a world dispatch
        if p.decision.backend == EXTERNAL_BACKEND:
            return None  # out-of-core runs are in-process, one at a time
        d = p.decision
        return (
            p.keys.size, p.keys.dtype.str, d.backend, d.P, d.algorithm,
        )

    def _take_batch(self) -> Optional[List[_Pending]]:
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None  # closed and drained
            head = self._queue.popleft()
            batch = [head]
            key = self._batch_key(head)
            if key is not None:
                # Same-shape coalescing: pull lookalikes from anywhere in
                # the queue (order within a shape is preserved; distinct
                # shapes may complete out of submission order, as in any
                # batching server).
                rest = []
                for p in self._queue:
                    if len(batch) < self._batch_max and self._batch_key(p) == key:
                        batch.append(p)
                    else:
                        rest.append(p)
                self._queue.clear()
                self._queue.extend(rest)
            return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except BaseException as exc:  # noqa: BLE001 — fail the batch, not the service
                for p in batch:
                    self._release_tenant(p)
                    p.ticket._fail(exc)
                with self._report_lock:
                    self._report.failed += len(batch)

    def _release_tenant(self, p: _Pending) -> None:
        if self._admission is not None:
            self._admission.release(p.tenant)

    def _expire_overdue(self, batch: List[_Pending]) -> List[_Pending]:
        """Fail (typed, never silent) the batch members whose caller's
        budget ran out while they queued; return the still-live rest."""
        now = time.perf_counter()
        live = []
        for p in batch:
            if p.deadline_at is not None and now >= p.deadline_at:
                self._release_tenant(p)
                p.ticket._fail(
                    RequestTimeoutError(
                        f"request {p.ticket.request_id} spent its "
                        f"{p.deadline_at - p.enqueued_at:.3f}s budget in the "
                        "queue; not dispatched",
                        deadline_s=p.deadline_at - p.enqueued_at,
                        elapsed_s=now - p.enqueued_at,
                        stage="dispatch",
                    )
                )
                with self._report_lock:
                    self._report.expired += 1
            else:
                live.append(p)
        return live

    def _run_batch(self, batch: List[_Pending]) -> None:
        # The whole batch leaves the queue here — served, expired, or
        # failed, it no longer exerts queue pressure on the autoscaler.
        head = batch[0].decision
        if head.backend != EXTERNAL_BACKEND:
            self.pool.note_done(head.backend, head.P, len(batch))
        batch = self._expire_overdue(batch)
        if not batch:
            return
        if head.backend == EXTERNAL_BACKEND:
            self._run_external(batch)
            return
        d = batch[0].decision
        dispatched_at = time.perf_counter()
        injector = None
        if batch[0].faults is not None:
            from repro.faults.plan import FaultInjector

            injector = FaultInjector(batch[0].faults)
        trace = any(p.trace for p in batch)
        P = d.P
        # rank r receives its slice of every request in the batch.
        def shards_for(rank: int) -> List[np.ndarray]:
            out = []
            for p in batch:
                n = p.keys.size // P
                out.append(p.keys[rank * n : (rank + 1) * n])
            return out

        rank_args = [
            (shards_for(r), trace, injector, d.algorithm)
            for r in range(P)
        ]
        # Deadline propagation into the world dispatch: when every batch
        # member carries a budget, the dispatch may not outlive the
        # latest of them (a lone overdue member was already expired
        # above; mixed batches keep the service-wide budget so an
        # undeadlined member is never cut short).
        timeout = self._timeout
        deadlines = [p.deadline_at for p in batch if p.deadline_at is not None]
        if deadlines and len(deadlines) == len(batch):
            remaining = max(deadlines) - time.perf_counter()
            timeout = min(timeout, max(0.05, remaining))
        retries = 0
        while True:
            world = self.pool.acquire(d.backend, P)
            try:
                rank_results = world.run(
                    sort_shards_job, rank_args=rank_args, timeout=timeout
                )
                break
            except CommunicationError as exc:
                # The world died under the job (rank crash, collapsed
                # barrier).  Release sends it to the pool's morgue; one
                # retry runs the batch on a fresh world.  Timeouts are
                # not retried — the job itself was too slow.
                self.pool.release(world)
                if isinstance(exc, SpmdTimeoutError) or retries >= 1:
                    raise
                retries += 1
                with self._report_lock:
                    self._report.world_retries += 1
            except BaseException:
                self.pool.release(world)
                raise
        self.pool.release(world)
        done_at = time.perf_counter()
        run_s = done_at - dispatched_at
        # Close the feedback loop: fold each served request's measured
        # run into the planner's adapter (fault runs excluded — the
        # clamped fault transport measures a different machine than the
        # fast path the adapter corrects).
        adapter = getattr(self.planner, "adapter", None)
        if injector is not None:
            adapter = None

        for i, p in enumerate(batch):
            out = np.concatenate([rank_results[r][0][i] for r in range(P)])
            if self._verify:
                from repro.sorts.base import verify_sorted

                verify_sorted(
                    p.keys, out, f"service[{d.algorithm}:{d.backend}x{P}]"
                )
            tracers = None
            rank_tracers = None
            if p.trace:
                rank_tracers = [
                    t for t in (rank_results[r][1][i] for r in range(P))
                    if t is not None
                ]
                lane = Tracer(rank=P)  # the service lane, after the ranks
                lane.spans.append(
                    ["wait", "queue", p.enqueued_at, dispatched_at, -1]
                )
                if adapter is not None:
                    lane.add("adapt.updates", 1)
                tracers = rank_tracers + [lane]
            if adapter is not None:
                adapter.observe(
                    N=int(p.keys.size),
                    backend=d.backend,
                    P=P,
                    algorithm=d.algorithm,
                    measured_s=run_s / len(batch),
                    dtype_size=p.keys.dtype.itemsize,
                    tracers=rank_tracers,
                )
            outcome = SortOutcome(
                request_id=p.ticket.request_id,
                sorted_keys=out,
                decision=p.decision,
                queue_wait_s=dispatched_at - p.enqueued_at,
                run_s=run_s,
                wall_s=done_at - p.enqueued_at,
                batch_size=len(batch),
                retries=retries,
                tracers=tracers,
                fault_stats=(
                    injector.stats.as_dict() if injector is not None else {}
                ),
            )
            with self._report_lock:
                self._report.served += 1
                self._report.requests.append(
                    {
                        "id": p.ticket.request_id,
                        "keys": int(p.keys.size),
                        "algorithm": d.algorithm,
                        "backend": d.backend,
                        "P": P,
                        "est_s": d.est_seconds,
                        "queue_wait_s": outcome.queue_wait_s,
                        "run_s": run_s,
                        "wall_s": outcome.wall_s,
                        "batch_size": len(batch),
                        "tenant": p.tenant,
                    }
                )
            self._release_tenant(p)
            p.ticket._resolve(outcome)
        with self._report_lock:
            self._report.batches += 1

    def _run_external(self, batch: List[_Pending]) -> None:
        """Serve out-of-core requests in-process: no world, no pool —
        the dispatcher streams each request through the spill-to-disk
        external sort under the memory budget its admission priced."""
        adapter = getattr(self.planner, "adapter", None)
        for p in batch:
            d = p.decision
            dispatched_at = time.perf_counter()
            budget = (
                p.memory_budget if p.memory_budget is not None
                else 64 << 20  # estimate_external's default working set
            )
            tracer = Tracer(rank=0) if p.trace else None
            out, ext = external_sort(
                p.keys,
                budget,
                spill_root=self._spill_root,
                disk_budget=self._disk_budget,
                tracer=tracer,
            )
            done_at = time.perf_counter()
            run_s = done_at - dispatched_at
            if self._verify:
                from repro.sorts.base import verify_sorted

                verify_sorted(p.keys, out, "service[external:localx1]")
            tracers = None
            if tracer is not None:
                lane = Tracer(rank=1)  # the service lane, after rank 0
                lane.spans.append(
                    ["wait", "queue", p.enqueued_at, dispatched_at, -1]
                )
                if adapter is not None:
                    lane.add("adapt.updates", 1)
                tracers = [tracer, lane]
            if adapter is not None:
                adapter.observe(
                    N=int(p.keys.size),
                    backend=EXTERNAL_BACKEND,
                    P=1,
                    algorithm="external",
                    measured_s=run_s,
                    dtype_size=p.keys.dtype.itemsize,
                    tracers=[tracer] if tracer is not None else None,
                )
            outcome = SortOutcome(
                request_id=p.ticket.request_id,
                sorted_keys=out,
                decision=d,
                queue_wait_s=dispatched_at - p.enqueued_at,
                run_s=run_s,
                wall_s=done_at - p.enqueued_at,
                batch_size=1,
                tracers=tracers,
            )
            with self._report_lock:
                self._report.served += 1
                self._report.batches += 1
                self._report.requests.append(
                    {
                        "id": p.ticket.request_id,
                        "keys": int(p.keys.size),
                        "algorithm": "external",
                        "backend": EXTERNAL_BACKEND,
                        "P": 1,
                        "est_s": d.est_seconds,
                        "queue_wait_s": outcome.queue_wait_s,
                        "run_s": run_s,
                        "wall_s": outcome.wall_s,
                        "batch_size": 1,
                        "tenant": p.tenant,
                        "memory_budget": budget,
                        "spill_bytes": ext.spill_bytes,
                        "merge_passes": ext.merge_passes,
                    }
                )
            self._release_tenant(p)
            p.ticket._resolve(outcome)

    # -- lifecycle -------------------------------------------------------

    def report(self) -> ServiceReport:
        """A snapshot of the service's telemetry (pool stats included)."""
        with self._report_lock:
            snap = ServiceReport(
                served=self._report.served,
                failed=self._report.failed,
                rejected_queue_full=self._report.rejected_queue_full,
                shed_deadline=self._report.shed_deadline,
                rejected_memory=self._report.rejected_memory,
                degraded_external=self._report.degraded_external,
                expired=self._report.expired,
                batches=self._report.batches,
                world_retries=self._report.world_retries,
                pool=self.pool.stats(),
                adapt=(
                    self.planner.adapter.stats()
                    if getattr(self.planner, "adapter", None) is not None
                    else {}
                ),
                tenants=(
                    self._admission.stats()
                    if self._admission is not None
                    else {}
                ),
                requests=list(self._report.requests),
            )
        return snap

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, optionally drain the queue, stop the
        dispatcher and close the pool.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                for p in abandoned:
                    self._release_tenant(p)
                    p.ticket._fail(
                        ServiceClosedError(
                            "service closed before the request ran"
                        )
                    )
            self._cond.notify_all()
        self._dispatcher.join(timeout=timeout)
        self.pool.close()

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
