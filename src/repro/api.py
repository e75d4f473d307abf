"""The one front door: ``sort()`` over every substrate, one report back.

The package grew three ways to run the paper's sort — the LogGP-simulated
machine (:mod:`repro.sorts`), the real SPMD runtimes
(:mod:`repro.runtime`), and the chaos/fault stack (:mod:`repro.faults`) —
each with its own entry point and its own result shape.  :func:`sort`
unifies them behind a single call::

    from repro import sort

    report = sort(keys, P=8)                                # simulated
    report = sort(keys, P=8, backend="threads", trace=True) # real SPMD, traced
    report = sort(keys, P=4, backend="threads",
                  faults=FaultPlan.light(seed=7))           # under faults

and always returns one :class:`SortReport` carrying whatever the chosen
substrate produced: the sorted keys and wall time always; simulated
:class:`~repro.machine.metrics.RunStats` from the simulated backend; a
:class:`~repro.trace.report.PhaseReport` aligning measured, simulated and
predicted per-phase time when ``trace=True``; fault and recovery counters
when a :class:`~repro.faults.plan.FaultPlan` was armed.

Capability matrix (a combination outside it raises
:class:`~repro.errors.ConfigurationError` rather than silently ignoring
an argument; the algorithm column is the single source of truth,
:data:`BACKEND_ALGORITHMS`):

===========  ==========================  =====  ======
backend      algorithms                  trace  faults
===========  ==========================  =====  ======
simulated    smart, cyclic-blocked,      yes    yes
             blocked-merge, radix,
             sample, external*
threads      smart, sample, external*    yes    yes
procs        smart, sample, external*    yes    no (injector needs one
                                                address space)
===========  ==========================  =====  ======

``external*`` is the out-of-core spill-to-disk sort
(:mod:`repro.extsort`): it runs in-process on the calling host whatever
``backend`` says (the report's backend reads ``"local"``), and it is
also what ``memory_budget=`` degrades to automatically when the
estimated in-memory working set does not fit.  Fault plans cannot ride
it — there is no transport to inject into.

``algorithm="auto"`` is a routing directive, not a seventh algorithm:
with a ``service=`` attached (where it is the default) the service
planner prices smart bitonic against sample sort (and, with measured
disk evidence, the external sort) per request and runs the winner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.metrics import RunStats

__all__ = [
    "SortReport",
    "sort",
    "SORT_BACKENDS",
    "SORT_ALGORITHMS",
    "BACKEND_ALGORITHMS",
]

#: Substrates :func:`sort` can run on.
SORT_BACKENDS = ("simulated", "threads", "procs")

#: Algorithm names accepted by :func:`sort` (each runs on the backends
#: :data:`BACKEND_ALGORITHMS` lists for it).  ``"auto"`` — planner
#: routing with a service attached — is deliberately not in this tuple:
#: it names a dispatch policy, not an algorithm.
SORT_ALGORITHMS = (
    "smart", "cyclic-blocked", "blocked-merge", "radix", "sample", "external",
)

#: The capability table: which algorithms each backend executes.  The
#: simulated machine runs every comparator of the paper's Ch. 5; the
#: SPMD runtimes implement the smart bitonic sort and the sample sort
#: (the two the service planner prices against each other).  The
#: out-of-core ``external`` sort is backend-independent — it runs
#: in-process whatever backend the call named — so every row carries it.
BACKEND_ALGORITHMS = {
    "simulated": SORT_ALGORITHMS,
    "threads": ("smart", "sample", "external"),
    "procs": ("smart", "sample", "external"),
}

#: Algorithms with a closed-form predictor (fills the ``predicted`` column
#: of a traced report).
_PREDICTABLE = (
    "smart", "cyclic-blocked", "blocked-merge", "radix", "sample", "external",
)


@dataclass
class SortReport:
    """Everything one :func:`sort` call produced, in one place.

    Always present: the identity of the run (``algorithm``, ``backend``,
    ``P``, ``n``), the globally sorted ``sorted_keys``, and host
    ``wall_seconds``.  The rest depends on the substrate: ``stats`` is the
    simulated machine's metrics (simulated backend only), ``phases`` the
    three-source per-phase breakdown (``trace=True``), ``fault_stats`` /
    ``retry_rounds`` / ``resent_elements`` the injected-fault ledger
    (``faults`` armed).
    """

    algorithm: str
    backend: str
    P: int
    n: int
    sorted_keys: np.ndarray
    wall_seconds: float
    verified: bool = False
    stats: Optional[RunStats] = None
    phases: Optional["PhaseReport"] = None  # noqa: F821 — forward ref
    #: Per-rank span/counter recorders of a traced SPMD run (rank order);
    #: feed to :func:`repro.trace.write_chrome_trace` for a timeline file.
    tracers: Optional[list] = None
    fault_stats: Dict[str, int] = field(default_factory=dict)
    retry_rounds: int = 0
    resent_elements: int = 0

    @property
    def N(self) -> int:
        """Total number of keys sorted."""
        return self.P * self.n

    def describe(self) -> str:
        """Human-readable run summary (plus the phase table when traced)."""
        lines = [
            f"{self.algorithm} sort: {self.N:,} keys on {self.P} "
            f"{'simulated processors' if self.backend == 'simulated' else 'ranks'}"
            f" [{self.backend}] — {self.wall_seconds:.3f}s wall"
            + (", verified" if self.verified else "")
        ]
        if self.stats is not None:
            lines.append(
                f"  simulated {self.stats.elapsed_us:,.0f} µs makespan, "
                f"{self.stats.remaps} remaps, "
                f"{self.stats.volume_per_proc:,.0f} elements/proc"
            )
        if self.fault_stats:
            s = self.fault_stats
            lines.append(
                f"  faults     drop={s.get('dropped', 0)} "
                f"dup={s.get('duplicated', 0)} corrupt={s.get('corrupted', 0)} "
                f"delay={s.get('delayed', 0)}; recovery retry rounds="
                f"{self.retry_rounds}, resent={self.resent_elements:,} elements"
            )
        if self.phases is not None:
            lines.append(self.phases.describe())
        return "\n".join(lines)


def _resolve_algorithm(
    algorithm: Optional[str], backend: str, routed: bool
) -> str:
    """The one place algorithm names are validated.

    ``None`` resolves to the context's default: ``"auto"`` on a
    service-routed call (the planner picks), ``"smart"`` otherwise.
    ``"auto"`` is only meaningful where a planner exists; every other
    name must be in :data:`SORT_ALGORITHMS` and runnable on ``backend``
    per the :data:`BACKEND_ALGORITHMS` capability table.
    """
    if algorithm is None:
        return "auto" if routed else "smart"
    if algorithm == "auto":
        if not routed:
            raise ConfigurationError(
                "algorithm='auto' is planner routing — it needs a "
                "service= attached; pick a concrete algorithm from "
                f"{list(SORT_ALGORITHMS)} for a direct run"
            )
        return algorithm
    if algorithm not in SORT_ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {list(SORT_ALGORITHMS)}"
        )
    supported = BACKEND_ALGORITHMS.get(backend, ())
    if not routed and algorithm not in supported:
        raise ConfigurationError(
            f"backend {backend!r} implements {list(supported)}, not "
            f"{algorithm!r}; run {algorithm!r} on backend='simulated'"
        )
    return algorithm


def sort(
    keys: np.ndarray,
    P: Optional[int] = None,
    *,
    algorithm: Optional[str] = None,
    backend: str = "simulated",
    trace: bool = False,
    faults: Optional["FaultPlan"] = None,  # noqa: F821 — forward ref
    timeout: float = 120.0,
    verify: bool = True,
    options: Optional["BackendOptions"] = None,  # noqa: F821
    service: Optional["SortService"] = None,  # noqa: F821 — forward ref
    memory_budget: Optional[int] = None,
) -> SortReport:
    """Sort ``keys`` across ``P`` processors/ranks and report everything.

    Parameters
    ----------
    keys:
        The global input array (power-of-two size divisible by ``P``).
    P:
        Number of simulated processors or real ranks.  Optional when a
        ``service`` routes the call — its planner then chooses ``P``.
    algorithm:
        One of :data:`SORT_ALGORITHMS`, constrained per backend by the
        :data:`BACKEND_ALGORITHMS` capability table, or ``"auto"`` on a
        service-routed call — the planner then prices smart bitonic
        against sample sort and runs the winner.  Default: ``"auto"``
        with a service, ``"smart"`` without.
    backend:
        ``"simulated"`` runs on the LogGP-costed machine;
        ``"threads"`` / ``"procs"`` run the real message-passing sort via
        :func:`repro.runtime.driver.run_spmd`.
    trace:
        Record per-phase time and attach a
        :class:`~repro.trace.report.PhaseReport` aligning measured (SPMD
        backends), simulated, and closed-form predicted columns.  Off by
        default: the untraced hot path allocates no trace objects.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to inject; survived by the
        simulator's fault plane (simulated) or
        :class:`~repro.faults.transport.ReliableComm` (threads).
    timeout:
        Wall-clock budget for the SPMD world (ignored when simulated).
    verify:
        Check the output element-exactly against ``np.sort`` (on by
        default — the front door favours safety over benchmark purity).
    options:
        :class:`~repro.runtime.driver.BackendOptions` launch tuning for
        the SPMD backends (``procs`` arena size and spin budget).
    service:
        A running :class:`~repro.service.SortService`.  When given, the
        call routes through the service's warm world pool instead of
        spawning a one-shot world: the explicitly-passed ``algorithm`` /
        ``P`` / SPMD ``backend`` become forced planner overrides, anything
        left unsaid (including ``backend="simulated"``, which the service
        never runs) is the planner's choice.  ``options`` tunes a world's
        launch, so it is rejected on a service-routed call.
    memory_budget:
        Working-set bound in bytes.  When the estimated in-memory
        working set of ``keys`` exceeds it, the call degrades to the
        out-of-core ``external`` sort (spill-to-disk, in-process)
        instead of allocating past the budget — the same degradation the
        service's admission applies.  ``None`` disables the check.
    """
    if service is not None:
        return _sort_service(
            keys, P, algorithm, backend, trace, faults, verify,
            options, service, memory_budget,
        )
    if backend not in SORT_BACKENDS:
        raise ConfigurationError(
            f"unknown sort backend {backend!r}; choose from {list(SORT_BACKENDS)}"
        )
    keys = np.asarray(keys)
    degraded = False
    if memory_budget is not None and algorithm != "external":
        from repro.extsort import inmem_working_set_bytes

        degraded = (
            inmem_working_set_bytes(keys.size, keys.dtype.itemsize)
            > memory_budget
        )
    if algorithm == "external" or degraded:
        # The out-of-core path is backend-independent: it intercepts
        # before any substrate dispatch and runs in-process.
        return _sort_external(
            keys, P, trace, faults, verify, options, memory_budget,
            degraded=degraded,
        )
    if P is None:
        raise ConfigurationError(
            "P is required unless a service= routes the request "
            "(only the service's planner can choose P)"
        )
    algorithm = _resolve_algorithm(algorithm, backend, routed=False)
    if backend == "simulated":
        if options is not None:
            raise ConfigurationError(
                "backend options tune the SPMD backends; the simulated "
                "machine takes none"
            )
        return _sort_simulated(keys, P, algorithm, trace, faults, verify)
    return _sort_spmd(
        keys, P, algorithm, backend, trace, faults, timeout, verify, options
    )


def _sorter(algorithm: str):
    from repro.sorts import (
        BlockedMergeBitonicSort,
        CyclicBlockedBitonicSort,
        ParallelRadixSort,
        ParallelSampleSort,
        SmartBitonicSort,
    )

    return {
        "smart": SmartBitonicSort,
        "cyclic-blocked": CyclicBlockedBitonicSort,
        "blocked-merge": BlockedMergeBitonicSort,
        "radix": ParallelRadixSort,
        "sample": ParallelSampleSort,
    }[algorithm]()


def _predicted(algorithm: str, N: int, P: int):
    if algorithm not in _PREDICTABLE:
        return None
    from repro.theory.predict import predict

    return predict(algorithm, N, P)


def _sort_external(
    keys, P, trace, faults, verify, options, memory_budget,
    degraded=False,
) -> SortReport:
    """Run the out-of-core spill-to-disk sort in-process.

    Reached two ways: ``algorithm="external"`` forced, or
    ``memory_budget=`` degradation when the in-memory working set does
    not fit.  Single-host by construction: a forced-external call must
    not name a multi-rank ``P`` or SPMD options (rejected rather than
    ignored), while a *degraded* call's ``P``/options targeted the
    in-memory plan the budget just overrode — they are clamped away,
    exactly as the service planner clamps them.  Fault plans are an
    error on both routes: there is no transport to inject into.
    """
    from repro.extsort import external_sort
    from repro.sorts.base import verify_sorted

    if faults is not None and not getattr(faults, "is_null", False):
        raise ConfigurationError(
            "the external sort runs in-process with no fault transport; "
            "drop the fault plan or raise the memory budget"
        )
    if not degraded:
        if P is not None and P != 1:
            raise ConfigurationError(
                f"the external sort is single-host: P must be 1 (or "
                f"None), got {P}"
            )
        if options is not None:
            raise ConfigurationError(
                "backend options tune the SPMD backends; the external "
                "sort takes none"
            )
    budget = memory_budget if memory_budget is not None else 64 << 20
    tracer = None
    if trace:
        from repro.trace.recorder import Tracer

        tracer = Tracer(0)
    start = time.perf_counter()
    out, _ext = external_sort(keys, budget, tracer=tracer)
    wall = time.perf_counter() - start
    if verify:
        verify_sorted(keys, out, "external[local]")
    phases = tracers = None
    if trace:
        from repro.theory.predict import predict_external
        from repro.trace.report import build_phase_report

        tracers = [tracer]
        phases = build_phase_report(
            tracers=tracers,
            predicted=predict_external(
                keys.size, 1,
                memory_budget=budget,
                dtype_size=keys.dtype.itemsize,
            ),
            P=1,
            n=int(keys.size),
        )
    return SortReport(
        algorithm="external",
        backend="local",
        P=1,
        n=int(keys.size),
        sorted_keys=out,
        wall_seconds=wall,
        verified=verify,
        phases=phases,
        tracers=tracers,
    )


def _sort_service(
    keys, P, algorithm, backend, trace, faults, verify, options,
    service, memory_budget=None,
) -> SortReport:
    """Bridge the front door onto a running SortService.

    Explicit arguments become forced planner overrides; defaults mean
    "planner chooses" (``backend="simulated"`` is the front door's own
    default, so it reads as unconstrained here — the service runs only
    SPMD backends; likewise ``algorithm`` defaults to ``"auto"``, the
    planner's cross-algorithm routing).
    """
    from repro.sorts.base import verify_sorted

    algorithm = _resolve_algorithm(algorithm, backend, routed=True)
    if algorithm not in ("auto",) + BACKEND_ALGORITHMS["threads"]:
        raise ConfigurationError(
            f"the sort service runs only the SPMD algorithms "
            f"{list(BACKEND_ALGORITHMS['threads'])}; run {algorithm!r} on "
            f"backend='simulated' without a service"
        )
    forced_algorithm = None if algorithm == "auto" else algorithm
    forced_backend = None if backend == "simulated" else backend
    if forced_backend is not None and forced_backend not in SORT_BACKENDS:
        raise ConfigurationError(
            f"unknown sort backend {backend!r}; choose from {list(SORT_BACKENDS)}"
        )
    if options is not None:
        raise ConfigurationError(
            "backend options tune a world's launch; a service's worlds "
            "are already spawned — configure the service, not the request"
        )
    outcome = service.sort(
        keys,
        algorithm=forced_algorithm,
        backend=forced_backend,
        P=P,
        faults=faults,
        trace=trace,
        memory_budget=memory_budget,
    )
    d = outcome.decision
    if verify:
        verify_sorted(
            keys, outcome.sorted_keys,
            f"service[{d.algorithm}:{d.backend}x{d.P}]",
        )
    phases = None
    if trace and outcome.tracers:
        from repro.trace.report import build_phase_report

        # The last tracer is the service lane (queue wait); the phase
        # table aligns the rank tracers against simulation + theory.
        # The out-of-core sort has no simulated twin — predicted only.
        sim_stats = (
            None if d.algorithm == "external"
            else _sorter(d.algorithm).run(keys, d.P).stats
        )
        phases = build_phase_report(
            tracers=outcome.tracers[: d.P],
            stats=sim_stats,
            predicted=_predicted(d.algorithm, keys.size, d.P),
            P=d.P,
            n=keys.size // d.P,
        )
    return SortReport(
        algorithm=d.algorithm,
        backend=d.backend,
        P=d.P,
        n=keys.size // d.P,
        sorted_keys=outcome.sorted_keys,
        wall_seconds=outcome.wall_s,
        verified=verify,
        phases=phases,
        tracers=outcome.tracers,
        fault_stats=outcome.fault_stats,
    )


def _sort_simulated(keys, P, algorithm, trace, faults, verify) -> SortReport:
    from repro.faults.plan import FaultInjector
    from repro.trace.report import build_phase_report

    injector = FaultInjector(faults) if faults is not None else None
    start = time.perf_counter()
    result = _sorter(algorithm).run(keys, P, verify=verify, injector=injector)
    wall = time.perf_counter() - start
    phases = None
    if trace:
        phases = build_phase_report(
            stats=result.stats,
            predicted=_predicted(algorithm, keys.size, P),
        )
    return SortReport(
        algorithm=algorithm,
        backend="simulated",
        P=P,
        n=keys.size // P,
        sorted_keys=result.sorted_keys,
        wall_seconds=wall,
        verified=verify,
        stats=result.stats,
        phases=phases,
        fault_stats=injector.stats.as_dict() if injector is not None else {},
        retry_rounds=injector.stats.retries if injector is not None else 0,
        resent_elements=(
            injector.stats.resent_elements if injector is not None else 0
        ),
    )


def _sort_spmd(
    keys, P, algorithm, backend, trace, faults, timeout, verify, options
) -> SortReport:
    from repro.faults.plan import FaultInjector
    from repro.runtime.bitonic_spmd import spmd_bitonic_sort
    from repro.runtime.driver import run_spmd
    from repro.runtime.sample_spmd import spmd_sample_sort
    from repro.sorts.base import verify_sorted
    from repro.trace.recorder import Tracer
    from repro.trace.report import build_phase_report

    if keys.size % P:
        raise ConfigurationError(
            f"{keys.size} keys do not divide over {P} ranks"
        )
    n = keys.size // P
    injector = None
    if faults is not None and not faults.is_null:
        if backend != "threads":
            raise ConfigurationError(
                f"fault injection needs the shared address space of the "
                f"threads backend, not {backend!r} — use backend='threads' "
                "or drop the fault plan"
            )
        injector = FaultInjector(faults)

    def prog(comm):
        if trace:
            comm.tracer = Tracer(comm.rank)
        if injector is not None:
            from repro.faults.transport import ReliableComm

            comm = ReliableComm(comm, injector)
        shard = keys[comm.rank * n : (comm.rank + 1) * n]
        if algorithm == "sample":
            out = spmd_sample_sort(comm, shard)
        else:
            out = spmd_bitonic_sort(comm, shard)
        return out, comm.tracer

    start = time.perf_counter()
    parts = run_spmd(
        P, prog, timeout=timeout, backend=backend, options=options
    )
    wall = time.perf_counter() - start
    out = np.concatenate([p for p, _ in parts])
    if verify:
        verify_sorted(keys, out, f"{algorithm}-spmd[{backend}]")

    phases = tracers = None
    if trace:
        # The aligned three-source table: measured spans from this run,
        # the LogGP machine's simulation of the same (N, P), and the
        # closed-form prediction.
        tracers = [tr for _, tr in parts]
        sim = _sorter(algorithm).run(keys, P)
        phases = build_phase_report(
            tracers=tracers,
            stats=sim.stats,
            predicted=_predicted(algorithm, keys.size, P),
            P=P,
            n=n,
        )
    return SortReport(
        algorithm=algorithm,
        backend=backend,
        P=P,
        n=n,
        sorted_keys=out,
        wall_seconds=wall,
        verified=verify,
        phases=phases,
        tracers=tracers,
        fault_stats=injector.stats.as_dict() if injector is not None else {},
        retry_rounds=injector.stats.retries if injector is not None else 0,
        resent_elements=(
            injector.stats.resent_elements if injector is not None else 0
        ),
    )
