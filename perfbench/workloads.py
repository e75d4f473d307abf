"""The two workloads, each driving the program only through a public
entry point: ``repro.sort`` (bulk-2e22) and ``ShardRouter`` ->
``SortClient`` -> ``SortServer`` -> ``SortService`` (wire-mixed).

Every input is a ``uint32`` array from ``repro.make_keys`` whose seed is
derived from the run's ``--seed`` and the request's index, so a seed
fixes every input.  Each output is compared with ``np.sort`` of the same
input outside the timed interval; that ``np.sort``, timed, is the
denominator of ``npsort_ratio``.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

#: Percentiles the tail is chosen from: the highest that leaves at least
#: ``TAIL_MIN_BEYOND`` samples beyond it (the median when none does).
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

BULK_KEYS = 1 << 22
BULK_P = 2
#: The front-door cycle, in this fixed order.
BULK_CONFIGS = (
    ("smart", "threads"), ("smart", "procs"),
    ("sample", "threads"), ("sample", "procs"),
)

WIRE_SMALL = 1 << 20
WIRE_BIG = 1 << 22
WIRE_BUDGET = 16 << 20
WIRE_DISTS = ("uniform", "gaussian", "low-entropy")
#: One cycle: every fifth request is big (spills), distributions rotate;
#: 15 is the smallest cycle in which both patterns line up.
WIRE_CYCLE = 15


#: ``np.sort`` runs per array for the ratio's denominator; the fastest
#: counts, so a preempted run does not move the yardstick.
NPSORT_REPS = 3


def timed_npsort(keys: np.ndarray) -> Tuple[np.ndarray, float]:
    """``np.sort(keys)`` and its fastest time over ``NPSORT_REPS`` runs."""
    best = float("inf")
    for _ in range(NPSORT_REPS):
        start = perf_counter()
        expect = np.sort(keys)
        best = min(best, perf_counter() - start)
    return expect, best


def request_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def wire_shape(j: int) -> Tuple[int, str]:
    return (WIRE_BIG if j % 5 == 4 else WIRE_SMALL), WIRE_DISTS[j % 3]


def tail_percentile(n: int) -> float:
    """The highest of ``TAIL_PERCENTILES`` with ``TAIL_MIN_BEYOND``
    samples beyond it among ``n``."""
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            best = q
    return best


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass
class Tally:
    """Outcome counts of one measured phase."""

    attempted: int = 0
    correct: int = 0
    mismatches: int = 0
    errors: Counter = field(default_factory=Counter)

    def fail(self, exc: BaseException) -> None:
        """Count a raised call.  The program's own output check
        (``repro.sort``'s default ``verify=True``, also relayed over the
        wire) raises before ours can compare, so it is a mismatch."""
        from repro.errors import VerificationError

        if isinstance(exc, VerificationError):
            self.mismatches += 1
        else:
            self.errors[type(exc).__name__] += 1

    @property
    def failed(self) -> int:
        return self.mismatches + sum(self.errors.values())


@dataclass
class Sample:
    """One correct closed-loop call."""

    cls: Any
    keys: int
    seconds: float
    npsort_s: float
    latency: bool  # counts towards latency_*


@dataclass
class Measurement:
    """What one timed phase produced; ``run.py`` turns it into metrics.

    The closed loop fills ``samples`` and names the class of each
    position of one cycle in ``cycle``; :meth:`close_cycle_rates` turns
    them into the rates and latencies."""

    tally: Tally = field(default_factory=Tally)
    latencies: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    cycle: Tuple[Any, ...] = ()
    keys_per_s: float = 0.0
    npsort_ratio: float = 0.0
    notes: Dict[str, Any] = field(default_factory=dict)

    def close_cycle_rates(self) -> None:
        """Per class, the median call time and the median ``np.sort``
        time of its arrays; one cycle's keys over the sum of its
        positions' medians.  Medians keep a stalled call from moving the
        figure; whole cycles keep the mix fixed."""
        used: Dict[Any, List[Sample]] = {}
        for smp in self.samples:
            used.setdefault(smp.cls, []).append(smp)
        self.latencies = [smp.seconds for smp in self.samples if smp.latency]
        if any(cls not in used for cls in self.cycle):
            return  # a class never succeeded: no rate to report
        med_t = {c: statistics.median(s.seconds for s in g)
                 for c, g in used.items()}
        med_np = {c: statistics.median(s.npsort_s for s in g)
                  for c, g in used.items()}
        keys = sum(used[c][0].keys for c in self.cycle)
        cycle_s = sum(med_t[c] for c in self.cycle)
        self.keys_per_s = keys / cycle_s
        self.npsort_ratio = cycle_s / sum(med_np[c] for c in self.cycle)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.next_index = 0
        self.probes = None  # a LayerProbes during the traced phase

    def keys(self, size: int, dist: str = "uniform") -> np.ndarray:
        import repro

        index = self.next_index
        self.next_index += 1
        return repro.make_keys(
            size, distribution=dist, seed=request_seed(self.seed, index)
        )

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, trace: bool) -> Measurement:
        raise NotImplementedError

    def attach(self, probes: Any) -> None:
        """Attach workload-specific probes for the traced phase."""
        self.probes = probes

    def teardown(self) -> None:
        pass

    def _closed_call(self, m: Measurement, cls: Any, keys: np.ndarray,
                     run, observe, latency: bool = True) -> float:
        """One closed-loop call ``run(keys)``, checked against
        ``np.sort`` outside the timed interval; returns its seconds."""
        expect, np_s = timed_npsort(keys)
        m.tally.attempted += 1
        start = perf_counter()
        try:
            result = run(keys)
        except Exception as exc:  # noqa: BLE001 — counted by class
            m.tally.fail(exc)
            return perf_counter() - start
        elapsed = perf_counter() - start
        if self.probes is not None:
            observe(result, elapsed)
        if np.array_equal(result.sorted_keys, expect):
            m.tally.correct += 1
            m.samples.append(Sample(cls, keys.size, elapsed, np_s, latency))
        else:
            m.tally.mismatches += 1
        return elapsed

    def _closed_loop(self, seconds: float, cycle: Tuple[Any, ...],
                     call) -> Measurement:
        """Whole cycles of ``call(m, position)`` until ``seconds`` of
        call time are spent."""
        m = Measurement(cycle=cycle)
        spent = 0.0
        while spent < seconds:
            for position in range(len(cycle)):
                spent += call(m, position)
        m.close_cycle_rates()
        return m


class BulkFrontDoor(Workload):
    """Closed loop, one caller: ``repro.sort`` on 2^22 uniform keys,
    P=2, default ``verify=True``, cycling smart/sample x threads/procs."""

    name = "bulk-2e22"

    def _call(self, m: Measurement, position: int, trace: bool) -> float:
        import repro

        alg, backend = BULK_CONFIGS[position]
        return self._closed_call(
            m, f"{alg}/{backend}", self.keys(BULK_KEYS),
            lambda keys: repro.sort(keys, P=BULK_P, algorithm=alg,
                                    backend=backend, trace=trace),
            lambda report, _elapsed: self.probes.observe_front_door(report),
        )

    def setup(self) -> None:
        # Warm both algorithms on threads: the cold remap plans land in
        # the process-wide cache, which forked procs ranks inherit.
        warm = Measurement()
        for position, (_alg, backend) in enumerate(BULK_CONFIGS):
            if backend == "threads":
                self._call(warm, position, False)
        if warm.tally.failed:
            raise RuntimeError(f"warm-up failed: {warm.tally}")

    def measure(self, seconds: float, trace: bool) -> Measurement:
        return self._closed_loop(
            seconds, tuple(f"{a}/{b}" for a, b in BULK_CONFIGS),
            lambda m, position: self._call(m, position, trace),
        )


class WireMixed(Workload):
    """Closed loop, one caller, one connection: ``ShardRouter`` (health
    checks on) -> ``SortClient`` -> ``SortServer`` ->
    ``SortService(memory_budget=16 MiB)`` on loopback, planner-routed."""

    name = "wire-mixed"

    def setup(self) -> None:
        from repro.service import ShardRouter, SortClient, SortServer, SortService

        self.service = SortService(
            memory_budget=WIRE_BUDGET,
            spill_root=os.path.join(self.work_dir, "spill"),
        )
        self.server = SortServer(self.service, own_service=True)
        self.client = SortClient(self.server.start())
        self.router = ShardRouter({"shard0": self.client})
        self.router.start_health_checks()
        warm = Measurement()
        for j in range(5):
            self._call(warm, j, False)
        if warm.tally.failed:
            raise RuntimeError(f"warm-up failed: {warm.tally}")

    def attach(self, probes: Any) -> None:
        super().attach(probes)
        probes.attach_service(self.service)
        probes.attach_wire(self.client, self.router)

    def _call(self, m: Measurement, j: int, trace: bool) -> float:
        size, dist = wire_shape(j)
        return self._closed_call(
            m, (size, dist), self.keys(size, dist),
            lambda keys: self.router.sort(keys, algorithm="auto", trace=trace),
            lambda out, elapsed: self.probes.observe_wire(out, elapsed),
            # latency_* covers the in-memory requests; spills apart.
            latency=size == WIRE_SMALL,
        )

    def measure(self, seconds: float, trace: bool) -> Measurement:
        m = self._closed_loop(
            seconds, tuple(wire_shape(j) for j in range(WIRE_CYCLE)),
            lambda m, j: self._call(m, j, trace),
        )
        m.notes["spill"] = [smp.seconds for smp in m.samples
                            if smp.cls[0] == WIRE_BIG]
        return m

    def teardown(self) -> None:
        self.router.close()
        self.client.close()
        self.server.close()


WORKLOADS = {w.name: w for w in (BulkFrontDoor, WireMixed)}
