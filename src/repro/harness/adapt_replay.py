"""Record/replay proof harness for the online-adaptation loop.

The claim behind :mod:`repro.service.adapt` is operational, not
numerical: *when the calibrated model drifts from the machine, a service
that folds its own measurements back into the planner re-routes and
recovers; a frozen-profile service keeps dispatching into the model's
mistake.*  This harness makes that claim reproducible:

1. **Record** a mixed-shape load trace — a deterministic request
   sequence (sizes, tracing cadence) generated from a
   seed and persisted as JSON, so both replays see byte-identical load.
2. **Drift** the host profile the way real hosts drift from one-shot
   calibration (the BSP sorting studies' observation): the replay
   profile believes the machine has cores to spare and near-free
   intra-world synchronization, which prices wide worlds far below what
   this host delivers.  *Both* services plan from this same drifted
   profile — the only difference between them is the feedback loop.
3. **Replay** the trace twice: once through an adapting service
   (planner + :class:`~repro.service.adapt.RequestAdapter`, autoscaling
   pool), once through a frozen static service (``adapter=None``) —
   and emit a ``repro-bitonic-bench/7`` document whose
   ``adapted_over_static`` ratio (static wall over adapted wall) CI
   gates at >= 1.0.

The adapting replay runs *first*, so interpreter/NumPy warm-up costs
land on the adapted side — the gate is conservative.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.harness.bench import BENCH_SCHEMA, _usable_cpus, write_bench
from repro.service.adapt import RequestAdapter
from repro.service.planner import Planner
from repro.service.pool import WorldPool
from repro.service.profile import HostProfile
from repro.service.service import SortService

__all__ = [
    "LOAD_SCHEMA",
    "drift_profile",
    "record_load_trace",
    "replay_load_trace",
    "run_adapt_replay",
]

#: Schema of a persisted load trace (the recorded request sequence).
LOAD_SCHEMA = "repro-bitonic-load/1"

#: World sizes the replay planner chooses between.  Kept narrow so the
#: replay is fast and the drift story is crisp: the drifted model prices
#: the widest world cheapest, the machine disagrees, and the adapting
#: service walks back down to the world size the host actually rewards.
_REPLAY_CANDIDATE_P = (1, 2, 8)


def record_load_trace(
    requests: int = 200,
    sizes: Sequence[int] = (4096, 16384),
    seed: int = 0,
    trace_every: int = 5,
) -> Dict[str, Any]:
    """A deterministic mixed-shape load trace.

    Every ``trace_every``-th request runs traced (feeding the adapter
    phase deviations).  Replays also honour per-request ``P`` and
    ``algorithm`` overrides when a hand-written trace carries them.
    """
    rng = np.random.default_rng(seed)
    reqs: List[Dict[str, Any]] = []
    for i in range(requests):
        reqs.append(
            {
                "keys": int(sizes[int(rng.integers(len(sizes)))]),
                "seed": int(rng.integers(1 << 31)),
                "trace": trace_every > 0 and i % trace_every == 0,
            }
        )
    return {
        "schema": LOAD_SCHEMA,
        "seed": seed,
        "sizes": [int(s) for s in sizes],
        "requests": reqs,
    }


def save_load_trace(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_load_trace(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != LOAD_SCHEMA:
        raise ValueError(
            f"{path}: load-trace schema {doc.get('schema')!r} != "
            f"{LOAD_SCHEMA!r}"
        )
    return doc


def drift_profile(
    profile: Optional[HostProfile] = None, comm_scale: float = 0.05
) -> HostProfile:
    """Simulate calibration drift: the profile believes this host has
    eight cores per actual core and thread synchronization at 5% of its
    calibrated cost.  Both distortions touch only the terms that grow
    with ``P``, so the single-rank price stays honest while wide worlds
    on small shards — overhead-bound on any real host — price *below*
    the single rank: the persistent mispick the static replay keeps
    dispatching into.  The mispricing is deliberately modest (the wide
    world wins statically by ~1.1-1.4x), so the corrections the adapter
    needs to reorder the candidates sit well inside its ``[0.25, 4.0]``
    clamp."""
    profile = profile or HostProfile.default()
    threads = profile.backends["threads"]
    return replace(
        profile,
        cpus=profile.cpus * 8,
        backends={
            **profile.backends,
            "threads": replace(
                threads,
                L=threads.L * comm_scale,
                o=threads.o * comm_scale,
                g=threads.g * comm_scale,
                G=threads.G * comm_scale,
            ),
        },
        source=f"{profile.source}+drift",
    )


def _make_service(
    profile: HostProfile, adapting: bool, trace_default: bool = False
) -> SortService:
    adapter = (
        RequestAdapter(profile, alpha=0.3, decay_s=3600.0)
        if adapting else None
    )
    planner = Planner(
        profile=profile,
        backends=("threads",),
        candidate_P=_REPLAY_CANDIDATE_P,
        adapter=adapter,
    )
    pool = WorldPool(
        max_idle_per_key=2,
        idle_ttl_s=30.0,
        autoscale=adapting,
        tick_interval_s=0.25,
        max_worlds_per_key=3,
    )
    return SortService(
        planner=planner,
        pool=pool,
        queue_depth=64,
        batch_max=4,
        trace=trace_default,
    )


def replay_load_trace(
    trace_doc: Dict[str, Any], profile: HostProfile, adapting: bool
) -> Dict[str, Any]:
    """Run the recorded load through one service; measured summary."""
    service = _make_service(profile, adapting)
    walls: List[float] = []
    decision_mix: Dict[str, int] = {}
    started = time.perf_counter()
    try:
        for req in trace_doc["requests"]:
            rng = np.random.default_rng(req["seed"])
            keys = rng.integers(
                0, 1 << 32, size=req["keys"], dtype=np.uint32
            )
            outcome = service.sort(
                keys,
                trace=bool(req.get("trace", False)),
                P=req.get("P"),
                algorithm=req.get("algorithm"),
            )
            walls.append(outcome.wall_s)
            d = outcome.decision
            name = f"{d.algorithm}:{d.backend}x{d.P}"
            decision_mix[name] = decision_mix.get(name, 0) + 1
        total_s = time.perf_counter() - started
        report = service.report()
    finally:
        service.close()
    walls.sort()

    def pct(q: float) -> float:
        if not walls:
            return 0.0
        return walls[min(len(walls) - 1, max(0, round(q * (len(walls) - 1))))]

    return {
        "adapting": adapting,
        "requests": len(walls),
        "total_s": total_s,
        "sum_wall_s": sum(walls),
        "p50_s": pct(0.5),
        "p99_s": pct(0.99),
        "decision_mix": dict(sorted(decision_mix.items())),
        "pool": report.pool,
        "adapt": report.adapt,
    }


def run_adapt_replay(
    requests: int = 200,
    sizes: Sequence[int] = (4096, 16384),
    seed: int = 0,
    profile_path: Optional[str] = None,
    load_path: Optional[str] = None,
    out: Optional[str] = None,
    drift: bool = True,
) -> Dict[str, Any]:
    """Record (or reload) a load trace, replay it adapted and static,
    and return (optionally write) the BENCH_SCHEMA /7 document.

    ``drift=False`` replays against the undrifted profile — useful to
    check the adapter does no harm when the model is already right.
    """
    if load_path:
        trace_doc = load_load_trace(load_path)
    else:
        trace_doc = record_load_trace(requests, sizes, seed)
    base = (
        HostProfile.load(profile_path) if profile_path
        else HostProfile.default()
    )
    profile = drift_profile(base) if drift else base
    # Adapted replay first: interpreter/NumPy warm-up lands on the
    # adapted side, making the >= 1.0 gate conservative.
    adapted = replay_load_trace(trace_doc, profile, adapting=True)
    static = replay_load_trace(trace_doc, profile, adapting=False)
    ratio = (
        static["sum_wall_s"] / adapted["sum_wall_s"]
        if adapted["sum_wall_s"] > 0 else float("inf")
    )
    doc = {
        "schema": BENCH_SCHEMA,
        "host": {
            "cpu_count": _usable_cpus(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": {
            "requests": len(trace_doc["requests"]),
            "sizes": trace_doc.get("sizes"),
            "seed": trace_doc.get("seed"),
            "drift": drift,
            "profile_source": profile.source,
            "candidate_P": list(_REPLAY_CANDIDATE_P),
        },
        "adapt_replay": {
            "static": static,
            "adapted": adapted,
            "adapted_over_static": ratio,
        },
    }
    if out:
        write_bench(doc, out)
    return doc
