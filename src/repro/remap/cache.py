"""Memoized remap plans.

A :class:`~repro.remap.plan.RemapPlan` is pure index algebra: for a given
``(old layout, new layout, rank)`` triple it is always the same arrays.
Yet the executors rebuilt it on every call — every simulated sort, every
SPMD phase, every repetition of a benchmark paid the O(n) address
computation and the per-call ``sorted()`` of the send lists again.

:class:`RemapPlanCache` memoizes plans by value: the key is
``(N, P, old's bit assignment, new's bit assignment, rank)`` — via
:class:`~repro.layouts.base.BitFieldLayout`'s value hash — so two
schedules that derive *equal* layouts share plans even across runs and
backends.  The cached plan also carries its derived views
(``send_sorted``, ``send_concat_src``, ...) computed at most once.

The default process-wide cache is what :func:`cached_remap_plan` uses;
both :func:`repro.remap.exchange.perform_remap` and
:func:`repro.runtime.bitonic_spmd.spmd_bitonic_sort` go through it.
Simulated *time accounting is unchanged*: the simulator still charges the
``address`` computation per remap — the cache removes redundant host work,
not modeled work (the paper's nodes, too, compute each mask once and reuse
it; §3.3.1).

Plans hold index arrays of the partition size, so a cache entry costs
O(n) memory; :meth:`RemapPlanCache.clear` releases everything, and the
eviction bound keeps long sweeps over many shapes from accumulating
unboundedly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

from repro.layouts.base import BitFieldLayout
from repro.remap.plan import RemapPlan, build_remap_plan

__all__ = ["RemapPlanCache", "cached_remap_plan", "PLAN_CACHE"]


class RemapPlanCache:
    """An LRU-bounded, thread-safe memo of remap plans.

    Thread safety matters: the threads backend runs every rank of an SPMD
    world through this cache concurrently (which is also what makes it
    effective there — ``P`` ranks crossing the same phase need ``P``
    distinct plans, each built once ever instead of once per run).
    """

    def __init__(self, max_entries: int = 4096):
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Tuple, RemapPlan]" = OrderedDict()
        self._max = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, old: BitFieldLayout, new: BitFieldLayout, rank: int) -> RemapPlan:
        """The plan for ``rank`` across ``old -> new``, built on first use."""
        key = (old, new, rank)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        # Build outside the lock: construction is the expensive part, and
        # concurrent ranks miss on *different* keys almost always.  A rare
        # duplicate build for the same key is benign (plans are immutable).
        plan = build_remap_plan(old, new, rank)
        # Materialize the derived views once, while the plan is cold.
        plan.send_sorted, plan.recv_sorted  # noqa: B018 — priming caches
        plan.send_concat_src, plan.send_extents  # noqa: B018 — fused views
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self._max:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-wide default cache.
PLAN_CACHE = RemapPlanCache()


def cached_remap_plan(
    old: BitFieldLayout, new: BitFieldLayout, rank: int
) -> RemapPlan:
    """The memoized form of :func:`~repro.remap.plan.build_remap_plan`."""
    return PLAN_CACHE.get(old, new, rank)
