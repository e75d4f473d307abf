"""Algorithm 1 as a genuine SPMD message-passing program.

This is how a user would implement the paper's sort on a real machine: each
rank owns its ``n`` keys, derives the smart remap schedule from ``(N, P)``
(pure index algebra — every rank computes the same schedule, no
coordination needed), and alternates merge-based local phases with
``alltoallv`` exchanges whose buckets come straight from the remap plan's
pack indices.

It deliberately shares *no execution machinery* with the simulator version
(:class:`~repro.sorts.smart.SmartBitonicSort`): no ``Machine``, no
``perform_remap`` — only the layout algebra, the local kernels, and a
:class:`~repro.runtime.api.Comm`.  The tests cross-check the two
implementations element for element, and run this one concurrently on the
threads backend where real races would surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import CommunicationError

if TYPE_CHECKING:  # pragma: no cover — avoid a runtime->faults import cycle
    from repro.faults.checkpoint import CheckpointStore
from repro.layouts.schedule import smart_schedule
from repro.layouts.smart import smart_params
from repro.localsort.radix import radix_sort
from repro.remap.cache import cached_remap_plan
from repro.remap.groups import remap_group
from repro.runtime.api import Comm
from repro.sorts.smart import SmartBitonicSort
from repro.trace.recorder import trace_span
from repro.utils.bits import ilog2

__all__ = ["spmd_bitonic_sort"]


def spmd_bitonic_sort(
    comm: Comm,
    local_keys: np.ndarray,
    key_bits: int = 32,
    radix_bits: int = 8,
    checkpoint: Optional["CheckpointStore"] = None,
) -> np.ndarray:
    """Sort the distributed array whose rank-``r`` partition is
    ``local_keys``, returning this rank's partition of the globally sorted
    (blocked) result.

    Every rank must hold the same power-of-two number of keys.

    With a :class:`~repro.faults.checkpoint.CheckpointStore` the rank
    snapshots its shard after the initial local sort (stage 0) and after
    every remap phase (stage *i*); if the store already holds snapshots —
    this run is a restart after a crash — all ranks agree on the newest
    stage everyone completed and resume from it instead of re-sorting.
    Fault-aware communicators (:class:`~repro.faults.transport.ReliableComm`)
    are phase-labelled via their ``set_phase`` hook so errors and injected
    faults can name the sort phase they hit.

    Every remap is the §4.3 fused pack/transfer/unpack, scoped to its
    Lemma-4 communication group of ``2**N_BitsChanged`` ranks: one
    :meth:`~repro.runtime.api.Comm.alltoallv_fused` call whose fast path
    gathers straight into the transport and scatters straight into the
    destination buffer.  The ``pack`` span is the fused surcharge (moving
    the kept elements) and there is no ``unpack`` span.  Communicators
    without a native fast path (e.g. the fault-injection transport) run
    the same semantics through the composed ``Comm`` defaults.

    When ``comm.tracer`` carries a :class:`~repro.trace.recorder.Tracer`,
    the sort records its phase spans (``local_sort`` and per-remap
    ``address`` / ``pack`` / ``transfer`` /
    ``merge``) plus a ``remaps`` counter; the communicator's own ``wait``
    spans nest inside.  With no tracer the instrumentation is a
    zero-allocation no-op.
    """
    data = np.asarray(local_keys).copy()
    P, r = comm.size, comm.rank
    n = data.size
    set_phase = getattr(comm, "set_phase", None)
    # With no tracer armed every trace_span below is one shared no-op
    # context — the hot path allocates nothing (tests pin this).
    tracer = getattr(comm, "tracer", None)

    # Agree on the problem shape (and catch ragged partitions early).
    sizes = comm.allgather(n)
    if len(set(sizes)) != 1:
        raise CommunicationError(
            f"ranks hold unequal partitions: {sizes} — the bitonic network "
            "needs the same n everywhere"
        )
    if P == 1:
        with trace_span(tracer, "local_sort"):
            return radix_sort(data, key_bits=key_bits, radix_bits=radix_bits)
    N = n * P
    schedule = smart_schedule(N, P)  # same on every rank: pure algebra
    lgn = ilog2(n)

    # Restart support: resume from the newest stage every rank completed
    # (stage 0 = after the initial local sort, stage i = after phase i).
    resume = -1
    if checkpoint is not None:
        resume = min(comm.allgather(checkpoint.latest_stage(r)))

    if set_phase is not None:
        set_phase("local-sort", 0)
    if resume >= 0:
        restored = checkpoint.load(r, resume)
        if restored is None:
            raise CommunicationError(
                f"rank {r}: checkpoint for agreed resume stage {resume} "
                "is missing (store pruned too aggressively?)"
            )
        data = restored
    else:
        # First lg n stages: one local sort, alternating direction (Lemma 6).
        with trace_span(tracer, "local_sort"):
            data = radix_sort(data, ascending=(r % 2 == 0),
                              key_bits=key_bits, radix_bits=radix_bits)
        if checkpoint is not None:
            checkpoint.save(r, 0, data)

    layout = (
        schedule.initial_layout if resume < 1
        else schedule.phases[resume - 1].layout
    )
    for stage, phase in enumerate(schedule.phases, start=1):
        if stage <= resume:
            continue  # completed before the crash; restored above
        if set_phase is not None:
            set_phase(f"phase-{stage}", stage)
        if tracer is not None:
            tracer.add("remaps")
        with trace_span(tracer, "address", stage):
            plan = cached_remap_plan(layout, phase.layout, r)
            # Lemma 4: this remap only exchanges within a group of
            # 2**N_BitsChanged ranks — pure bit algebra, no coordination.
            group = remap_group(layout, phase.layout, r)
        # Fused pack/transfer/unpack (§4.3): the surviving pack work is
        # moving the kept elements; the collective gathers the departing
        # ones straight from ``data`` and scatters arrivals straight into
        # ``fresh`` — no buckets, no concatenate.
        with trace_span(tracer, "pack", stage):
            fresh = np.empty_like(data)
            fresh[plan.keep_dst] = data[plan.keep_src]
        with trace_span(tracer, "transfer", stage):
            comm.alltoallv_fused(data, plan, fresh, group=group)
        data = fresh
        layout = phase.layout
        # Local computation (Theorems 2/3) — the shared merge kernel.
        with trace_span(tracer, "merge", stage):
            params = smart_params(N, P, *phase.columns[0])
            data = SmartBitonicSort._merge_local(data, layout, params, lgn, r)
        if checkpoint is not None:
            checkpoint.save(r, stage, data)
    return data
