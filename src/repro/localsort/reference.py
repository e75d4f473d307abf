"""The paper's local kernels, written out in NumPy: reference implementations.

The hot-path kernels (:func:`repro.localsort.radix_sort`,
:func:`~repro.localsort.merge_sorted`, :func:`~repro.localsort.p_way_merge`,
:func:`~repro.localsort.batched_bitonic_merge`) take the paper's Ch. 4 advice
literally and call the fastest local sort NumPy offers, ``np.sort``.  This
module keeps the formulations the paper describes — an LSD counting sort, a
rank-arithmetic two-way merge with its pairwise p-way tree, and the butterfly
bitonic merge at every lane length — with the same names, signatures and
input checks.  The tests
require every hot-path kernel to return exactly what its twin here returns,
and ``repro-bitonic bench`` times both next to ``np.sort``.

The simulated machine never runs either version for its clock: it charges
radix passes and merges by its cost model
(:class:`~repro.model.machines.ComputeCosts`), so which implementation sorts
the data does not move a simulated number.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.localsort.bitonic_merge_sort import _butterfly_merge, _lane_directions
from repro.localsort.merges import _nonempty_runs
from repro.localsort.radix import _check_keys, num_passes

__all__ = ["radix_sort", "merge_sorted", "p_way_merge", "batched_bitonic_merge"]

#: Rows per packed-counter chunk: 15 one-hot increments can never overflow
#: a 4-bit lane.
_CHUNK = 15


def radix_sort(
    keys: np.ndarray,
    *,
    ascending: bool = True,
    key_bits: int = 32,
    radix_bits: int = 8,
) -> np.ndarray:
    """LSD radix sort (§4.4): one stable counting-sort scatter per digit.

    The stable scatter needs each element's rank *within its digit
    bucket*, which NumPy cannot produce with a plain ``bincount``.  The
    trick here packs all 16 per-chunk digit counters into one ``uint64``
    (16 lanes x 4 bits, rows chunked in groups of 15 so no lane
    overflows): a single vectorized ``cumsum`` over the packed one-hot
    encodings yields, at every element, the running count of each digit
    value — the within-chunk rank — and the final row per chunk is the
    chunk histogram.  Chunk-exclusive and digit-exclusive scans then
    complete the classic counting-sort address ``base[digit] + rank``,
    one O(n) scatter per pass and no ``argsort`` anywhere.  The packed
    lanes bound a sub-digit at 4 bits, so a ``radix_bits``-wide digit is
    processed as consecutive 4-bit sub-passes covering exactly the same
    bit range — stable LSD passes over any partition of the same bits
    produce identical output.
    """
    keys = _check_keys(keys)
    if keys.size <= 1:
        return keys.copy()
    total_bits = num_passes(key_bits, radix_bits) * radix_bits
    out = _counting_sort_passes(keys.copy(), total_bits)
    if not ascending:
        out = out[::-1].copy()
    return out


def _counting_sort_passes(out: np.ndarray, total_bits: int) -> np.ndarray:
    """Stable LSD counting-sort scatters over bits ``[0, total_bits)`` of
    ``out`` (which is consumed as scratch), 4 bits at a time."""
    n = out.size
    # Index math in int32 when it fits: it halves the memory traffic of the
    # big rank/position arrays, which dominates at large n.
    idt = np.int32 if n < (1 << 31) else np.int64
    C = -(-n // _CHUNK)  # number of chunks
    pad = C * _CHUNK - n
    chunk_id = np.repeat(np.arange(C, dtype=idt), _CHUNK)[:n]
    enc = np.zeros(C * _CHUNK, dtype=np.uint64)
    lanes4 = (np.arange(16, dtype=np.uint64) << np.uint64(2))[:, None]
    new = np.empty_like(out)
    shift = 0
    while shift < total_bits:
        width = min(4, total_bits - shift)
        digit_mask = (1 << width) - 1
        d = ((out >> shift) & out.dtype.type(digit_mask)).astype(np.uint64)
        lane = d << np.uint64(2)  # 4-bit lane offset of each digit value
        # Packed one-hot: incrementing digit v adds 1 to lane v.
        np.left_shift(np.uint64(1), lane, out=enc[:n])
        if pad:
            enc[n:] = 0
        packed = enc.reshape(C, _CHUNK)
        # One cumsum = 16 running per-digit counters, all rows at once.
        np.cumsum(packed, axis=1, out=packed)
        # Unpack per-chunk histograms as (16, C) — digit-major, so the
        # across-chunk scan below runs over contiguous memory.
        hist = ((packed[:, -1][None, :] >> lanes4) & np.uint64(15)).astype(idt)
        before = np.cumsum(hist, axis=1)  # inclusive over chunks …
        totals = before[:, -1].copy()  # … whose last column is the global histogram
        before -= hist  # exclusive: earlier chunks only
        base = np.cumsum(totals) - totals  # exclusive scan over digit values
        # Running counter *including self*, hence the -1 for a 0-based rank.
        rank = ((packed.ravel()[:n] >> lane) & np.uint64(15)).astype(idt) - 1
        di = d.astype(idt)
        pos = base[di]
        pos += before.ravel()[di * idt(C) + chunk_id]
        pos += rank
        new[pos] = out
        out, new = new, out
        shift += width
    return out


def merge_sorted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-way merge by rank arithmetic: each element's output position is
    its own index plus the number of elements of the other array that
    precede it (``searchsorted``), then one scatter.  Ties favour ``x``."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.size == 0:
        return y.copy()
    if y.size == 0:
        return x.copy()
    out = np.empty(x.size + y.size, dtype=np.result_type(x, y))
    pos_x = np.arange(x.size) + np.searchsorted(y, x, side="left")
    pos_y = np.arange(y.size) + np.searchsorted(x, y, side="right")
    out[pos_x] = x
    out[pos_y] = y
    return out


def p_way_merge(runs: Sequence[np.ndarray]) -> np.ndarray:
    """p-way merge as a pairwise tree of :func:`merge_sorted`:
    ``ceil(lg p)`` levels, each touching every element once — the paper's
    "fast p-way merge sort" for unpack-free reception (§4.3)."""
    level: List[np.ndarray] = _nonempty_runs(runs)
    while len(level) > 1:
        nxt: List[np.ndarray] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(merge_sorted(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def batched_bitonic_merge(
    m: np.ndarray,
    ascending,
    axis: int = 1,
) -> np.ndarray:
    """Butterfly bitonic merge of every lane of ``m`` along ``axis`` at
    every lane length: ``lg L`` rounds of elementwise min/max between lane
    halves (the hot path runs it only for two-element lanes)."""
    m = np.asarray(m)
    return _butterfly_merge(m, _lane_directions(m, ascending, axis), axis)
