"""Sorting bitonic sequences (§4.2, Lemma 9).

A bitonic sequence can be sorted in linear work: locate its minimum
(Algorithm 2, ``O(log n)``), rotate so the sequence becomes
increasing-then-decreasing, and merge the ascending prefix with the reversed
descending suffix.  :func:`sort_bitonic` implements exactly that.

:func:`batched_bitonic_merge` sorts *many* bitonic sequences at once — the
rows or columns of a matrix.  The crossing remap's two computation phases
(Theorem 3) operate on ``2**b`` row-sequences of length ``2**a`` and then
``2**a`` column-sequences of length ``2**b``; on the host that is one
``np.sort`` along the lanes with the descending lanes reversed, the batched
equivalent of running every lane's merge in a single kernel.  The paper's
butterfly formulation (``lg L`` rounds of elementwise min/max between
halves) is :func:`repro.localsort.reference.batched_bitonic_merge`, its
equality-tested twin.  The simulated machine charges the work at the
paper's linear-merge rate either way
(:class:`~repro.model.machines.ComputeCosts.merge`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.localsort.bitonic_min import BitonicMinStats, argmin_bitonic
from repro.localsort.merges import merge_sorted
from repro.utils.bits import ilog2, is_power_of_two

__all__ = ["sort_bitonic", "batched_bitonic_merge"]


def sort_bitonic(
    a: np.ndarray,
    ascending: bool = True,
    stats: BitonicMinStats | None = None,
) -> np.ndarray:
    """Sort the bitonic sequence ``a``; returns a new array.

    This is the paper's bitonic merge sort: find the minimum with
    Algorithm 2, rotate the circle so it starts at the minimum (after which
    the sequence rises to a single peak and falls), and merge the rising and
    falling runs.  Linear data movement; ``O(log n)`` extra comparisons for
    the minimum.
    """
    a = np.asarray(a)
    n = a.size
    if n <= 1:
        return a.copy()
    lo = argmin_bitonic(a, stats=stats)
    rotated = np.roll(a, -lo)
    # After the rotation the sequence is increasing then decreasing (the
    # minimum is at index 0).  Find the peak: the maximum of a bitonic
    # sequence is the minimum of its negation, so Algorithm 2 applies; for
    # an increasing-then-decreasing array the peak is simply located with a
    # monotone-boundary binary search.
    peak = _peak_of_unimodal(rotated)
    merged = merge_sorted(rotated[: peak + 1], rotated[peak + 1 :][::-1])
    if not ascending:
        merged = merged[::-1].copy()
    return merged


def _peak_of_unimodal(r: np.ndarray) -> int:
    """Index of a maximum of an increasing-then-decreasing array.

    Binary search on the "still rising" predicate; with duplicate plateaus
    the search may stop anywhere on the plateau boundary, which is still a
    valid split point *provided* both sides remain sorted — so a final local
    adjustment scans the plateau linearly only when ties are detected.
    """
    n = r.size
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if r[mid] < r[mid + 1]:
            lo = mid + 1
        elif r[mid] > r[mid + 1]:
            hi = mid
        else:
            # Plateau: binary search cannot tell which side the true peak is
            # on; a linear argmax is always correct.
            return int(np.argmax(r))
    return int(lo)


def batched_bitonic_merge(
    m: np.ndarray,
    ascending,
    axis: int = 1,
) -> np.ndarray:
    """Sort every lane of ``m`` along ``axis``; each lane must be bitonic.

    Parameters
    ----------
    m:
        A 2-D array whose lanes (rows for ``axis=1``, columns for
        ``axis=0``) are bitonic sequences of power-of-two length.
    ascending:
        Either a scalar bool or a boolean array, one entry per lane,
        giving each lane's sort direction — lanes belonging to different
        merge blocks of the network sort in alternating directions
        (Lemma 6).

    Returns a new array with every lane sorted in its direction.
    """
    m = np.asarray(m)
    asc = _lane_directions(m, ascending, axis)
    if m.shape[axis] == 2:
        # One compare-exchange per lane: a single butterfly round beats
        # np.sort's per-lane overhead (4-6x at 2^17-2^21 keys on a 2-vCPU
        # Xeon, NumPy 2.4).
        return _butterfly_merge(m, asc, axis)
    desc = ~asc
    out = np.sort(m, axis=axis)
    if desc.any():
        if axis == 1:
            out[desc] = out[desc, ::-1]
        else:
            out[:, desc] = out[::-1, desc]
    return out


def _lane_directions(m: np.ndarray, ascending, axis: int) -> np.ndarray:
    """Validate a batched merge's input; returns one ascending flag per
    lane."""
    if m.ndim != 2:
        raise ConfigurationError(f"expected a 2-D array, got {m.ndim}-D")
    if axis not in (0, 1):
        raise ConfigurationError(f"axis must be 0 or 1, got {axis}")
    length = m.shape[axis]
    if length == 0 or not is_power_of_two(length):
        raise ConfigurationError(
            f"lane length must be a positive power of two, got {length}"
        )
    return np.broadcast_to(np.asarray(ascending, dtype=bool), (m.shape[1 - axis],))


def _butterfly_merge(m: np.ndarray, asc: np.ndarray, axis: int) -> np.ndarray:
    """The butterfly bitonic merge: ``lg L`` rounds of elementwise min/max
    between lane halves, vectorized across the whole matrix and run in
    place on one copy (``m`` and ``asc`` already validated)."""
    # The reshape is oriented so column lanes need no transposed copy.
    work = m.copy()
    lanes = work.shape[1 - axis]
    length = work.shape[axis]
    size = length
    while size > 1:
        half = size // 2
        if axis == 1:
            blocks = work.reshape(lanes, length // size, size)
            lo = blocks[:, :, :half]
            hi = blocks[:, :, half:]
            asc_blk = asc[:, None, None]
        else:
            blocks = work.reshape(length // size, size, lanes)
            lo = blocks[:, :half, :]
            hi = blocks[:, half:, :]
            asc_blk = asc[None, None, :]
        small = np.minimum(lo, hi)
        big = np.maximum(lo, hi)
        lo[...] = np.where(asc_blk, small, big)
        hi[...] = np.where(asc_blk, big, small)
        size = half
    return work
