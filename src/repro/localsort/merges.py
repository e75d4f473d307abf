"""Merges of sorted runs.

After a long-message remap each incoming message is itself sorted (it was
produced by a sender whose local phase ended in sorted runs — §4.3), so the
receiving processor can rebuild its local array with a p-way merge instead
of a general sort.  Both merges here are one in-place sort of the
concatenated runs.  Integer keys take NumPy's default sort kind: equal
integers are bit-identical, so any kind yields the merge's bytes, and the
default kind measured 1.2x (2 runs) to 6x (64 runs) faster than timsort
at 2^21 keys (2-vCPU Xeon, NumPy 2.4).  Other dtypes (floats tell ``0.0``
from ``-0.0``) take ``kind="stable"``: timsort merges the presorted runs
in O(n lg p) and keeps equal keys in run order, so ties favour the
earlier run exactly as a left-to-right merge would.  The rank-arithmetic
merge and its pairwise tree are
:func:`repro.localsort.reference.merge_sorted` and
:func:`~repro.localsort.reference.p_way_merge`, their equality-tested
twins.

The simulated machine charges merges at one
:class:`~repro.model.machines.ComputeCosts.merge` unit per element per
two-way merge level, which is the linear cost the paper's Lemma 9 assigns.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["merge_sorted", "p_way_merge"]


def merge_sorted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Merge two ascending-sorted arrays into one ascending-sorted array.

    Ties are broken in favour of ``x`` (stable left-to-right), which makes
    the merge deterministic.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.size == 0:
        return y.copy()
    if y.size == 0:
        return x.copy()
    return _sort_runs(np.concatenate([x, y]))


def p_way_merge(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Merge ``p`` ascending-sorted runs into one ascending-sorted array.

    The paper's "fast p-way merge sort" for unpack-free reception
    (§4.3).  The sort runs in place on the concatenation, so the peak is
    the concatenation plus the sort's scratch: none for integer keys,
    timsort's at most half of it otherwise — callers that budget memory
    rely on that bound.
    """
    return _sort_runs(np.concatenate(_nonempty_runs(runs)))


def _sort_runs(merged: np.ndarray) -> np.ndarray:
    """Sort the concatenated runs in place; ties keep run order."""
    stable = not np.issubdtype(merged.dtype, np.integer)
    merged.sort(kind="stable" if stable else None)
    return merged


def _nonempty_runs(runs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The non-empty runs as arrays; at least one must exist."""
    runs = [np.asarray(r) for r in runs if np.asarray(r).size > 0]
    if not runs:
        raise ConfigurationError("p_way_merge needs at least one non-empty run")
    return runs
