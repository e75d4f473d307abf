"""Optimized local computation (Chapter 4 of the paper).

Instead of simulating compare-exchange steps one network column at a time,
each processor's local phase is replaced by fast sorting kernels that exploit
the known shape of the data (Lemmas 6/7, Theorems 2/3):

* :mod:`repro.localsort.radix` — the local sort of the first ``lg n``
  stages (which just have to produce one monotonic run per processor);
* :mod:`repro.localsort.bitonic_min` — Algorithm 2: the minimum of a bitonic
  sequence in ``O(log n)`` comparisons (with a linear fallback for duplicate
  minima);
* :mod:`repro.localsort.bitonic_merge_sort` — sorting a bitonic sequence in
  linear work (Lemma 9): rotate at the minimum, then merge the two monotonic
  runs; plus a batched merge for sorting many rows/columns of bitonic
  sequences at once;
* :mod:`repro.localsort.merges` — two-way and p-way merges of sorted runs
  (used after a remap whose incoming long messages are each sorted, §4.3).

The paper's argument is to use "the fastest local sort available"; under
NumPy that is ``np.sort``.  So the hot-path kernels ``radix_sort``,
``merge_sorted``, ``p_way_merge`` and ``batched_bitonic_merge`` keep their
names, signatures, input checks and output contracts but run on NumPy's
sort, and ``sort_bitonic`` keeps Algorithm 2 and reaches the native merge
through ``merge_sorted``.  The paper's formulations — the LSD counting
sort, the rank-arithmetic merge with its pairwise tree and the butterfly
bitonic merge — live in :mod:`repro.localsort.reference` as the twins the
tests compare against.  The simulated machine charges radix passes and
merges by its cost model, not by host wall time, so the choice of kernel
leaves every simulated number unchanged.
"""

from repro.localsort.radix import radix_sort
from repro.localsort.bitonic_min import (
    argmin_bitonic,
    argmin_bitonic_linear,
    BitonicMinStats,
)
from repro.localsort.bitonic_merge_sort import (
    batched_bitonic_merge,
    sort_bitonic,
)
from repro.localsort.merges import merge_sorted, p_way_merge
from repro.localsort.fused import (
    compose_permutation,
    fused_sort_and_pack,
    sort_bitonic_with_perm,
)

__all__ = [
    "compose_permutation",
    "fused_sort_and_pack",
    "sort_bitonic_with_perm",
    "radix_sort",
    "argmin_bitonic",
    "argmin_bitonic_linear",
    "BitonicMinStats",
    "sort_bitonic",
    "batched_bitonic_merge",
    "merge_sorted",
    "p_way_merge",
]
