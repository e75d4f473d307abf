"""The local sort of the first ``lg n`` network stages (§4.4).

The paper sorts each processor's keys with a local LSD radix sort because
it was the fastest local sort available on its machine ("since the keys
are in a specified range we used radix-sort which also takes O(n) time").
Under NumPy the fastest exact local sort is ``np.sort``, so
:func:`radix_sort` keeps the LSD contract — sort by the low
``num_passes(key_bits, radix_bits) * radix_bits`` bits, stably — and
delegates to it: a full-width digit range is a plain ``np.sort`` of the
keys' bits, a narrower one a stable ``argsort`` of the masked keys, which
is exactly what the LSD passes compute.  The packed-lane counting sort
that spells out the passes is :func:`repro.localsort.reference.radix_sort`,
its equality-tested twin.  The *simulated machine* charges radix sort at
the paper's cost of one linear pass per ``radix_bits`` digit
(:class:`repro.model.machines.ComputeCosts.radix_pass`), so the accounting
follows the algorithm, not the host kernel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["radix_sort", "num_passes"]


def num_passes(key_bits: int, radix_bits: int) -> int:
    """Number of counting-sort passes to cover ``key_bits``-bit keys."""
    if key_bits < 1 or radix_bits < 1:
        raise ConfigurationError("key_bits and radix_bits must be >= 1")
    return -(-key_bits // radix_bits)


def radix_sort(
    keys: np.ndarray,
    *,
    ascending: bool = True,
    key_bits: int = 32,
    radix_bits: int = 8,
) -> np.ndarray:
    """Sort ``keys`` (an unsigned integer array) and return a new array.

    Signed keys are ordered by their two's-complement bits, as LSD passes
    order them.

    Parameters
    ----------
    ascending:
        Sort direction.  Descending sorts are needed because alternating
        processors must produce alternating monotonic runs (Lemma 6).
    key_bits:
        How many low bits of the keys are significant (31 for the paper's
        key range); passes beyond these bits are skipped.
    radix_bits:
        Digit width per accounted pass (8 → byte-at-a-time, the classic
        choice); the covered bit range is rounded up to whole digits,
        exactly as one counting sort per digit would.
    """
    keys = _check_keys(keys)
    if keys.size <= 1:
        return keys.copy()
    total_bits = num_passes(key_bits, radix_bits) * radix_bits
    # LSD passes see the two's-complement bits, i.e. the unsigned view —
    # of the native-order values: a byte-swapped view of non-native keys
    # (``>u4`` on a little-endian host) would order them by swapped bytes.
    native = keys.astype(keys.dtype.newbyteorder("="), copy=False)
    bits = native.view(f"u{keys.dtype.itemsize}")
    if total_bits >= 8 * keys.dtype.itemsize:
        out = np.sort(bits).view(native.dtype).astype(keys.dtype, copy=False)
    else:
        low = bits & bits.dtype.type((1 << total_bits) - 1)
        out = keys[np.argsort(low, kind="stable")]
    if not ascending:
        out = out[::-1].copy()
    return out


def _check_keys(keys: np.ndarray) -> np.ndarray:
    """The radix kernels' input contract: a 1-D array, integer unless it
    has at most one element."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ConfigurationError(f"radix_sort expects a 1-D array, got {keys.ndim}-D")
    if keys.size > 1 and not np.issubdtype(keys.dtype, np.integer):
        raise ConfigurationError(f"radix_sort expects integer keys, got {keys.dtype}")
    return keys
