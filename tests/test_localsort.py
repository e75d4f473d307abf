"""Tests for the local computation kernels (Chapter 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.localsort import (
    BitonicMinStats,
    argmin_bitonic,
    argmin_bitonic_linear,
    batched_bitonic_merge,
    merge_sorted,
    p_way_merge,
    radix_sort,
    reference,
    sort_bitonic,
)
from repro.localsort.radix import num_passes
from repro.network.properties import is_bitonic


def _random_bitonic(rng, n, distinct=False, lo=0, hi=1000):
    """A random bitonic sequence of length n, optionally duplicate-free."""
    if distinct:
        vals = rng.choice(np.arange(lo, lo + 4 * n), size=n, replace=False)
    else:
        vals = rng.integers(lo, hi, n)
    peak = int(rng.integers(0, n + 1))
    seq = np.concatenate([np.sort(vals[:peak]), np.sort(vals[peak:])[::-1]])
    shift = int(rng.integers(0, n))
    return np.roll(seq, shift)


class TestRadixSort:
    @pytest.mark.parametrize("n", [0, 1, 2, 100, 1024])
    def test_sorts(self, n, rng):
        a = rng.integers(0, 2**31, n).astype(np.uint32)
        np.testing.assert_array_equal(radix_sort(a), np.sort(a))

    def test_descending(self, rng):
        a = rng.integers(0, 2**31, 512).astype(np.uint32)
        np.testing.assert_array_equal(radix_sort(a, ascending=False),
                                      np.sort(a)[::-1])

    def test_stability_irrelevant_but_exact(self):
        a = np.array([3, 1, 2, 1, 3, 0], dtype=np.uint32)
        np.testing.assert_array_equal(radix_sort(a), np.sort(a))

    def test_respects_key_bits(self, rng):
        a = rng.integers(0, 256, 128).astype(np.uint32)
        np.testing.assert_array_equal(radix_sort(a, key_bits=8), np.sort(a))

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            radix_sort(np.array([1.5, 2.5]))

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            radix_sort(np.zeros((2, 2), dtype=np.uint32))

    def test_num_passes(self):
        assert num_passes(32, 8) == 4
        assert num_passes(31, 8) == 4
        assert num_passes(31, 11) == 3
        with pytest.raises(ConfigurationError):
            num_passes(0, 8)

    def test_input_not_mutated(self, rng):
        a = rng.integers(0, 100, 64).astype(np.uint32)
        b = a.copy()
        radix_sort(a)
        np.testing.assert_array_equal(a, b)


class TestArgminBitonic:
    @given(st.integers(0, 100_000), st.integers(1, 200))
    def test_distinct_elements_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        seq = _random_bitonic(rng, n, distinct=True)
        idx = argmin_bitonic(seq)
        assert seq[idx] == seq.min()

    @given(st.integers(0, 100_000), st.integers(1, 200))
    def test_with_duplicates_still_correct(self, seed, n):
        rng = np.random.default_rng(seed)
        seq = _random_bitonic(rng, n, distinct=False, hi=max(n // 4, 2))
        idx = argmin_bitonic(seq)
        assert seq[idx] == seq.min()

    def test_logarithmic_comparisons_when_distinct(self, rng):
        """Lemma 8: O(log n) comparisons for duplicate-free input."""
        for e in range(4, 18):
            n = 1 << e
            seq = _random_bitonic(rng, n, distinct=True)
            stats = BitonicMinStats()
            argmin_bitonic(seq, stats=stats)
            if not stats.fallback:
                assert stats.comparisons <= 4 * e + 8, (n, stats.comparisons)

    def test_constant_sequence_falls_back(self):
        seq = np.full(64, 5)
        stats = BitonicMinStats()
        idx = argmin_bitonic(seq, stats=stats)
        assert seq[idx] == 5
        assert stats.fallback

    def test_tiny_sequences(self):
        assert argmin_bitonic(np.array([3])) == 0
        assert argmin_bitonic(np.array([3, 1])) == 1
        assert argmin_bitonic(np.array([2, 1, 3])) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            argmin_bitonic(np.array([]))
        with pytest.raises(ConfigurationError):
            argmin_bitonic_linear(np.array([]))

    def test_linear_reference(self, rng):
        a = rng.integers(0, 100, 37)
        assert argmin_bitonic_linear(a) == np.argmin(a)


class TestSortBitonic:
    @given(st.integers(0, 100_000), st.integers(1, 256))
    def test_sorts_any_bitonic(self, seed, n):
        rng = np.random.default_rng(seed)
        seq = _random_bitonic(rng, n)
        np.testing.assert_array_equal(sort_bitonic(seq), np.sort(seq))

    def test_descending(self, rng):
        seq = _random_bitonic(rng, 64)
        np.testing.assert_array_equal(sort_bitonic(seq, ascending=False),
                                      np.sort(seq)[::-1])

    def test_monotone_inputs(self):
        a = np.arange(16)
        np.testing.assert_array_equal(sort_bitonic(a), a)
        np.testing.assert_array_equal(sort_bitonic(a[::-1].copy()), a)

    def test_trivial(self):
        np.testing.assert_array_equal(sort_bitonic(np.array([7])), [7])

    def test_uses_logarithmic_min(self, rng):
        seq = _random_bitonic(rng, 1 << 12, distinct=True)
        stats = BitonicMinStats()
        sort_bitonic(seq, stats=stats)
        if not stats.fallback:
            assert stats.comparisons < 100


class TestBatchedBitonicMerge:
    def test_rows(self, rng):
        rows = np.stack([_random_bitonic(rng, 16) for _ in range(8)])
        asc = np.array([True, False] * 4)
        out = batched_bitonic_merge(rows, asc, axis=1)
        for i in range(8):
            expect = np.sort(rows[i]) if asc[i] else np.sort(rows[i])[::-1]
            np.testing.assert_array_equal(out[i], expect)

    def test_columns(self, rng):
        cols = np.stack([_random_bitonic(rng, 16) for _ in range(8)], axis=1)
        out = batched_bitonic_merge(cols, True, axis=0)
        for j in range(8):
            np.testing.assert_array_equal(out[:, j], np.sort(cols[:, j]))

    def test_scalar_direction_broadcasts(self, rng):
        rows = np.stack([_random_bitonic(rng, 8) for _ in range(4)])
        out = batched_bitonic_merge(rows, False, axis=1)
        for i in range(4):
            np.testing.assert_array_equal(out[i], np.sort(rows[i])[::-1])

    def test_input_not_mutated(self, rng):
        rows = np.stack([_random_bitonic(rng, 8) for _ in range(4)])
        before = rows.copy()
        batched_bitonic_merge(rows, True, axis=1)
        np.testing.assert_array_equal(rows, before)

    def test_rejects_non_power_of_two_lane(self):
        with pytest.raises(ConfigurationError):
            batched_bitonic_merge(np.zeros((4, 6)), True, axis=1)

    def test_rejects_bad_axis_and_ndim(self):
        with pytest.raises(ConfigurationError):
            batched_bitonic_merge(np.zeros(8), True, axis=1)
        with pytest.raises(ConfigurationError):
            batched_bitonic_merge(np.zeros((4, 4)), True, axis=2)


    def test_columns_mixed_directions(self, rng):
        cols = np.stack([_random_bitonic(rng, 16) for _ in range(8)], axis=1)
        asc = np.array([True, False, False, True, False, True, True, False])
        out = batched_bitonic_merge(cols, asc, axis=0)
        for j in range(8):
            expect = np.sort(cols[:, j])
            np.testing.assert_array_equal(out[:, j], expect if asc[j] else expect[::-1])


class TestMerges:
    @given(st.integers(0, 100_000), st.integers(0, 64), st.integers(0, 64))
    def test_merge_sorted(self, seed, nx, ny):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.integers(0, 50, nx))
        y = np.sort(rng.integers(0, 50, ny))
        np.testing.assert_array_equal(
            merge_sorted(x, y), np.sort(np.concatenate([x, y]))
        )

    def test_merge_empty_sides(self):
        np.testing.assert_array_equal(merge_sorted(np.array([]), np.array([1, 2])),
                                      [1, 2])
        np.testing.assert_array_equal(merge_sorted(np.array([1]), np.array([])),
                                      [1])

    @given(st.integers(0, 100_000), st.integers(1, 9))
    def test_p_way_merge(self, seed, p):
        rng = np.random.default_rng(seed)
        runs = [np.sort(rng.integers(0, 100, rng.integers(0, 40))) for _ in range(p)]
        if all(r.size == 0 for r in runs):
            runs[0] = np.array([1])
        np.testing.assert_array_equal(
            p_way_merge(runs), np.sort(np.concatenate(runs))
        )

    def test_p_way_merge_rejects_all_empty(self):
        with pytest.raises(ConfigurationError):
            p_way_merge([np.array([]), np.array([])])


def _bits(a: np.ndarray) -> bytes:
    """Byte image of an array: tells ``0.0`` from ``-0.0``, which compare
    equal, so tie order becomes observable."""
    return np.ascontiguousarray(a).tobytes()


#: Sorted float runs over values with signed-zero ties.
_tie_runs = st.lists(
    st.sampled_from([-1.0, -0.0, 0.0, 1.0]), max_size=24
).map(lambda v: np.sort(np.array(v, dtype=np.float64), kind="stable"))


class TestNativeMatchesReference:
    """Every hot-path kernel returns exactly what its paper formulation in
    :mod:`repro.localsort.reference` returns."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 300),
        st.integers(1, 32), st.integers(1, 16), st.booleans(),
        st.sampled_from(["<u4", ">u4"]),
    )
    def test_radix_sort_full_range_uint32(
        self, seed, n, key_bits, radix_bits, asc, dtype
    ):
        keys = np.random.default_rng(seed).integers(
            0, 2**32, n, dtype=np.uint64
        ).astype(dtype)
        kw = dict(key_bits=key_bits, radix_bits=radix_bits, ascending=asc)
        out = radix_sort(keys, **kw)
        np.testing.assert_array_equal(out, reference.radix_sort(keys, **kw))
        assert out.dtype == keys.dtype
        if key_bits > 24 and radix_bits == 8:
            expect = np.sort(keys)
            np.testing.assert_array_equal(out, expect if asc else expect[::-1])

    @given(
        st.integers(0, 100_000), st.integers(0, 200), st.integers(1, 64),
        st.sampled_from(["<i8", ">i8"]),
    )
    def test_radix_sort_signed_low_bits(self, seed, n, key_bits, dtype):
        keys = np.random.default_rng(seed).integers(-(2**40), 2**40, n).astype(dtype)
        out = radix_sort(keys, key_bits=key_bits)
        np.testing.assert_array_equal(
            out, reference.radix_sort(keys, key_bits=key_bits)
        )
        assert out.dtype == keys.dtype

    @given(_tie_runs, _tie_runs)
    def test_merge_sorted_tie_order(self, x, y):
        assert _bits(merge_sorted(x, y)) == _bits(reference.merge_sorted(x, y))

    @given(st.lists(_tie_runs, min_size=1, max_size=7))
    def test_p_way_merge_tie_order(self, runs):
        if all(r.size == 0 for r in runs):
            runs[0] = np.array([0.0])
        assert _bits(p_way_merge(runs)) == _bits(reference.p_way_merge(runs))

    @given(
        st.integers(0, 100_000), st.integers(0, 5), st.integers(1, 6),
        st.sampled_from([0, 1]),
    )
    def test_batched_bitonic_merge(self, seed, lg_len, lanes, axis):
        rng = np.random.default_rng(seed)
        m = np.stack(
            [_random_bitonic(rng, 1 << lg_len, hi=8) for _ in range(lanes)],
            axis=1 - axis,
        )
        asc = rng.integers(0, 2, lanes).astype(bool)
        out = batched_bitonic_merge(m, asc, axis=axis)
        np.testing.assert_array_equal(
            out, reference.batched_bitonic_merge(m, asc, axis=axis)
        )
        # An oracle sharing no code with either kernel: every lane sorted,
        # descending lanes reversed.
        expect = np.sort(m, axis=axis)
        desc = np.flip(expect, axis=axis)
        if axis == 1:
            expect[~asc] = desc[~asc]
        else:
            expect[:, ~asc] = desc[:, ~asc]
        np.testing.assert_array_equal(out, expect)
