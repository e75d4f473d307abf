"""Correctness and metric tests for all five parallel sorts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import sort
from repro.errors import ConfigurationError, VerificationError
from repro.sorts import (
    BlockedMergeBitonicSort,
    CyclicBlockedBitonicSort,
    ParallelRadixSort,
    ParallelSampleSort,
    SmartBitonicSort,
    verify_sorted,
)
from repro.theory import counts_for
from repro.utils.rng import make_keys

ALL_SORTS = [
    SmartBitonicSort,
    CyclicBlockedBitonicSort,
    BlockedMergeBitonicSort,
    ParallelRadixSort,
    ParallelSampleSort,
]


class TestVerifySorted:
    def test_accepts_correct(self):
        verify_sorted(np.array([3, 1, 2]), np.array([1, 2, 3]), "x")

    def test_rejects_unsorted(self):
        with pytest.raises(VerificationError):
            verify_sorted(np.array([3, 1, 2]), np.array([1, 3, 2]), "x")

    def test_rejects_wrong_multiset(self):
        with pytest.raises(VerificationError):
            verify_sorted(np.array([3, 1, 2]), np.array([1, 2, 4]), "x")

    def test_rejects_wrong_shape(self):
        with pytest.raises(VerificationError):
            verify_sorted(np.array([3, 1]), np.array([1, 2, 3]), "x")


@pytest.mark.parametrize("sort_cls", ALL_SORTS)
class TestAllSorts:
    def test_sorts_uniform(self, sort_cls):
        keys = make_keys(1024, seed=3)
        sort_cls().run(keys, 8, verify=True)

    @pytest.mark.parametrize("dist", ["low-entropy", "zero-entropy", "gaussian",
                                      "sorted", "reverse-sorted"])
    def test_sorts_adversarial_distributions(self, sort_cls, dist):
        keys = make_keys(512, seed=11, distribution=dist)
        sort_cls().run(keys, 8, verify=True)

    def test_single_processor(self, sort_cls):
        keys = make_keys(256, seed=5)
        sort_cls().run(keys, 1, verify=True)

    def test_two_processors(self, sort_cls):
        keys = make_keys(64, seed=5)
        sort_cls().run(keys, 2, verify=True)

    def test_rejects_bad_sizes(self, sort_cls):
        with pytest.raises(ConfigurationError):
            sort_cls().run(make_keys(100), 4)

    def test_stats_populated(self, sort_cls):
        res = sort_cls().run(make_keys(512, seed=9), 4)
        st_ = res.stats
        assert st_.elapsed_us > 0
        assert st_.P == 4 and st_.n == 128
        assert st_.us_per_key > 0

    def test_deterministic(self, sort_cls):
        keys = make_keys(512, seed=4)
        a = sort_cls().run(keys, 4)
        b = sort_cls().run(keys, 4)
        assert a.stats.elapsed_us == b.stats.elapsed_us
        np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)


class TestSmartConfigurations:
    @pytest.mark.parametrize("mode,fused", [("long", True), ("long", False),
                                            ("short", False)])
    @pytest.mark.parametrize("local", ["merge", "simulate"])
    def test_all_configs_sort(self, mode, fused, local):
        keys = make_keys(1024, seed=8)
        SmartBitonicSort(mode=mode, fused=fused, local=local).run(
            keys, 8, verify=True
        )

    @pytest.mark.parametrize("strategy", ["head", "tail"])
    def test_remap_strategies_sort(self, strategy):
        keys = make_keys(2048, seed=8)
        SmartBitonicSort(strategy=strategy).run(keys, 8, verify=True)

    def test_middle_strategies_sort(self):
        # Choose sizes where N_RemainingSteps > 0: P=8 (lgP=3, tri=6) and
        # lg n = 4 -> rem = 2.
        keys = make_keys(8 * 16, seed=8)
        SmartBitonicSort(strategy="middle2").run(keys, 8, verify=True)

    def test_short_fused_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartBitonicSort(mode="short", fused=True)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartBitonicSort(mode="medium")

    def test_bad_local_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartBitonicSort(local="psychic")

    def test_merge_equals_simulate_output(self):
        """Chapter 4's optimized computation is observationally identical to
        simulating the network steps."""
        keys = make_keys(4096, seed=13)
        a = SmartBitonicSort(local="merge").run(keys, 16).sorted_keys
        b = SmartBitonicSort(local="simulate").run(keys, 16).sorted_keys
        np.testing.assert_array_equal(a, b)

    def test_n_smaller_than_p(self):
        """The smart layout lifts the N >= P**2 restriction (§3.2)."""
        keys = make_keys(64, seed=2)  # n = 4 < P = 16
        SmartBitonicSort().run(keys, 16, verify=True)

    def test_cyclic_blocked_requires_n_ge_p(self):
        keys = make_keys(64, seed=2)
        with pytest.raises(ConfigurationError):
            CyclicBlockedBitonicSort().run(keys, 16)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_property_random_workloads(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.choice([2, 4, 8]))
        n = int(rng.choice([8, 32, 128]))
        keys = rng.integers(0, 1 << 31, P * n, dtype=np.uint32)
        SmartBitonicSort().run(keys, P, verify=True)


class TestMetricsMatchTheory:
    @pytest.mark.parametrize("P,n", [(4, 64), (8, 256), (16, 1024)])
    def test_smart_counts(self, P, n):
        res = SmartBitonicSort().run(make_keys(P * n, seed=1), P)
        c = counts_for("smart", P * n, P)
        assert res.stats.remaps == c.remaps
        assert res.stats.volume_per_proc == c.volume
        assert res.stats.messages_per_proc == c.messages

    @pytest.mark.parametrize("P,n", [(4, 64), (8, 256)])
    def test_cyclic_blocked_counts(self, P, n):
        res = CyclicBlockedBitonicSort().run(make_keys(P * n, seed=1), P)
        c = counts_for("cyclic-blocked", P * n, P)
        assert res.stats.remaps == c.remaps
        assert res.stats.volume_per_proc == c.volume
        assert res.stats.messages_per_proc == c.messages

    @pytest.mark.parametrize("P,n", [(4, 64), (8, 256)])
    def test_blocked_merge_counts(self, P, n):
        res = BlockedMergeBitonicSort().run(make_keys(P * n, seed=1), P)
        c = counts_for("blocked", P * n, P)
        assert res.stats.remaps == c.remaps
        assert res.stats.volume_per_proc == c.volume
        assert res.stats.messages_per_proc == c.messages

    def test_smart_counts_when_n_less_than_p(self):
        """For n < P Lemma 4's uniform groups break positionally; the
        schedule falls back to exact plan counting and must still match
        the simulator."""
        P, n = 16, 8
        res = SmartBitonicSort().run(make_keys(P * n, seed=1), P)
        c = counts_for("smart", P * n, P)
        assert res.stats.volume_per_proc == c.volume
        assert res.stats.messages_per_proc == c.messages

    def test_short_messages_count_per_element(self):
        res = SmartBitonicSort(mode="short", fused=False).run(
            make_keys(1024, seed=1), 8
        )
        # Every transferred element is its own message.
        assert res.stats.messages_per_proc == res.stats.volume_per_proc


class TestSimulatedAccountingPinned:
    """The simulator charges local kernels by its cost model, never by
    host wall time, so swapping the host kernels must leave every
    simulated number where it was.  These values were recorded from the
    NumPy-formulation kernels (the ones now in
    :mod:`repro.localsort.reference`)."""

    #: algorithm -> (elapsed_us, remaps, volume_per_proc, messages_per_proc)
    PINNED = {
        "smart": (379.2389999999999, 3, 2048, 7),
        "sample": (264.69679999999994, 1, 883, 6),
        "cyclic-blocked": (636.7544, 4, 3072, 12),
    }

    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_run_stats_unchanged(self, algorithm):
        stats = sort(
            make_keys(1 << 12, seed=7), 4, algorithm=algorithm,
            backend="simulated",
        ).stats
        elapsed, remaps, volume, messages = self.PINNED[algorithm]
        assert stats.elapsed_us == pytest.approx(elapsed, rel=1e-12)
        assert (stats.remaps, stats.volume_per_proc, stats.messages_per_proc) == (
            remaps, volume, messages,
        )


class TestRelativePerformance:
    """The headline orderings of Chapter 5, at reduced scale."""

    def test_smart_fastest_bitonic(self):
        keys = make_keys(32 * 4096, seed=21)
        smart = SmartBitonicSort().run(keys, 32).stats.us_per_key
        cb = CyclicBlockedBitonicSort().run(keys, 32).stats.us_per_key
        bm = BlockedMergeBitonicSort().run(keys, 32).stats.us_per_key
        assert smart < cb < bm

    def test_short_messages_much_slower(self):
        keys = make_keys(16 * 4096, seed=22)
        short = SmartBitonicSort(mode="short", fused=False).run(keys, 16).stats
        long_ = SmartBitonicSort(mode="long", fused=False).run(keys, 16).stats
        assert short.communication_per_key > 5 * long_.communication_per_key

    def test_fused_beats_unfused(self):
        keys = make_keys(16 * 4096, seed=23)
        fused = SmartBitonicSort(fused=True).run(keys, 16).stats
        unfused = SmartBitonicSort(fused=False).run(keys, 16).stats
        assert fused.elapsed_us < unfused.elapsed_us

    def test_merge_compute_beats_simulation(self):
        keys = make_keys(16 * 4096, seed=24)
        merge = SmartBitonicSort(local="merge").run(keys, 16).stats
        sim = SmartBitonicSort(local="simulate").run(keys, 16).stats
        assert merge.computation_per_key < sim.computation_per_key

    def test_sample_sort_skew_sensitivity(self):
        """§5.5: low-entropy keys unbalance sample sort but leave bitonic
        sort unchanged (it is oblivious to the distribution)."""
        P, n = 8, 4096
        uni = make_keys(P * n, seed=25, distribution="uniform")
        skew = make_keys(P * n, seed=25, distribution="zero-entropy")
        samp_u = ParallelSampleSort().run(uni, P).stats.elapsed_us
        samp_s = ParallelSampleSort().run(skew, P).stats.elapsed_us
        bit_u = SmartBitonicSort().run(uni, P).stats.elapsed_us
        bit_s = SmartBitonicSort().run(skew, P).stats.elapsed_us
        assert samp_s > 1.5 * samp_u  # skew hurts sample sort
        assert abs(bit_s - bit_u) / bit_u < 0.05  # bitonic oblivious
