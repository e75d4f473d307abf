"""Tests for the process-based SPMD backend and the backend dispatch.

The procs backend must be a drop-in substrate: same primitives, same
failure contract, and byte-identical sort output against both the threads
backend and the simulator implementation of Algorithm 1.
"""

import os
import time

import numpy as np
import pytest

from repro.errors import CommunicationError, ConfigurationError, SpmdTimeoutError
from repro.faults import FaultInjector, FaultPlan, ReliableComm, run_chaos_sort
from repro.runtime import (
    BACKENDS,
    BackendOptions,
    Comm,
    run_spmd,
    spmd_bitonic_sort,
)
from repro.sorts import SmartBitonicSort
from repro.utils.rng import make_keys


class TestDispatch:
    def test_backends_listed(self):
        assert "threads" in BACKENDS and "procs" in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown SPMD backend"):
            run_spmd(2, lambda c: None, backend="mpi")

    def test_threads_rejects_procs_options(self):
        with pytest.raises(ConfigurationError, match="no extra options"):
            run_spmd(2, lambda c: None, backend="threads",
                     options=BackendOptions(arena_bytes=1 << 20))

    def test_default_backend_is_threads(self):
        comms = run_spmd(2, lambda c: type(c).__name__)
        assert comms == ["ThreadComm", "ThreadComm"]

    def test_procs_backend_selected(self):
        names = run_spmd(2, lambda c: (type(c).__name__, c.in_process),
                         backend="procs")
        assert names == [("ProcComm", False), ("ProcComm", False)]


class TestProcsPrimitives:
    def test_allgather(self):
        out = run_spmd(4, lambda c: c.allgather(c.rank * 10), backend="procs")
        assert out == [[0, 10, 20, 30]] * 4

    def test_bcast(self):
        out = run_spmd(4, lambda c: c.bcast(c.rank + 99, root=2), backend="procs")
        assert out == [101] * 4

    def test_bcast_bad_root(self):
        with pytest.raises(CommunicationError):
            run_spmd(2, lambda c: c.bcast(1, root=5), backend="procs")

    def test_alltoallv_routes_by_destination(self):
        def prog(c):
            buckets = [np.array([c.rank * 10 + q]) for q in range(c.size)]
            return [int(x[0]) for x in c.alltoallv(buckets)]

        out = run_spmd(3, prog, backend="procs")
        assert out == [[0, 10, 20], [1, 11, 21], [2, 12, 22]]

    def test_alltoallv_none_buckets(self):
        def prog(c):
            buckets = [None] * c.size
            if c.rank == 0:
                buckets[1] = np.array([7])
            received = c.alltoallv(buckets)
            return received[0] is not None

        assert run_spmd(2, prog, backend="procs") == [False, True]

    def test_alltoallv_wrong_bucket_count(self):
        with pytest.raises(CommunicationError):
            run_spmd(2, lambda c: c.alltoallv([None]), backend="procs")

    def test_sendrecv_pairwise(self):
        def prog(c):
            partner = c.rank ^ 1
            got = c.sendrecv(np.array([c.rank]), dst=partner, src=partner)
            return int(got[0])

        assert run_spmd(4, prog, backend="procs") == [1, 0, 3, 2]

    def test_repeated_collectives_reuse_arenas(self):
        def prog(c):
            total = 0
            for i in range(20):
                got = c.alltoallv([np.array([i]) for _ in range(c.size)])
                total += sum(int(x[0]) for x in got)
            return total

        out = run_spmd(3, prog, backend="procs")
        assert out == [3 * sum(range(20))] * 3

    def test_arena_growth_beyond_initial_capacity(self):
        """Payloads far beyond the initial arena force the generation-bump
        growth path; the data must still arrive intact."""

        def prog(c):
            a = (np.arange(100_000, dtype=np.uint32) + c.rank).copy()
            got = c.alltoallv([a for _ in range(c.size)])
            return [int(x[-1]) for x in got]

        out = run_spmd(2, prog, backend="procs",
                       options=BackendOptions(arena_bytes=1 << 12))
        assert out == [[99999, 100000], [99999, 100000]]

    def test_pickle_fallback_payloads(self):
        """Non-ndarray values travel through the pickle path."""
        out = run_spmd(
            3, lambda c: c.allgather({"rank": c.rank, "tag": "x" * c.rank}),
            backend="procs",
        )
        assert out[0] == [{"rank": 0, "tag": ""}, {"rank": 1, "tag": "x"},
                          {"rank": 2, "tag": "xx"}]

    def test_dtype_preserved_across_transfer(self):
        def prog(c):
            buckets = [np.array([c.rank], dtype=np.uint16)] * c.size
            got = c.alltoallv(buckets)
            return [str(x.dtype) for x in got]

        assert run_spmd(2, prog, backend="procs") == [["uint16"] * 2] * 2

    def test_single_rank(self):
        assert run_spmd(1, lambda c: c.allgather("x"), backend="procs") == [["x"]]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spmd(0, lambda c: None, backend="procs")


class TestProcsFailurePaths:
    def test_failure_propagates_and_unblocks_peers(self):
        def prog(c):
            if c.rank == 1:
                raise ValueError("rank 1 exploded")
            c.barrier()  # would deadlock if the abort didn't break it

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(3, prog, backend="procs")

    def test_hard_death_is_communication_error(self):
        """A rank that dies without reporting (hard exit) surfaces as a
        CommunicationError naming it, and unblocks the survivors."""

        def prog(c):
            if c.rank == 1:
                os._exit(17)
            c.barrier()

        with pytest.raises(CommunicationError, match="rank 1 died"):
            run_spmd(2, prog, backend="procs")

    def test_timeout_is_one_world_deadline(self):
        def wedge(c):
            if c.rank > 0:
                time.sleep(30)

        start = time.monotonic()
        with pytest.raises(SpmdTimeoutError) as err:
            run_spmd(3, wedge, timeout=0.5, backend="procs")
        assert time.monotonic() - start < 3 * 0.5 + 2.0
        assert err.value.phase == "run_spmd"

    def test_no_shared_memory_leaked(self):
        run_spmd(2, lambda c: c.allgather(np.arange(100_000)), backend="procs")
        if os.path.isdir("/dev/shm"):
            assert not [f for f in os.listdir("/dev/shm") if f.startswith("rspmd")]


class TestCrossBackendEquivalence:
    """Property: for randomized (N, P, seed) grids, the threads backend,
    the procs backend and the simulator's SmartBitonicSort produce
    byte-identical output."""

    @pytest.mark.parametrize("case", range(4))
    def test_randomized_grids(self, case):
        rng = np.random.default_rng(1000 + case)
        P = 1 << int(rng.integers(1, 4))
        n = 1 << int(rng.integers(4, 9))
        seed = int(rng.integers(0, 2**31))
        keys = make_keys(P * n, seed=seed)
        sim = SmartBitonicSort().run(keys, P).sorted_keys

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        for backend in ("threads", "procs"):
            out = np.concatenate(run_spmd(P, prog, backend=backend))
            assert out.dtype == sim.dtype
            assert out.tobytes() == sim.tobytes(), (
                f"{backend} diverged for N={P * n}, P={P}, seed={seed}"
            )

    def test_low_entropy_keys(self):
        P, n = 4, 128
        keys = make_keys(P * n, seed=9, distribution="low-entropy")

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        thr = np.concatenate(run_spmd(P, prog, backend="threads"))
        prc = np.concatenate(run_spmd(P, prog, backend="procs"))
        assert thr.tobytes() == prc.tobytes()
        np.testing.assert_array_equal(prc, np.sort(keys))


class _FakeCrossProcessComm(Comm):
    in_process = False
    rank, size = 0, 2

    def barrier(self):  # pragma: no cover — never called
        pass

    def alltoallv(self, buckets):  # pragma: no cover — never called
        return list(buckets)

    def allgather(self, value):  # pragma: no cover — never called
        return [value] * self.size

    def bcast(self, value, root=0):  # pragma: no cover — never called
        return value


class TestFaultComposition:
    def test_armed_injector_rejected_on_cross_process_comm(self):
        injector = FaultInjector(FaultPlan(seed=1, drop=0.5))
        with pytest.raises(ConfigurationError, match="in-process backend"):
            ReliableComm(_FakeCrossProcessComm(), injector)

    def test_null_plan_composes_with_cross_process_comm(self):
        injector = FaultInjector(FaultPlan(seed=1))
        rc = ReliableComm(_FakeCrossProcessComm(), injector)
        assert rc.size == 2

    def test_chaos_rejects_faults_on_procs_backend(self):
        keys = make_keys(256, seed=0)
        with pytest.raises(ConfigurationError, match="chaos faults"):
            run_chaos_sort(keys, 2, FaultPlan(seed=0, drop=0.1), backend="procs")

    def test_seeded_rate_zero_plan_is_noop_on_procs(self):
        """A seeded fault plan with all rates zero runs the reliable
        transport's passthrough on the procs backend: sorted output, zero
        injected faults, zero recovery work."""
        keys = make_keys(512, seed=5)
        report = run_chaos_sort(
            keys, 2, FaultPlan(seed=12345), backend="procs", checkpoint=False
        )
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.restarts == 0
        assert report.retry_rounds == 0
        assert all(v == 0 for v in report.fault_stats.values())
