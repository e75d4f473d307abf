"""Tests for the warm world lifecycle (spawn_world / World.run / close).

PR 5 split world construction from job execution so the serving layer
can keep worlds alive between requests.  These tests pin the lifecycle
contract: warm reuse is byte-identical to cold one-shot runs, per-job
state (tracers, counters) never bleeds between jobs, dead worlds refuse
further work and are replaceable, and the procs backend leaks neither
child processes nor shared-memory segments — even when a rank is killed
mid-sort or the owning process exits without closing (the atexit sweep).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.errors import CommunicationError, ConfigurationError
from repro.runtime import (
    ProcWorld,
    ThreadWorld,
    World,
    run_spmd,
    spawn_world,
    spmd_bitonic_sort,
)
from repro.service.jobs import noop_job, sort_shards_job
from repro.trace.recorder import Tracer
from repro.utils.rng import make_keys

BACKENDS = ("threads", "procs")


def _shm_rspmd():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("rspmd")]


def _sort_job(comm, keys):
    return spmd_bitonic_sort(comm, keys)


def _traced_sort_job(comm, keys):
    comm.tracer = Tracer(comm.rank)
    spmd_bitonic_sort(comm, keys)
    return dict(comm.tracer.counters)


def _slow_job(comm):
    time.sleep(30)


def _probe_tracer_job(comm):
    return comm.tracer is None


def _boom_job(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()


def _die_mid_sort_job(comm, shard):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return spmd_bitonic_sort(comm, shard)


class TestSpawnWorld:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spawn_run_close(self, backend):
        world = spawn_world(2, backend=backend)
        try:
            assert isinstance(world, World)
            assert world.backend == backend and world.size == 2
            assert world.healthy()
            assert world.run(noop_job) == [0, 1]
        finally:
            world.close()
        assert not world.healthy()

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown SPMD backend"):
            spawn_world(2, backend="mpi")

    def test_threads_rejects_procs_options(self):
        from repro.runtime import BackendOptions

        with pytest.raises(ConfigurationError, match="no extra options"):
            spawn_world(
                2, backend="threads",
                options=BackendOptions(arena_bytes=1 << 20),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager_closes(self, backend):
        with spawn_world(2, backend=backend) as world:
            assert world.run(noop_job) == [0, 1]
        assert not world.healthy()
        assert not _shm_rspmd()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closed_world_refuses_jobs(self, backend):
        world = spawn_world(2, backend=backend)
        world.close()
        with pytest.raises(ConfigurationError, match="closed"):
            world.run(noop_job)

    def test_run_rank_args_length_checked(self):
        with spawn_world(2, backend="threads") as world:
            with pytest.raises(ConfigurationError, match="rank_args"):
                world.run(noop_job, rank_args=[(1,)])


class TestWarmReuse:
    """Satellite (c): world reuse is observationally identical to
    cold-start, and per-job state never bleeds."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_back_to_back_different_sizes_byte_identical(self, backend):
        sizes = [(1 << 10, 2), (1 << 12, 2), (1 << 10, 2)]
        with spawn_world(2, backend=backend) as world:
            for i, (N, P) in enumerate(sizes):
                keys = make_keys(N, seed=100 + i)
                n = N // P
                warm = np.concatenate(world.run(
                    _sort_job,
                    rank_args=[(keys[r * n : (r + 1) * n],) for r in range(P)],
                ))
                # Cold reference: the one-shot driver on a fresh world.
                cold = np.concatenate(run_spmd(
                    P,
                    lambda c: spmd_bitonic_sort(
                        c, keys[c.rank * n : (c.rank + 1) * n]
                    ),
                    backend=backend,
                ))
                assert warm.tobytes() == cold.tobytes()
                assert warm.tobytes() == np.sort(keys).tobytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_do_not_bleed_between_jobs(self, backend):
        keys = make_keys(1 << 10, seed=7)
        args = [(keys[:512],), (keys[512:],)]
        with spawn_world(2, backend=backend) as world:
            first = world.run(_traced_sort_job, rank_args=args)
            second = world.run(_traced_sort_job, rank_args=args)
        # Identical jobs must report identical counters: any bleed from
        # job 1 into job 2's tracer would double the tallies.
        assert first == second
        assert first[0]["messages"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracer_cleared_after_each_job(self, backend):
        keys = make_keys(1 << 10, seed=8)
        args = [(keys[:512],), (keys[512:],)]
        with spawn_world(2, backend=backend) as world:
            world.run(_traced_sort_job, rank_args=args)
            assert world.run(_probe_tracer_job) == [True, True]

    def test_batched_requests_match_single_requests(self):
        keys_a = make_keys(1 << 10, seed=20)
        keys_b = make_keys(1 << 10, seed=21)
        with spawn_world(2, backend="threads") as world:
            outs = world.run(
                sort_shards_job,
                rank_args=[
                    ([keys_a[:512], keys_b[:512]], False, None),
                    ([keys_a[512:], keys_b[512:]], False, None),
                ],
            )
        for i, keys in enumerate((keys_a, keys_b)):
            got = np.concatenate([outs[r][0][i] for r in range(2)])
            assert got.tobytes() == np.sort(keys).tobytes()


class TestDeadWorlds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_job_kills_world_replacement_works(self, backend):
        world = spawn_world(2, backend=backend)
        try:
            with pytest.raises(ValueError, match="rank 1 exploded"):
                world.run(_boom_job)
            assert not world.healthy()
            with pytest.raises(CommunicationError, match="dead"):
                world.run(noop_job)
        finally:
            world.close()
        # The replacement world is unaffected by the corpse.
        with spawn_world(2, backend=backend) as fresh:
            assert fresh.run(noop_job) == [0, 1]
        assert not _shm_rspmd()

    def test_unpicklable_job_rejected_world_stays_healthy(self):
        captured = object()
        with spawn_world(2, backend="procs") as world:
            with pytest.raises(ConfigurationError, match="picklable"):
                world.run(lambda c: captured)
            assert world.healthy()
            assert world.run(noop_job) == [0, 1]


class TestShmLeaks:
    """Satellite (a): no leaked segments, even on violent exits."""

    def test_killed_rank_mid_sort_leaves_no_segments(self):
        world = spawn_world(2, backend="procs")
        victim = world._procs[1].pid
        try:
            keys = make_keys(1 << 12, seed=3)
            with pytest.raises(CommunicationError, match="died"):
                world.run(
                    _die_mid_sort_job,
                    rank_args=[(keys[:2048],), (keys[2048:],)],
                    timeout=30.0,
                )
            assert not world.healthy()
        finally:
            world.close()
        assert not _shm_rspmd(), "killed world leaked /dev/shm segments"
        # The surviving rank 0 process must be reaped too.
        for p in world._procs:
            assert not p.is_alive()
        assert victim is not None

    def test_atexit_sweep_reaps_unclosed_worlds(self, tmp_path):
        """A process that spawns a world and exits without closing it
        must still leave /dev/shm clean — the module atexit sweep."""
        script = textwrap.dedent("""
            from repro.runtime import spawn_world
            from repro.service.jobs import noop_job

            world = spawn_world(2, backend="procs")
            assert world.run(noop_job) == [0, 1]
            # Exit WITHOUT world.close(): the atexit sweep must clean up.
        """)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert not _shm_rspmd(), "atexit sweep missed segments"

    def test_timeout_terminates_and_sweeps(self):
        from repro.errors import SpmdTimeoutError

        world = spawn_world(2, backend="procs")
        try:
            with pytest.raises(SpmdTimeoutError):
                world.run(_slow_job, timeout=0.5)
        finally:
            world.close()
        assert not _shm_rspmd()
        for p in world._procs:
            assert not p.is_alive()


class TestOneShotCompatibility:
    """The original one-shot drivers survive the refactor unchanged —
    including closure support (procs ships the first job at fork)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closures_still_work(self, backend):
        keys = make_keys(1 << 10, seed=5)

        def prog(c):
            n = keys.size // c.size
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        out = np.concatenate(run_spmd(2, prog, backend=backend))
        assert out.tobytes() == np.sort(keys).tobytes()

    def test_worlds_are_exported_types(self):
        assert issubclass(ThreadWorld, World)
        assert issubclass(ProcWorld, World)
