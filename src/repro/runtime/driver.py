"""Backend dispatch for the SPMD runtime.

:func:`run_spmd` is the single entry point for launching an SPMD world.
The ``backend`` argument picks the substrate:

``"threads"`` (default)
    One Python thread per rank (:mod:`repro.runtime.threads`).  Portable
    and cheap to launch; NumPy kernels overlap because they release the
    GIL, but pure-Python control flow serializes.

``"procs"``
    One OS process per rank with shared-memory collectives
    (:mod:`repro.runtime.procs`).  No GIL anywhere: pack/merge kernels
    use all cores.  Higher launch cost; rank functions should be
    fork-safe (under ``spawn`` they must also be picklable).

Both backends honour the same contract: ``fn(comm)`` runs on every rank
against the same :class:`~repro.runtime.api.Comm` interface, results come
back indexed by rank, the first rank failure is re-raised in the caller,
and one wall-clock ``timeout`` bounds the whole world.

Backend tuning lives in one typed :class:`BackendOptions` dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, List, Optional

from repro.errors import ConfigurationError
from repro.runtime.api import Comm
from repro.runtime.world import World

__all__ = ["BackendOptions", "run_spmd", "spawn_world", "BACKENDS"]

#: Names accepted by :func:`run_spmd`'s ``backend`` argument.
BACKENDS = ("threads", "procs")


@dataclass(frozen=True)
class BackendOptions:
    """Typed tuning knobs for the SPMD backends.

    Every field defaults to "backend decides".  Both fields tune the
    ``procs`` launcher; the threads backend takes no launch tuning, so a
    set field raises there.

    Attributes
    ----------
    arena_bytes:
        ``procs`` only — initial shared-memory arena capacity per
        (rank, parity); arenas grow on demand, so this is a preallocation
        hint, not a limit.
    spin_budget:
        ``procs`` only — busy-spin iterations before the counter-handshake
        waits start yielding the CPU (0 yields immediately — right for
        oversubscribed hosts; the backend defaults it from the core
        count, and :class:`repro.service.profile.HostProfile` can carry a
        calibrated value).
    """

    arena_bytes: Optional[int] = None
    spin_budget: Optional[int] = None

    def set_fields(self) -> List[str]:
        """Names of the fields explicitly set (non-``None``)."""
        return [f.name for f in fields(self) if getattr(self, f.name) is not None]


def run_spmd(
    size: int,
    fn: Callable[[Comm], Any],
    timeout: float = 120.0,
    backend: str = "threads",
    options: Optional[BackendOptions] = None,
) -> List[Any]:
    """Run ``fn(comm)`` on ``size`` ranks of the chosen backend.

    ``options`` carries backend tuning (:class:`BackendOptions`).
    Returns the per-rank results, indexed by rank.
    """
    options = options or BackendOptions()

    if backend == "threads":
        set_fields = options.set_fields()
        if set_fields:
            raise ConfigurationError(
                f"threads backend takes no extra options, got {set_fields}"
            )
        from repro.runtime.threads import run_spmd as run_threads

        return run_threads(size, fn, timeout=timeout)
    if backend == "procs":
        from repro.runtime.procs import run_spmd_procs

        kwargs = {}
        if options.arena_bytes is not None:
            kwargs["arena_bytes"] = options.arena_bytes
        if options.spin_budget is not None:
            kwargs["spin_budget"] = options.spin_budget
        return run_spmd_procs(size, fn, timeout=timeout, **kwargs)
    raise ConfigurationError(
        f"unknown SPMD backend {backend!r}; choose from {list(BACKENDS)}"
    )


def spawn_world(
    size: int,
    backend: str = "threads",
    options: Optional[BackendOptions] = None,
) -> World:
    """Build a persistent SPMD world of ``size`` ranks without running
    anything on it yet.

    The returned :class:`~repro.runtime.world.World` accepts repeated
    jobs via ``world.run(fn, rank_args=...)`` — rank processes/threads,
    barriers and shared-memory arenas are reused across jobs, which is
    what makes warm serving cheap (:mod:`repro.service`).  Close it (or
    use it as a context manager) when done; never-closed procs worlds are
    swept at interpreter exit.

    ``options`` carries the same launch tuning :func:`run_spmd` accepts
    (``arena_bytes``, ``spin_budget`` on procs).
    """
    options = options or BackendOptions()
    if backend == "threads":
        set_fields = options.set_fields()
        if set_fields:
            raise ConfigurationError(
                f"threads backend takes no extra options, got {set_fields}"
            )
        from repro.runtime.threads import ThreadWorld

        return ThreadWorld(size)
    if backend == "procs":
        from repro.runtime.procs import ProcWorld

        kwargs = {}
        if options.arena_bytes is not None:
            kwargs["arena_bytes"] = options.arena_bytes
        if options.spin_budget is not None:
            kwargs["spin_budget"] = options.spin_budget
        return ProcWorld(size, **kwargs)
    raise ConfigurationError(
        f"unknown SPMD backend {backend!r}; choose from {list(BACKENDS)}"
    )
