"""Host performance profiles for the request planner.

The paper's closed forms (§3.4) price a sort from machine parameters:
LogGP network numbers plus per-element compute costs.  The bundled
:data:`~repro.model.machines.MEIKO_CS2` spec prices the *paper's*
machine; to plan requests on the machine actually serving them, the same
formulas need *host* numbers.  A :class:`HostProfile` carries them:

* per-element compute rates (radix pass, merge, pack/unpack/fused-pack,
  addressing) measured on the host's NumPy kernels;
* per-backend :class:`BackendCosts` — LogGP parameters fitted to the
  backend's collectives plus the serving-specific fixed costs the closed
  forms do not cover: world spawn, warm job dispatch, and shipping a
  request's shards through the job pipe;
* the usable core count, which turns per-processor busy time into wall
  time on an oversubscribed host.

:func:`HostProfile.default` is a conservative built-in so the planner
works out of the box; ``scripts/calibrate_loggp.py`` measures the real
numbers and persists them as JSON (:meth:`HostProfile.save` /
:meth:`HostProfile.load`), which is the calibration workflow
``docs/SERVING.md`` describes.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.model.cache import CacheModel
from repro.model.logp import LogGPParams
from repro.model.machines import KEY_BYTES, ComputeCosts, MachineSpec

__all__ = ["BackendCosts", "HostProfile", "PROFILE_SCHEMA"]

#: Schema string embedded in persisted profiles; bump on layout changes.
#: History: /1 = calibrated LogGP + serving fixed costs; /2 adds an
#: optional ``adapt`` blob (the :class:`~repro.service.adapt.RequestAdapter`
#: state snapshot) so a restarted service resumes its online corrections
#: warm; /3 adds measured sequential disk read/write bandwidth and fsync
#: latency, which price the out-of-core external-sort regime; /4 drops
#: the overlap-efficiency field (and the adapt blob's ``waits``)
#: with the overlapped remap pipeline.  Older files still load — with a
#: warning, removed fields ignored and conservative disk defaults, so
#: the planner never auto-chooses the external path without measured
#: evidence.
PROFILE_SCHEMA = "repro-bitonic-profile/4"

#: Prior schemas, accepted read-only (warn; missing fields default) so
#: one calibration file survives the bumps.
_LEGACY_PROFILE_SCHEMAS = (
    "repro-bitonic-profile/1",
    "repro-bitonic-profile/2",
    "repro-bitonic-profile/3",
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BackendCosts:
    """One SPMD backend's measured costs on this host.

    ``L``/``o``/``g``/``G`` are LogGP parameters (µs, µs/byte) fitted to
    the backend's collectives; the remaining fields are the serving fixed
    costs outside the closed forms' scope (all in seconds, except
    ``ship_bytes_per_s``).
    """

    L: float
    o: float
    g: float
    G: float
    #: Seconds to spawn one rank of a fresh world (fork/thread + arenas).
    spawn_per_rank_s: float
    #: Seconds of per-job dispatch/collect overhead on a warm world.
    job_overhead_s: float
    #: Bytes/second through the job pipe (shard shipping on a warm procs
    #: world); ``inf`` for the threads backend, which passes references.
    ship_bytes_per_s: float

    def network(self, P: int) -> LogGPParams:
        return LogGPParams(L=self.L, o=self.o, g=self.g, G=self.G, P=max(P, 1))


@dataclass(frozen=True)
class HostProfile:
    """Everything the planner knows about the serving host."""

    cpus: int
    #: Per-element compute rates, µs (see :class:`ComputeCosts`).
    radix_pass_us: float
    merge_us: float
    pack_us: float
    unpack_us: float
    fused_pack_us: float
    address_us: float
    backends: Dict[str, BackendCosts] = field(default_factory=dict)
    #: Calibrated busy-spin budget for the procs backend's counter
    #: handshakes (``None`` = let the backend default from the core
    #: count); plumbed into :class:`~repro.runtime.driver.BackendOptions`.
    spin_budget: Optional[int] = None
    #: Measured sequential disk bandwidths (bytes/s) and fsync latency
    #: (s) from ``scripts/calibrate_loggp.py``; ``None`` = unmeasured —
    #: :meth:`estimate_external` then prices with conservative defaults
    #: and the planner never auto-chooses the external regime
    #: (:attr:`has_disk_evidence`).
    disk_read_bytes_per_s: Optional[float] = None
    disk_write_bytes_per_s: Optional[float] = None
    fsync_s: Optional[float] = None
    #: ``"default"`` for the built-in guess, ``"calibrated"`` after
    #: ``scripts/calibrate_loggp.py`` measured this host.
    source: str = "default"

    @classmethod
    def default(cls) -> "HostProfile":
        """A conservative built-in profile (NumPy-on-one-core scale).

        The absolute numbers matter less than the *ordering* they induce
        (compute dwarfs shared-memory communication per element; procs
        worlds cost more to spawn and dispatch than threads worlds),
        which is what the planner's decisions ride on.  Calibrate for
        real estimates.
        """
        return cls(
            cpus=_usable_cpus(),
            radix_pass_us=0.010,
            merge_us=0.008,
            pack_us=0.010,
            unpack_us=0.008,
            fused_pack_us=0.004,
            address_us=0.001,
            backends={
                "threads": BackendCosts(
                    L=10.0, o=30.0, g=30.0, G=0.0005,
                    spawn_per_rank_s=0.0015,
                    job_overhead_s=0.0010,
                    ship_bytes_per_s=float("inf"),
                ),
                "procs": BackendCosts(
                    L=20.0, o=60.0, g=60.0, G=0.0010,
                    spawn_per_rank_s=0.0080,
                    job_overhead_s=0.0020,
                    ship_bytes_per_s=1.5e9,
                ),
            },
        )

    # -- the bridge into the paper's closed forms ----------------------

    def compute_costs(self) -> ComputeCosts:
        return ComputeCosts(
            radix_pass=self.radix_pass_us,
            merge=self.merge_us,
            compare_exchange=self.merge_us,
            pack=self.pack_us,
            unpack=self.unpack_us,
            address=self.address_us,
            fused_pack=self.fused_pack_us,
        )

    def machine_spec(self, backend: str, P: int) -> MachineSpec:
        """This host, expressed as a :class:`MachineSpec` the
        :mod:`repro.theory` predictors accept."""
        if backend not in self.backends:
            raise ConfigurationError(
                f"profile has no backend {backend!r}; "
                f"knows {sorted(self.backends)}"
            )
        return MachineSpec(
            name=f"host/{backend}",
            network=self.backends[backend].network(P),
            compute=self.compute_costs(),
            # Ranks share one physical cache hierarchy; the capacity
            # upturn is already baked into the measured per-element
            # rates, so the spec's explicit cache penalty is disabled.
            cache=CacheModel(capacity_bytes=1 << 30, key_bytes=KEY_BYTES, alpha=0.0),
        )

    def estimate(
        self,
        N: int,
        P: int,
        backend: str,
        *,
        algorithm: str = "smart",
        warm: bool = True,
        dtype_size: int = KEY_BYTES,
    ) -> float:
        """Estimated end-to-end wall seconds for one sort request.

        The per-processor busy time comes from the paper's closed form
        (:func:`repro.theory.predict.predict` with this host's spec) for
        the requested ``algorithm`` (``"smart"`` bitonic or ``"sample"``);
        oversubscription scales it by ``P / min(P, cpus)`` because ranks
        beyond the core count serialize.  The bitonic remaps are priced
        fused (§4.3) with the Lemma-4 group fan-in; sample sort's single
        exchange spans the world.  On top ride the serving fixed costs:
        spawn (cold only), job dispatch, and shard shipping through the
        job pipe.
        """
        from repro.theory.counts import counts_for
        from repro.theory.predict import predict

        if algorithm == "external":
            # The out-of-core path runs in-process on one box: no world,
            # no backend costs — ``backend`` is the planner's "local"
            # pseudo-backend and is deliberately not validated here.
            return self.estimate_external(N, dtype_size=dtype_size)
        costs = self.backends.get(backend)
        if costs is None:
            raise ConfigurationError(
                f"profile has no backend {backend!r}; "
                f"knows {sorted(self.backends)}"
            )
        spec = self.machine_spec(backend, P)
        busy_us = predict(algorithm, N, P, spec=spec).total
        # Synchronization fan-in: each member observes its peers at one
        # ``o`` apiece — per remap within its Lemma-4 group for bitonic,
        # once across the whole world for sample sort's single exchange.
        if P > 1 and algorithm == "smart":
            counts = counts_for("smart", N, P)
            group = max(2.0, counts.messages / counts.remaps + 1)
            busy_us += counts.remaps * costs.o * group
        elif P > 1:
            busy_us += costs.o * P
        oversub = P / max(1, min(P, self.cpus))
        wall = busy_us * oversub / 1e6
        wall += costs.job_overhead_s
        if not warm:
            wall += costs.spawn_per_rank_s * P
        elif backend == "procs":
            wall += (N * dtype_size) / costs.ship_bytes_per_s
        return wall

    @property
    def has_disk_evidence(self) -> bool:
        """True once calibration measured this host's disk — the gate on
        the planner *auto-choosing* the external regime (a forced or
        budget-degraded external request runs either way)."""
        return (
            self.disk_read_bytes_per_s is not None
            and self.disk_write_bytes_per_s is not None
        )

    def estimate_external(
        self,
        N: int,
        *,
        dtype_size: int = KEY_BYTES,
        memory_budget: Optional[int] = None,
        fan_in: int = 64,
    ) -> float:
        """Estimated wall seconds for one out-of-core external sort.

        The I/O-bandwidth + merge-pass closed form
        (:func:`repro.theory.predict.predict_external`) priced with this
        host's measured disk rates and compute kernels; unmeasured disk
        falls back to the conservative defaults, which keeps an
        evidence-free external estimate pessimistic.
        """
        from repro.theory.predict import predict_external

        pt = predict_external(
            N,
            spec=self.machine_spec_local(),
            memory_budget=memory_budget or (64 << 20),
            fan_in=fan_in,
            dtype_size=dtype_size,
            disk_read_bytes_per_s=self.disk_read_bytes_per_s,
            disk_write_bytes_per_s=self.disk_write_bytes_per_s,
            fsync_s=self.fsync_s,
        )
        return pt.total / 1e6

    def machine_spec_local(self) -> MachineSpec:
        """This host's compute rates with a null network — what the
        single-box predictors (external sort) price against."""
        return MachineSpec(
            name="host/local",
            network=LogGPParams(L=0.0, o=0.0, g=0.0, G=0.0, P=1),
            compute=self.compute_costs(),
            cache=CacheModel(capacity_bytes=1 << 30, key_bytes=KEY_BYTES, alpha=0.0),
        )

    # -- persistence ---------------------------------------------------

    def save(self, path: str, adapt: Optional[Dict[str, Any]] = None) -> None:
        """Persist the profile; ``adapt`` (a
        :meth:`~repro.service.adapt.RequestAdapter.state_blob`) rides
        along so a restarted service resumes its corrections warm."""
        doc: Dict[str, Any] = {
            "schema": PROFILE_SCHEMA,
            "profile": asdict(self),
        }
        if adapt is not None:
            doc["adapt"] = adapt
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def _parse(cls, path: str, doc: Dict[str, Any]) -> "HostProfile":
        schema = doc.get("schema")
        if schema in _LEGACY_PROFILE_SCHEMAS:
            warnings.warn(
                f"{path}: stale profile schema {schema!r} "
                f"(current: {PROFILE_SCHEMA!r}); loading calibration "
                "with removed fields ignored and conservative defaults "
                "for the missing ones — "
                "re-run scripts/calibrate_loggp.py to refresh",
                stacklevel=3,
            )
        elif schema != PROFILE_SCHEMA:
            raise ConfigurationError(
                f"{path}: profile schema {schema!r} != "
                f"{PROFILE_SCHEMA!r} — re-run scripts/calibrate_loggp.py"
            )
        raw = dict(doc["profile"])
        known = {f.name for f in fields(cls)}
        raw = {k: v for k, v in raw.items() if k in known}
        raw["backends"] = {
            name: BackendCosts(**costs)
            for name, costs in raw.get("backends", {}).items()
        }
        return cls(**raw)

    @classmethod
    def load(cls, path: str) -> "HostProfile":
        profile, _ = cls.load_with_state(path)
        return profile

    @classmethod
    def load_with_state(
        cls, path: str
    ) -> Tuple["HostProfile", Optional[Dict[str, Any]]]:
        """The profile plus its persisted adapt blob (``None`` when the
        file predates schema /2 or was saved without one)."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        profile = cls._parse(path, doc)
        blob = doc.get("adapt")
        return profile, blob if isinstance(blob, dict) else None

    def with_backend(self, name: str, costs: BackendCosts) -> "HostProfile":
        merged = dict(self.backends)
        merged[name] = costs
        return replace(self, backends=merged)
