"""Online adaptation: completed-request traces folded back into the model.

The planner prices every request with LogGP closed forms calibrated once
by ``scripts/calibrate_loggp.py`` — but real hosts drift under load
(frequency scaling, noisy neighbours, allocator state), and the BSP
sorting studies show measured machine parameters diverging from one-shot
calibration.  :class:`RequestAdapter` closes the loop
(**monitor → model → adapt → replay**):

* after each served request the service calls :meth:`observe` with the
  measured run time (and, for traced requests, the per-rank tracers);
* the adapter folds ``measured / statically-modeled`` into a
  per-``(backend, P, algorithm)`` **EWMA correction factor**, clamped to
  ``[0.25, 4.0]`` and **decaying toward 1.0** without traffic — a stale
  correction must never outlive the load pattern that produced it;
* traced requests additionally fold the
  :class:`~repro.trace.report.PhaseReport` deviation ratios
  (communication vs computation share, measured over predicted) into
  per-key diagnostic EWMAs;
* :meth:`Planner.plan(adapt=True) <repro.service.planner.Planner.plan>`
  then prices every candidate with the adapted factors — the static
  profile object is never mutated, and ``adapt=False`` (or an armed
  fault plan) yields decisions byte-identical to the static planner's.

The adapter is the planner's only correction mechanism.  State persists
through the profile schema
(:meth:`~repro.service.profile.HostProfile.save` with
``adapt=adapter.state_blob()``), so a restarted service resumes warm via
:meth:`RequestAdapter.restore`.

``repro-bitonic adapt-replay`` is the proof harness: record a mixed-shape
load trace, replay it against a frozen-profile service and an adapting
one, and emit the ``adapted_over_static`` table CI gates at >= 1.0.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.machine.metrics import COMM_CATEGORIES, COMPUTE_CATEGORIES
from repro.service.profile import HostProfile

__all__ = ["AdaptKey", "CorrectionState", "RequestAdapter"]

#: One correction key: the planner candidate the factor corrects.
AdaptKey = Tuple[str, int, str]  # (backend, P, algorithm)

#: Correction clamp: a live correction is a bias, not an oracle, and
#: must never invert sane decisions by more than a factor of four.
CLAMP = (0.25, 4.0)


def _clamped(value: float, lo: float = CLAMP[0], hi: float = CLAMP[1]) -> float:
    return min(max(value, lo), hi)


@dataclass
class CorrectionState:
    """One EWMA correction around 1.0 with time-decay toward 1.0.

    ``value`` is the stored EWMA at ``stamp_s`` (the adapter clock).  The
    *effective* value at a later time has decayed exponentially toward
    1.0 with time constant ``decay_s`` — the neutral factor — so a key
    that stops seeing traffic relaxes back to the static model instead of
    pinning a stale correction forever.
    """

    value: float = 1.0
    stamp_s: float = 0.0
    updates: int = 0

    def effective(self, now_s: float, decay_s: float) -> float:
        if self.updates == 0:
            return 1.0
        age = max(0.0, now_s - self.stamp_s)
        if decay_s <= 0:
            return 1.0 if age > 0 else self.value
        return 1.0 + (self.value - 1.0) * math.exp(-age / decay_s)

    def update(self, sample: float, now_s: float, alpha: float,
               decay_s: float) -> float:
        base = self.effective(now_s, decay_s)
        self.value = _clamped(base + alpha * (sample - base))
        self.stamp_s = now_s
        self.updates += 1
        return self.value


class RequestAdapter:
    """Fold completed-request measurements into live planner corrections.

    Parameters
    ----------
    profile:
        The *static* host profile corrections are measured against (the
        same one the owning planner prices with).  Never mutated.
    alpha:
        EWMA gain per observation, in (0, 1].
    decay_s:
        Time constant of the relaxation toward the neutral factor 1.0
        when a key sees no traffic.
    clock:
        Monotonic seconds source (injectable for deterministic tests).

    Thread safety: the service's dispatcher calls :meth:`observe` while
    the submit path calls :meth:`factor`; one lock covers both.
    """

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        alpha: float = 0.3,
        decay_s: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.profile = profile or HostProfile.default()
        self.alpha = alpha
        self.decay_s = decay_s
        self._clock = clock
        self._lock = threading.Lock()
        self._corr: Dict[AdaptKey, CorrectionState] = {}
        #: Per-key diagnostic EWMAs of the PhaseReport deviation ratios
        #: (measured share over predicted share) for the communication
        #: and computation category groups of traced requests.
        self._comm_dev: Dict[AdaptKey, CorrectionState] = {}
        self._comp_dev: Dict[AdaptKey, CorrectionState] = {}
        self.updates = 0

    # -- monitor: fold one completed request ---------------------------

    def observe(
        self,
        *,
        N: int,
        backend: str,
        P: int,
        algorithm: str,
        measured_s: float,
        dtype_size: int = 4,
        tracers: Optional[Sequence[Any]] = None,
    ) -> float:
        """Fold one completed request; returns the key's updated factor.

        ``measured_s`` is the request's measured run time (queue wait
        excluded; for a batch, the per-request share of the dispatch).
        The sample is ``measured / static-model`` — always against the
        *static* profile estimate, never the adapted one, so corrections
        converge to the model's true error instead of compounding
        through their own feedback.  ``tracers``, when given (a traced
        request's per-rank recorders), additionally fold the phase-share
        deviation ratios.
        """
        try:
            static = self.profile.estimate(
                N, P, backend, algorithm=algorithm, warm=True,
                dtype_size=dtype_size,
            )
        except ConfigurationError:
            return 1.0
        if static <= 0.0 or measured_s <= 0.0:
            return 1.0
        sample = _clamped(measured_s / static)
        key = (backend, P, algorithm)
        now = self._clock()
        with self._lock:
            state = self._corr.setdefault(key, CorrectionState())
            factor = state.update(sample, now, self.alpha, self.decay_s)
            self.updates += 1
        if tracers:
            self._observe_trace(
                key, N, [t for t in tracers if t is not None], now
            )
        return factor

    def _observe_trace(
        self,
        key: AdaptKey,
        N: int,
        tracers: Sequence[Any],
        now: float,
    ) -> None:
        """Fold a traced request's phase deviations."""
        from repro.theory.predict import predict
        from repro.trace.report import build_phase_report

        backend, P, algorithm = key
        if not tracers:
            return
        try:
            pt = predict(
                algorithm, N, P, spec=self.profile.machine_spec(backend, P)
            )
        except (ConfigurationError, ValueError):
            pt = None
        rep = build_phase_report(
            tracers=tracers, predicted=pt, P=P, n=max(1, N // max(P, 1))
        )
        comm_dev = _group_deviation(rep, COMM_CATEGORIES)
        comp_dev = _group_deviation(rep, COMPUTE_CATEGORIES)
        with self._lock:
            if comm_dev is not None:
                self._comm_dev.setdefault(key, CorrectionState()).update(
                    _clamped(comm_dev), now, self.alpha, self.decay_s
                )
            if comp_dev is not None:
                self._comp_dev.setdefault(key, CorrectionState()).update(
                    _clamped(comp_dev), now, self.alpha, self.decay_s
                )

    # -- model: the adapted corrections the planner prices with --------

    def factor(self, backend: str, P: int, algorithm: str) -> float:
        """The key's effective correction factor (1.0 when unobserved)."""
        corr = self.correction(backend, P, algorithm)
        return 1.0 if corr is None else corr

    def correction(self, backend: str, P: int, algorithm: str) -> Optional[float]:
        """The key's effective correction factor, or ``None`` when the
        key has never been observed — the planner then keeps pricing that
        candidate exactly as the static path would (adaptation is a delta
        on evidence, never gratuitous divergence)."""
        with self._lock:
            state = self._corr.get((backend, P, algorithm))
            if state is None or not state.updates:
                return None
            return _clamped(state.effective(self._clock(), self.decay_s))

    def deviations(self, backend: str, P: int, algorithm: str) -> Dict[str, float]:
        """The key's diagnostic deviation EWMAs (empty when untraced)."""
        key = (backend, P, algorithm)
        out: Dict[str, float] = {}
        with self._lock:
            now = self._clock()
            for name, table in (("comm", self._comm_dev),
                                ("comp", self._comp_dev)):
                state = table.get(key)
                if state is not None and state.updates:
                    out[name] = state.effective(now, self.decay_s)
        return out

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot for reports and observability."""
        with self._lock:
            now = self._clock()
            return {
                "updates": self.updates,
                "factors": {
                    f"{b}:{p}:{a}": round(
                        state.effective(now, self.decay_s), 4
                    )
                    for (b, p, a), state in sorted(self._corr.items())
                },
            }

    # -- persistence: the profile-schema /2 adapted-state blob ----------

    def state_blob(self) -> Dict[str, Any]:
        """JSON-ready adapted state for ``HostProfile.save(adapt=...)``.

        Timestamps are stored as *ages* (seconds before the snapshot), so
        a restore on a fresh monotonic clock resumes the decay exactly
        where the snapshot left it.
        """
        def dump(state: CorrectionState) -> Dict[str, Any]:
            return {
                "value": state.value,
                "age_s": max(0.0, now - state.stamp_s),
                "updates": state.updates,
            }

        with self._lock:
            now = self._clock()
            return {
                "alpha": self.alpha,
                "decay_s": self.decay_s,
                "updates": self.updates,
                "corrections": [
                    {"backend": b, "P": p, "algorithm": a, **dump(s)}
                    for (b, p, a), s in sorted(self._corr.items())
                ],
                "deviations": [
                    {"backend": b, "P": p, "algorithm": a, "group": grp,
                     **dump(s)}
                    for grp, table in (("comm", self._comm_dev),
                                       ("comp", self._comp_dev))
                    for (b, p, a), s in sorted(table.items())
                ],
            }

    @classmethod
    def restore(
        cls,
        blob: Optional[Dict[str, Any]],
        profile: Optional[HostProfile] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "RequestAdapter":
        """Rebuild an adapter from a ``state_blob`` (a fresh adapter when
        the blob is ``None`` or unreadable — adapted state is a bias,
        never a requirement).  Entries of removed state, such as the
        ``waits`` list older profiles carry, are ignored."""
        blob = blob or {}
        adapter = cls(
            profile=profile,
            alpha=float(blob.get("alpha", 0.3)),
            decay_s=float(blob.get("decay_s", 600.0)),
            clock=clock,
        )
        now = clock()

        def load(entry: Dict[str, Any]) -> CorrectionState:
            return CorrectionState(
                value=_clamped(float(entry.get("value", 1.0)), 0.0, CLAMP[1]),
                stamp_s=now - max(0.0, float(entry.get("age_s", 0.0))),
                updates=max(0, int(entry.get("updates", 0))),
            )

        try:
            for entry in blob.get("corrections", []):
                key = (str(entry["backend"]), int(entry["P"]),
                       str(entry["algorithm"]))
                adapter._corr[key] = load(entry)
            for entry in blob.get("deviations", []):
                key = (str(entry["backend"]), int(entry["P"]),
                       str(entry["algorithm"]))
                table = (adapter._comm_dev if entry.get("group") == "comm"
                         else adapter._comp_dev)
                table[key] = load(entry)
            adapter.updates = max(0, int(blob.get("updates", 0)))
        except (KeyError, TypeError, ValueError):
            return cls(profile=profile, clock=clock)
        return adapter


def _group_deviation(rep: Any, categories: Sequence[str]) -> Optional[float]:
    """Measured share over predicted share for a category *group* (the
    PhaseReport deviation, aggregated), ``None`` when either side lacks
    the group."""
    if rep.measured_us is None or rep.column("predicted") is None:
        return None
    measured = sum(rep.share("measured", c) for c in categories)
    predicted = sum(rep.share("predicted", c) for c in categories)
    if predicted <= 0.0:
        return None
    return measured / predicted
