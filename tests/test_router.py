"""Tests for shard routing (:mod:`repro.service.router`).

Routing policy is tested against scripted fake shards (deterministic,
no sockets): least-loaded spreading, hard-failure failover, circuit
breaking with half-open recovery, the admission-is-load-not-sickness
rule, and the typed-outcome guarantee.  A final integration test drives
a router over two real networked shards and kills one mid-stream.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    RequestTimeoutError,
    ServiceClosedError,
    ShardUnavailableError,
)
from repro.service import (
    LocalShard,
    ShardRouter,
    SortClient,
    SortServer,
    SortService,
)
from repro.service.net import ClientOutcome
from repro.utils.rng import make_keys


class FakeShard:
    """A scripted shard: pops the next behavior per sort() call.

    Behaviors: ``"ok"`` returns the sorted keys; an exception instance
    is raised; the last behavior repeats forever.
    """

    def __init__(self, name, script=("ok",), healthy=True):
        self.name = name
        self.script = list(script)
        self.healthy = healthy
        self.calls = 0
        self.health_calls = 0

    def _next(self):
        step = self.script[0]
        if len(self.script) > 1:
            self.script.pop(0)
        return step

    def sort(self, keys, **opts):
        self.calls += 1
        step = self._next()
        if step == "ok":
            return ClientOutcome(
                sorted_keys=np.sort(np.asarray(keys)),
                request_id=f"{self.name}-{self.calls}",
                shard=self.name,
            )
        raise step

    def health(self, timeout_s=5.0):
        self.health_calls += 1
        if not self.healthy:
            raise ShardUnavailableError(f"{self.name} is down")
        return {"server": self.name, "healthy": True}


def _down(name="x"):
    return ShardUnavailableError(f"{name} unreachable")


class TestRoutingPolicy:
    def test_routes_and_sorts(self):
        router = ShardRouter({"a": FakeShard("a")})
        keys = make_keys(256, seed=0)
        out = router.sort(keys)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.failovers == 0
        assert router.routed == 1

    def test_spreads_across_shards(self):
        a, b = FakeShard("a"), FakeShard("b")
        router = ShardRouter({"a": a, "b": b})
        for i in range(8):
            router.sort(make_keys(64, seed=i))
        assert a.calls >= 2 and b.calls >= 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ShardUnavailableError):
            ShardRouter({})

    def test_closed_router_is_typed(self):
        router = ShardRouter({"a": FakeShard("a")})
        router.close()
        with pytest.raises(ServiceClosedError):
            router.sort(make_keys(16, seed=0))


class TestFailover:
    def test_hard_failure_fails_over(self):
        dead = FakeShard("dead", script=(_down("dead"),))
        live = FakeShard("live")
        router = ShardRouter({"dead": dead, "live": live})
        # Run a few requests: any that land on `dead` must fail over.
        for i in range(4):
            out = router.sort(make_keys(128, seed=i))
            assert out.shard == "live"
        assert live.calls >= 4

    def test_failover_count_reported(self):
        dead = FakeShard("dead", script=(_down("dead"),))
        live = FakeShard("live")
        router = ShardRouter({"dead": dead, "live": live})
        saw_failover = False
        for i in range(6):
            out = router.sort(make_keys(128, seed=i))
            if out.failovers:
                saw_failover = True
        assert saw_failover
        assert router.failovers >= 1

    def test_all_dead_is_typed_with_snapshot(self):
        router = ShardRouter({
            "a": FakeShard("a", script=(_down("a"),)),
            "b": FakeShard("b", script=(_down("b"),)),
        })
        with pytest.raises(ShardUnavailableError) as exc:
            router.sort(make_keys(64, seed=0))
        assert set(exc.value.shards) == {"a", "b"}
        assert exc.value.attempts == 2

    def test_timeout_never_fails_over(self):
        """A spent budget cannot be fixed by another shard."""
        slow = FakeShard(
            "slow",
            script=(RequestTimeoutError("spent", stage="client"),),
        )
        live = FakeShard("live")
        router = ShardRouter({"slow": slow, "live": live})
        raised = 0
        for i in range(4):
            try:
                router.sort(make_keys(64, seed=i))
            except RequestTimeoutError:
                raised += 1
        assert raised >= 1
        assert live.calls + slow.calls == 4  # no re-sends of timeouts

    def test_router_deadline_is_typed(self):
        router = ShardRouter({"a": FakeShard("a")})
        with pytest.raises(RequestTimeoutError) as exc:
            router.sort(make_keys(64, seed=0), deadline_s=0.0)
        assert exc.value.stage == "router"

    def test_admission_rejection_tries_another_shard(self):
        full = FakeShard(
            "full", script=(AdmissionError("full", reason="queue-full"),)
        )
        live = FakeShard("live")
        router = ShardRouter({"full": full, "live": live})
        for i in range(4):
            out = router.sort(make_keys(64, seed=i))
            assert out.shard == "live"
        # Admission rejections are load, not sickness: no ejection.
        assert router.status()["full"]["state"] in ("healthy", "shaky")
        assert router.status()["full"]["consecutive_failures"] == 0

    def test_all_full_raises_admission_not_unavailable(self):
        router = ShardRouter({
            "a": FakeShard("a", script=(AdmissionError("full"),)),
            "b": FakeShard("b", script=(AdmissionError("full"),)),
        })
        with pytest.raises(AdmissionError):
            router.sort(make_keys(64, seed=0))


class TestCircuitBreaker:
    def test_ejection_after_consecutive_failures(self):
        dead = FakeShard("dead", script=(_down("dead"),))
        live = FakeShard("live")
        router = ShardRouter({"dead": dead, "live": live},
                             eject_after=2, cooldown_s=30.0)
        for i in range(8):
            router.sort(make_keys(64, seed=i))
        assert router.status()["dead"]["state"] == "ejected"
        calls_when_ejected = dead.calls
        for i in range(4):
            router.sort(make_keys(64, seed=i))
        assert dead.calls == calls_when_ejected  # no traffic while out

    def test_half_open_probe_heals(self):
        flaky = FakeShard(
            "flaky", script=(_down(), _down(), "ok"), healthy=True
        )
        live = FakeShard("live")
        router = ShardRouter({"flaky": flaky, "live": live},
                             eject_after=2, cooldown_s=0.05)
        for i in range(6):
            router.sort(make_keys(64, seed=i))
        time.sleep(0.06)  # cooldown passes: flaky turns half-open
        assert router.status()["flaky"]["state"] in ("half-open",
                                                     "ejected")
        for i in range(6):
            router.sort(make_keys(64, seed=i))
        # The half-open probe succeeded ("ok" script) and closed the
        # breaker.
        assert router.status()["flaky"]["state"] == "healthy"

    def test_health_probe_failures_eject(self):
        sick = FakeShard("sick", healthy=False)
        live = FakeShard("live")
        router = ShardRouter({"sick": sick, "live": live},
                             eject_after=2, cooldown_s=30.0)
        router.check_health()
        router.check_health()
        assert router.status()["sick"]["state"] == "ejected"
        assert router.status()["live"]["state"] == "healthy"
        out = router.sort(make_keys(64, seed=0))
        assert out.shard == "live"
        assert sick.calls == 0

    def test_background_health_thread(self):
        live = FakeShard("live")
        router = ShardRouter({"live": live}, health_interval_s=0.02)
        router.start_health_checks()
        deadline = time.monotonic() + 30.0
        while live.health_calls < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        router.close()
        assert live.health_calls >= 2
        assert router.status()["live"]["last_health"]["healthy"] is True


class TestLocalShard:
    @pytest.fixture(scope="class")
    def service(self):
        svc = SortService(queue_depth=8, batch_max=2)
        yield svc
        svc.close()

    def test_sort_and_health(self, service):
        shard = LocalShard(service, name="inproc")
        keys = make_keys(2048, seed=1)
        out = shard.sort(keys, backend="threads", P=2, deadline_s=60.0)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.shard == "inproc"
        answer = shard.health()
        assert answer["healthy"] is True

    def test_mixed_local_and_fake_pool(self, service):
        router = ShardRouter({
            "inproc": LocalShard(service, name="inproc"),
            "dead": FakeShard("dead", script=(_down("dead"),)),
        })
        for i in range(3):
            out = router.sort(make_keys(1024, seed=i), backend="threads",
                              P=2, deadline_s=60.0)
            assert out.shard == "inproc"


class TestIntegrationKillMidStream:
    def test_requests_survive_a_shard_kill(self):
        servers, shards = [], {}
        for s in range(2):
            svc = SortService(queue_depth=8, batch_max=2)
            srv = SortServer(svc, name=f"s{s}", own_service=True)
            addr = srv.start()
            servers.append(srv)
            shards[f"s{s}"] = SortClient(
                addr, via_shm=False, retries=2, backoff_s=0.01,
                timeout_s=5.0,
            )
        router = ShardRouter(shards, eject_after=1, cooldown_s=5.0)
        try:
            for i in range(3):
                router.sort(make_keys(1024, seed=i), deadline_s=30.0,
                            backend="threads", P=2)
            servers[1].kill()
            for i in range(3, 6):
                keys = make_keys(1024, seed=i)
                out = router.sort(keys, deadline_s=30.0,
                                  backend="threads", P=2)
                assert np.array_equal(out.sorted_keys, np.sort(keys))
                assert out.shard == "s0"
        finally:
            router.close()
            for cli in shards.values():
                cli.close()
            for srv in servers:
                srv.close()
