"""Wait-time accounting and service plumbing of the SPMD runtime.

Covers the tracer's wait split (transfer wait vs queue wait, by span
name, exclusive under nesting) and its surfacing in the phase report,
and the host profile's calibrated spin budget reaching the worlds the
service spawns.
"""

import pytest

from repro.api import sort
from repro.trace import Tracer, build_phase_report
from repro.utils.rng import make_keys


class TestWaitSplit:
    def test_classification_by_span_name(self):
        tr = Tracer(0)
        with tr.span("wait", "group-post"):
            pass
        with tr.span("wait", "barrier"):
            pass
        with tr.span("wait", "sendrecv-recv"):
            pass
        split = tr.wait_split()
        assert split["transfer_wait"] >= 0.0
        assert split["queue_wait"] >= 0.0
        # Two transfer-wait names vs one queue name were recorded.
        assert split["transfer_wait"] > 0.0
        assert split["queue_wait"] > 0.0

    def test_nested_wait_is_exclusive(self):
        """A transfer-wait span nested in a queue-wait span leaves its
        parent's bucket — the buckets sum to the outer wall, once."""
        tr = Tracer(0)
        i = tr.begin("wait", "barrier")
        j = tr.begin("wait", "sendrecv-recv")
        tr.end(j)
        tr.end(i)
        split = tr.wait_split()
        outer = tr.spans[0][3] - tr.spans[0][2]
        total = split["transfer_wait"] + split["queue_wait"]
        assert total == pytest.approx(outer, rel=1e-6)

    def test_phase_report_carries_the_split(self):
        keys = make_keys(2048, seed=1)
        report = sort(keys, P=4, backend="threads", trace=True)
        assert report.phases.measured_transfer_wait_us is not None
        assert report.phases.measured_queue_wait_us is not None
        d = report.phases.as_dict()["measured_wait_split"]
        assert d is not None and "transfer_wait_us" in d
        assert "measured wait split" in report.phases.describe()

    def test_untraced_report_has_no_split(self):
        rep = build_phase_report(tracers=None, P=4, n=256)
        assert rep.measured_transfer_wait_us is None
        assert rep.as_dict()["measured_wait_split"] is None


class TestPlannerAndService:
    def test_profile_spin_budget_reaches_the_pool(self):
        """A calibrated spin budget in the planner's host profile is
        passed to the worlds the service spawns."""
        from dataclasses import replace

        from repro.service import HostProfile, Planner, SortService

        profile = replace(HostProfile.default(), spin_budget=123)
        with SortService(planner=Planner(profile=profile)) as svc:
            assert svc.pool._options.spin_budget == 123
        with SortService() as svc:  # default profile: no override
            assert svc.pool._options is None
