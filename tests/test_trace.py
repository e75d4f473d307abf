"""The tracing layer: recorder semantics, exporters, report alignment,
runtime instrumentation, and the zero-overhead guarantee."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import sort
from repro.errors import ConfigurationError
from repro.machine.metrics import CATEGORIES
from repro.runtime import Comm, run_spmd, spmd_bitonic_sort
from repro.trace import (
    CHROME_TRACE_SCHEMA,
    PhaseReport,
    Tracer,
    build_phase_report,
    merged_counters,
    to_chrome_trace,
    trace_span,
    trace_to_dict,
    write_chrome_trace,
)
from repro.trace import recorder as recorder_module
from repro.utils.rng import make_keys

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_golden.json"


class TestTracer:
    def test_span_records_interval(self):
        tr = Tracer(3)
        with tr.span("local_sort"):
            pass
        assert len(tr) == 1
        cat, name, start, end, parent = tr.spans[0]
        assert cat == "local_sort" and name is None and parent == -1
        assert end >= start
        assert tr.rank == 3

    def test_unknown_category_rejected(self):
        tr = Tracer()
        with pytest.raises(ConfigurationError, match="unknown trace category"):
            tr.begin("disco")

    def test_nesting_tracks_parents(self):
        tr = Tracer()
        with tr.span("transfer", 1):
            with tr.span("wait", "barrier"):
                pass
        assert tr.spans[1][4] == 0  # wait's parent is the transfer span
        assert tr.spans[0][4] == -1

    def test_totals_are_exclusive(self):
        """Nested spans never double-count: the parent's total is its own
        time minus the children's."""
        tr = Tracer()
        tr.spans = [
            ["transfer", None, 0.0, 1.0, -1],
            ["wait", None, 0.2, 0.6, 0],
        ]
        totals = tr.totals()
        assert totals["transfer"] == pytest.approx(0.6)
        assert totals["wait"] == pytest.approx(0.4)
        assert sum(totals.values()) == pytest.approx(tr.wall())

    def test_unclosed_span_ignored(self):
        tr = Tracer()
        tr.begin("merge")
        assert tr.totals() == {}
        assert tr.wall() == 0.0

    def test_counters_accumulate(self):
        tr = Tracer()
        tr.add("messages")
        tr.add("messages", 2)
        tr.add("bytes_sent", 1024)
        assert tr.counters == {"messages": 3, "bytes_sent": 1024}

    def test_merged_counters_sums_world(self):
        a, b = Tracer(0), Tracer(1)
        a.add("messages", 2)
        b.add("messages", 3)
        b.add("remaps")
        assert merged_counters([a, b]) == {"messages": 5, "remaps": 1}


def _golden_tracers():
    """Hand-built world with fixed timestamps — the schema fixture."""
    t0 = Tracer(0)
    t0.spans = [
        ["local_sort", None, 1.0, 1.25, -1],
        ["transfer", 1, 1.25, 1.5, -1],
        ["wait", "barrier", 1.3, 1.45, 1],
    ]
    t0.counters = {"messages": 3, "bytes_sent": 1024}
    t1 = Tracer(1)
    t1.spans = [["merge", 2, 1.1, 1.4, -1]]
    t1.counters = {"messages": 1}
    return [t0, t1]


class TestChromeExport:
    def test_matches_golden_file(self):
        """The exported structure is pinned byte-for-byte by a golden file;
        regenerate it deliberately (see tests/data/README) when the schema
        version is bumped, never by accident."""
        produced = json.loads(json.dumps(to_chrome_trace(_golden_tracers())))
        assert produced == json.loads(GOLDEN.read_text())

    def test_event_fields(self):
        doc = to_chrome_trace(_golden_tracers())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 4  # three spans on rank 0, one on rank 1
        for e in events:
            assert e["cat"] in CATEGORIES
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert e["pid"] == 0 and e["tid"] in (0, 1)
        # Timestamps are µs relative to the world's earliest span start.
        assert min(e["ts"] for e in events) == 0.0
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"rank 0", "rank 1"}

    def test_other_data_carries_schema_and_counters(self):
        doc = to_chrome_trace(_golden_tracers())
        other = doc["otherData"]
        assert other["schema"] == CHROME_TRACE_SCHEMA
        assert other["categories"] == list(CATEGORIES)
        assert other["ranks"] == 2
        assert other["counters"]["messages"] == 4

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _golden_tracers())
        assert json.loads(path.read_text()) == to_chrome_trace(_golden_tracers())

    def test_trace_to_dict_preserves_spans(self):
        doc = trace_to_dict(_golden_tracers())
        assert doc["schema"] == CHROME_TRACE_SCHEMA
        assert [r["rank"] for r in doc["ranks"]] == [0, 1]
        span = doc["ranks"][0]["spans"][2]
        assert span == {
            "category": "wait", "name": "barrier",
            "start_s": 1.3, "end_s": 1.45, "parent": 1,
        }


class TestPhaseReport:
    def test_shares_and_deviation(self):
        rep = PhaseReport(
            P=2, n=4,
            measured_us={"local_sort": 30.0, "transfer": 70.0},
            predicted_us={"local_sort": 50.0, "transfer": 50.0},
        )
        assert rep.share("measured", "transfer") == pytest.approx(0.7)
        assert rep.deviation("transfer") == pytest.approx(1.4)
        assert rep.deviation("merge") is None

    def test_describe_lists_sources(self):
        rep = build_phase_report(tracers=_golden_tracers(), n=4)
        text = rep.describe()
        assert "measured" in text and "local_sort" in text
        assert "counters" in text

    def test_as_dict_json_ready(self):
        rep = build_phase_report(tracers=_golden_tracers(), n=4)
        doc = json.loads(json.dumps(rep.as_dict()))
        assert doc["P"] == 2 and doc["categories"] == list(CATEGORIES)
        assert doc["counters"]["messages"] == 4


class TestRuntimeInstrumentation:
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_spmd_sort_records_phases_and_counters(self, backend):
        """Every rank records its phase spans and one fused, group-scoped
        collective per remap."""
        P, n = 4, 256
        keys = make_keys(P * n, seed=5)

        def prog(c):
            c.tracer = Tracer(c.rank)
            out = spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])
            return out, c.tracer

        results = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(
            np.concatenate([o for o, _ in results]), np.sort(keys)
        )
        for rank, (_, tr) in enumerate(results):
            assert tr.rank == rank
            totals = tr.totals()
            for cat in ("local_sort", "address", "pack", "transfer",
                        "merge"):
                assert cat in totals, f"rank {rank} missing {cat!r} spans"
            assert tr.counters["remaps"] >= 1
            assert tr.counters["coll.fused"] == tr.counters["remaps"]
            assert tr.counters["coll.slots"] <= P * tr.counters["remaps"]
            assert tr.counters["bytes_sent"] > 0

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_fused_sort_has_no_unpack_spans(self, backend):
        """The fused default collapses pack/transfer/unpack into one
        collective: the unpack span disappears and every remap records a
        fused collective (zero-copy on both bundled backends)."""
        P, n = 4, 256
        keys = make_keys(P * n, seed=5)

        def prog(c):
            c.tracer = Tracer(c.rank)
            out = spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])
            return out, c.tracer

        results = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(
            np.concatenate([o for o, _ in results]), np.sort(keys)
        )
        for _, tr in results:
            totals = tr.totals()
            assert "unpack" not in totals
            for cat in ("local_sort", "address", "pack", "transfer", "merge"):
                assert cat in totals
            assert tr.counters["coll.fused"] == tr.counters["remaps"]
            assert tr.counters["coll.fused_direct"] == tr.counters["remaps"]
            assert tr.counters.get("coll.alltoallv", 0) == 0

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), P=st.sampled_from([2, 4]))
    def test_span_totals_bounded_by_wall_threads(self, seed, P):
        """Property: every rank's exclusive category totals sum to its
        traced wall time, which is bounded by the end-to-end wall time."""
        keys = make_keys(P * 128, seed=seed)
        report = sort(keys, P, backend="threads", trace=True)
        assert len(report.tracers) == P
        for tr in report.tracers:
            totals = tr.totals()
            assert sum(totals.values()) == pytest.approx(tr.wall(), rel=1e-6)
            # Loose upper bound: traced spans happen inside the measured
            # end-to-end window (plus scheduler noise headroom).
            assert tr.wall() <= report.wall_seconds + 0.05

    def test_span_totals_bounded_by_wall_procs(self):
        P = 2
        keys = make_keys(P * 128, seed=9)
        report = sort(keys, P, backend="procs", trace=True)
        for tr in report.tracers:
            assert sum(tr.totals().values()) == pytest.approx(
                tr.wall(), rel=1e-6
            )
            assert tr.wall() <= report.wall_seconds + 0.1


class TestZeroOverhead:
    def test_noop_span_is_shared_singleton(self):
        assert trace_span(None, "pack") is trace_span(None, "transfer")

    @pytest.mark.parametrize("backend", ["threads"])
    def test_untraced_sort_touches_no_trace_machinery(
        self, backend, monkeypatch
    ):
        """With no tracer armed, the instrumented paths must not construct
        a single span object or begin() call — booby-trap both and run."""

        def boom(*a, **k):
            raise AssertionError("trace machinery touched on untraced path")

        monkeypatch.setattr(recorder_module._Span, "__init__", boom)
        monkeypatch.setattr(recorder_module.Tracer, "begin", boom)
        P, n = 2, 128
        keys = make_keys(P * n, seed=1)

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        parts = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))


class TestSendrecvSpecialization:
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_pairwise_exchange_correct(self, backend):
        P = 4

        def prog(c):
            partner = c.rank ^ 1
            got = c.sendrecv(np.full(4, c.rank, dtype=np.int64),
                             partner, partner)
            return got

        results = run_spmd(P, prog, backend=backend)
        for rank, got in enumerate(results):
            np.testing.assert_array_equal(
                got, np.full(4, rank ^ 1, dtype=np.int64)
            )

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_none_send_matched_pattern(self, backend):
        """One side of a matched pair may have nothing to send."""
        P = 2

        def prog(c):
            send = np.arange(3) if c.rank == 0 else None
            return c.sendrecv(send, c.rank ^ 1, c.rank ^ 1)

        r0, r1 = run_spmd(P, prog, backend=backend)
        assert r0 is None
        np.testing.assert_array_equal(r1, np.arange(3))

    def test_specialized_cheaper_than_fallback_threads(self):
        """The backend override must beat the size-wide Comm fallback —
        asserted through the trace counters, not timing."""
        P = 4

        def prog(c):
            partner = c.rank ^ 1
            payload = np.full(8, c.rank, dtype=np.int64)
            c.tracer = Tracer(c.rank)
            fast = c.sendrecv(payload, partner, partner)
            fast_counters = dict(c.tracer.counters)
            c.tracer = Tracer(c.rank)
            slow = Comm.sendrecv(c, payload, partner, partner)
            slow_counters = dict(c.tracer.counters)
            return fast, slow, fast_counters, slow_counters

        for rank, (fast, slow, fc, sc) in enumerate(
            run_spmd(P, prog, backend="threads")
        ):
            np.testing.assert_array_equal(fast, slow)
            # Pairwise: one descriptor slot, no world-wide collective.
            assert fc["coll.sendrecv"] == 1
            assert fc["coll.slots"] == 1
            assert "coll.alltoallv" not in fc
            # Fallback: a full alltoallv, one slot per destination.
            assert sc["coll.alltoallv"] == 1
            assert sc["coll.slots"] == P
            assert fc["coll.slots"] < sc["coll.slots"]
            assert fc["messages"] == sc["messages"] == 1

    def test_procs_sendrecv_counters(self):
        P = 2

        def prog(c):
            c.tracer = Tracer(c.rank)
            c.sendrecv(np.arange(4), c.rank ^ 1, c.rank ^ 1)
            return dict(c.tracer.counters)

        for counters in run_spmd(P, prog, backend="procs"):
            assert counters["coll.sendrecv"] == 1
            assert counters["coll.slots"] == 1
            assert counters["messages"] == 1
            assert "coll.alltoallv" not in counters

    def test_sendrecv_then_collective_no_stale_reads(self):
        """A sendrecv followed by an alltoallv (and vice versa) must not
        leak descriptors between the two protocols on the procs backend."""
        P = 4

        def prog(c):
            ring_next, ring_prev = (c.rank + 1) % P, (c.rank - 1) % P
            got = c.sendrecv(np.full(2, c.rank), ring_next, ring_prev)
            buckets = [np.full(1, c.rank * 10 + q) for q in range(P)]
            received = c.alltoallv(buckets)
            got2 = c.sendrecv(np.full(2, c.rank + 100), ring_next, ring_prev)
            return got, [r[0] for r in received], got2

        for rank, (got, recv, got2) in enumerate(
            run_spmd(P, prog, backend="procs")
        ):
            prev = (rank - 1) % P
            np.testing.assert_array_equal(got, np.full(2, prev))
            assert recv == [p * 10 + rank for p in range(P)]
            np.testing.assert_array_equal(got2, np.full(2, prev + 100))
