#!/usr/bin/env python3
"""CI gate for exported Chrome traces and benchmark trajectories.

Usage::

    PYTHONPATH=src python scripts/check_trace.py TRACE.json [TRACE2.json ...]
    PYTHONPATH=src python scripts/check_trace.py --bench BENCH.json TRACE.json ...

Fails (exit 1) if any given trace file:

* has no complete ("ph": "X") span events — an empty trace means the
  instrumentation silently stopped recording;
* uses an event category outside the documented vocabulary
  (`repro.machine.metrics.CATEGORY_DESCRIPTIONS`) or advertises a
  category list that drifted from it;
* carries an unexpected schema string (bump `CHROME_TRACE_SCHEMA` and the
  golden file together, deliberately);
* lacks the core counters a traced sort must produce
  (``remaps``, ``messages``, ``bytes_sent``) — pure out-of-core traces
  (``algo.external`` > 0, no remaps) are exempt: the external sort moves
  bytes through the filesystem, not a transport;
* ran the bitonic sort but shows no ``coll.fused`` collectives, or
  fused collectives that all fell back off the zero-copy path
  (``coll.fused_direct`` == 0) — every remap is fused, and the
  compatibility fallback must never engage silently on the bundled
  backends.  Traces of pure sample-sort runs (``algo.sample`` > 0, no
  bitonic remaps) are exempt: sample sort fuses nothing by design;
* records sample-sort runs (``algo.sample`` > 0) with fewer ``remaps``
  than runs (each run is exactly one splitter-driven redistribution) or
  without a ``merge`` span — a sample trace missing its p-way merge
  means the phase instrumentation silently stopped;
* records group-scoped collectives with an inconsistent member tally
  (``coll.group_alltoallv`` > 0 but ``coll.group_size`` == 0, or a mean
  group size outside ``2 .. ranks``).

Out-of-core traces (``algo.external`` > 0) must carry their own lane:
``spill`` spans for both the write and read sides, a ``merge/external``
span, and positive ``ext.runs`` / ``ext.spill_bytes`` counters — an
external sort that spilled nothing or never merged means the spill
instrumentation silently stopped.

With ``--expect-adapt`` each trace must additionally carry a positive
``adapt.updates`` counter — the service-lane marker that the online
adapter folded the traced request; a trace of an adapting service
without it means the feedback loop silently disengaged.

With ``--expect-external`` each trace must be (or contain) an
out-of-core run: a positive ``algo.external`` counter, with the spill
lane checks above then applying.  Use it for traces produced under a
memory budget that must have degraded to the external sort.

With ``--bench BENCH.json`` it additionally gates the quick benchmark
trajectory.  Schema ``repro-bitonic-bench/6``+ trajectories must carry
the ``*_sample_over_bitonic`` crossover tables (positive ratios; no floor — which algorithm wins is
the data).  Schema ``repro-bitonic-bench/7`` documents may instead (or
additionally) carry an ``adapt_replay`` section, whose
``adapted_over_static`` ratio must be >= 1.0: the adapting service may
never lose to the frozen-profile one on the recorded load.  The
end-to-end gates apply when the end-to-end sections are present, the
adapt gate when ``adapt_replay`` is; a /7 document with neither fails.
Schema ``repro-bitonic-bench/8`` end-to-end trajectories must
additionally carry the ``external_over_inmem`` crossover table (positive
ratios; no floor — where spilling starts to pay is the data).
Schema ``repro-bitonic-bench/10`` kernel records must carry a positive
``reference_over_npsort``: the paper formulation timed next to the
``np.sort``-backed kernel.
"""

import argparse
import json
import sys

from repro.machine.metrics import CATEGORY_DESCRIPTIONS
from repro.trace import CHROME_TRACE_SCHEMA

REQUIRED_COUNTERS = ("remaps", "messages", "bytes_sent")

#: Floor on the adapt-replay ratio: the adapting service must match or
#: beat the frozen-profile service on the recorded load (the feedback
#: loop may never make routing worse).
BENCH_MIN_ADAPTED_OVER_STATIC = 1.0


def check(path: str, expect_adapt: bool = False,
          expect_external: bool = False) -> list:
    errors = []
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    other = doc.get("otherData", {})
    if other.get("schema") != CHROME_TRACE_SCHEMA:
        errors.append(
            f"schema {other.get('schema')!r} != expected {CHROME_TRACE_SCHEMA!r}"
        )
    documented = set(CATEGORY_DESCRIPTIONS)
    advertised = set(other.get("categories", []))
    if advertised != documented:
        errors.append(
            f"category vocabulary drifted: trace advertises {sorted(advertised)}, "
            f"documented set is {sorted(documented)}"
        )
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        errors.append("no span events — the trace is empty")
    used = {e.get("cat") for e in spans}
    rogue = used - documented
    if rogue:
        errors.append(f"span events use undocumented categories: {sorted(rogue)}")
    counters = other.get("counters", {})
    external_runs = counters.get("algo.external", 0)
    pure_external = external_runs and not counters.get("remaps", 0)
    if not pure_external:
        missing = [c for c in REQUIRED_COUNTERS if not counters.get(c)]
        if missing:
            errors.append(f"required counters missing or zero: {missing}")
    sample_runs = counters.get("algo.sample", 0)
    if sample_runs:
        # Each sample-sort run is exactly one splitter-driven
        # redistribution, so the (world-summed) remap tally must cover
        # the runs, and the p-way merge must have left spans.
        if counters.get("remaps", 0) < sample_runs:
            errors.append(
                f"algo.sample = {sample_runs} but only "
                f"{counters.get('remaps', 0)} remaps — each sample sort "
                "redistributes exactly once"
            )
        if not any(e.get("cat") == "merge" for e in spans):
            errors.append(
                "algo.sample recorded but no merge span — the p-way "
                "merge never ran (or stopped tracing)"
            )
    if expect_external and not external_runs:
        errors.append(
            "no algo.external counter — the trace never took the "
            "out-of-core path (the memory budget did not degrade it)"
        )
    if external_runs:
        spill_names = {
            e.get("name") for e in spans if e.get("cat") == "spill"
        }
        for side in ("write", "read"):
            if side not in spill_names:
                errors.append(
                    f"algo.external recorded but no spill/{side} span — "
                    "the spill instrumentation silently stopped"
                )
        if not any(
            e.get("cat") == "merge" and e.get("name") == "external"
            for e in spans
        ):
            errors.append(
                "algo.external recorded but no merge/external span — the "
                "bucket merge never ran (or stopped tracing)"
            )
        for counter in ("ext.runs", "ext.spill_bytes"):
            if not counters.get(counter):
                errors.append(
                    f"algo.external recorded but {counter} is missing or "
                    "zero — an external sort that spilled nothing"
                )
    fused = counters.get("coll.fused", 0)
    if not fused and not sample_runs and not external_runs:
        errors.append(
            "no coll.fused collectives — the bitonic sort fuses every remap"
        )
    elif fused and not counters.get("coll.fused_direct"):
        errors.append(
            "every fused collective fell back off the zero-copy path "
            "(coll.fused_direct == 0) — silent compatibility fallback"
        )
    group_calls = counters.get("coll.group_alltoallv", 0)
    group_size = counters.get("coll.group_size", 0)
    if group_calls and not group_size:
        errors.append(
            "coll.group_alltoallv recorded without coll.group_size members"
        )
    if group_calls:
        ranks = other.get("ranks") or 0
        mean = group_size / group_calls
        if not 2 <= mean <= max(ranks, 2):
            errors.append(
                f"mean group size {mean:.2f} outside 2 .. {ranks} — "
                "Lemma-4 group derivation looks wrong"
            )
    if expect_adapt and not counters.get("adapt.updates"):
        errors.append(
            "no adapt.updates counter — the traced request never reached "
            "the online adapter (feedback loop silently disengaged)"
        )
    return errors


def check_bench(path: str) -> list:
    """Gate a benchmark trajectory JSON (schema repro-bitonic-bench/6+)."""
    errors = []
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema", "")
    if not schema.startswith("repro-bitonic-bench/"):
        return [f"not a bench trajectory (schema {schema!r})"]
    # A /7 document carries the end-to-end trajectory sections, the
    # adapt_replay section, or both; each gate applies to the sections
    # actually present, and a document with neither has nothing to
    # stand on.
    has_end_to_end = bool(
        doc.get("end_to_end") or doc.get("end_to_end_speedup")
    )
    adapt_replay = doc.get("adapt_replay")
    if not has_end_to_end and adapt_replay is None:
        return [
            "neither end-to-end trajectory sections nor an adapt_replay "
            "section — nothing to gate"
        ]
    if adapt_replay is not None:
        ratio = adapt_replay.get("adapted_over_static")
        if not isinstance(ratio, (int, float)):
            errors.append(
                f"adapt_replay.adapted_over_static = {ratio!r}: not a "
                "measured ratio"
            )
        elif ratio < BENCH_MIN_ADAPTED_OVER_STATIC:
            errors.append(
                f"adapt_replay.adapted_over_static = {ratio:.3f}x: the "
                "adapting service lost to the frozen-profile service "
                f"(floor {BENCH_MIN_ADAPTED_OVER_STATIC}x)"
            )
    if not has_end_to_end:
        return errors
    speedups = doc.get("end_to_end_speedup", {})
    try:
        schema_version = int(schema.rsplit("/", 1)[1])
    except (IndexError, ValueError):
        schema_version = 0
    # Schema /6+: the sample-vs-bitonic crossover tables must be present
    # and well-formed (positive ratios); no floor is imposed — which
    # algorithm wins is exactly what the table records.
    sample_tables = {
        name: table
        for name, table in speedups.items()
        if name.endswith("_sample_over_bitonic")
    }
    if schema_version >= 6 and not sample_tables:
        errors.append(
            "no *_sample_over_bitonic crossover tables — schema "
            f"{schema!r} promises the sample-sort variant"
        )
    for name, table in sample_tables.items():
        for size, ratio in table.items():
            if not ratio > 0:
                errors.append(
                    f"{name}[{size}] = {ratio!r}: crossover ratios must "
                    "be positive measured speedups"
                )
    # Schema /8+: the out-of-core crossover table must be present and
    # well-formed (positive ratios); no floor — at what budget the
    # spill-to-disk path starts to pay is exactly what it records.
    external_table = doc.get("external_over_inmem")
    if schema_version >= 8 and not external_table:
        errors.append(
            "no external_over_inmem crossover table — schema "
            f"{schema!r} promises the out-of-core variant"
        )
    for size, ratio in (external_table or {}).items():
        if not isinstance(ratio, (int, float)) or not ratio > 0:
            errors.append(
                f"external_over_inmem[{size}] = {ratio!r}: crossover "
                "ratios must be positive measured speedups"
            )
    # Schema /10+: the radix and merge kernel records time the paper's
    # reference formulation too; without it they would compare np.sort
    # with itself and hide what the native kernels bought.
    if schema_version >= 10:
        for kind in ("radix", "merge"):
            for rec in doc.get("kernels", {}).get(kind, []):
                ratio = rec.get("reference_over_npsort")
                if not isinstance(ratio, (int, float)) or not ratio > 0:
                    errors.append(
                        f"kernels.{kind} record {rec.get('keys', rec.get('shape'))}: "
                        f"reference_over_npsort = {ratio!r}, not a measured ratio"
                    )
    return errors


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="validate Chrome traces (and optionally a bench trajectory)"
    )
    parser.add_argument("traces", nargs="*", help="Chrome-trace JSON files")
    parser.add_argument("--bench", default=None,
                        help="benchmark trajectory JSON to gate")
    parser.add_argument("--expect-adapt", action="store_true",
                        help="require a positive adapt.updates counter "
                             "(traces of an adapting service)")
    parser.add_argument("--expect-external", action="store_true",
                        help="require a positive algo.external counter "
                             "(traces of budget-degraded out-of-core runs)")
    args = parser.parse_args(argv)
    if not args.traces and not args.bench:
        parser.print_help(sys.stderr)
        return 2
    failed = False
    for path in args.traces:
        errors = check(path, expect_adapt=args.expect_adapt,
                       expect_external=args.expect_external)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for err in errors:
                print(f"  - {err}")
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            n = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
            ranks = doc["otherData"].get("ranks")
            print(f"OK   {path}: {n} spans across {ranks} ranks")
    if args.bench:
        errors = check_bench(args.bench)
        if errors:
            failed = True
            print(f"FAIL {args.bench}")
            for err in errors:
                print(f"  - {err}")
        else:
            with open(args.bench, encoding="utf-8") as fh:
                bench_doc = json.load(fh)
            parts = []
            if bench_doc.get("end_to_end") or bench_doc.get("end_to_end_speedup"):
                parts.append("crossover tables present and positive")
            if bench_doc.get("adapt_replay") is not None:
                ratio = bench_doc["adapt_replay"].get("adapted_over_static")
                parts.append(
                    f"adapted_over_static {ratio:.3f}x >= "
                    f"{BENCH_MIN_ADAPTED_OVER_STATIC}x"
                )
            print(f"OK   {args.bench}: " + "; ".join(parts))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
