"""Command-line entry point.

``repro-bitonic`` exposes the library's main functions without writing
Python:

``repro-bitonic experiment <id> [--full]``
    Reproduce one of the paper's tables/figures (or ``all`` / ``list``).
    For backwards compatibility a bare experiment id also works:
    ``repro-bitonic table5.1``.
``repro-bitonic sort --keys 1048576 --procs 32 [--algorithm smart] ...``
    Run one parallel sort and print its simulated statistics.
``repro-bitonic schedule --keys 256 --procs 16``
    Print the smart remap schedule, patterns and metrics (Figure 3.3/3.4).
``repro-bitonic predict --keys 33554432 --procs 32``
    Closed-form time predictions for the three bitonic algorithms.
``repro-bitonic fft --points 65536 --procs 16``
    Run the parallel FFT generalization and verify it against NumPy.
``repro-bitonic chaos --keys 4096 --procs 4 --drop 0.05``
    Run the real SPMD sort on the threads backend through an adversarial
    network (seeded drop/duplication/corruption/delay, optional rank
    crash) and report the recovery cost; the ``chaos-sweep`` experiment
    is the simulator-side counterpart.
``repro-bitonic bench [--quick] [--out BENCH.json]``
    Time the real SPMD sort end-to-end across runtime backends (threads
    vs processes) and the kernel hot paths against ``np.sort``, verify
    cross-backend byte-identity, and write the
    machine-readable benchmark trajectory JSON (now with per-phase
    breakdowns from a traced companion run per backend).
``repro-bitonic serve --requests 200 --worlds 2``
    Soak the persistent sort service: push a mixed-shape request stream
    through a warm world pool, verify every output, export sampled
    per-request Chrome traces, gate p50/p99 latency against a committed
    baseline (``--baseline SOAK_BASELINE.json``), and fail on any leaked
    child process or shared-memory segment (the CI ``service-soak`` job).
``repro-bitonic serve --listen 127.0.0.1:7070``
    Run the networked sort service in the foreground: an asyncio frame
    server (``repro.service.net``) over a warm world pool, until ^C.
``repro-bitonic submit --keys 65536 [--backend procs --procs 4]``
    Run one request through the sort service and print the planner's
    decision table alongside the measured latency.  With
    ``--connect HOST:PORT`` the request travels the wire to a running
    ``serve --listen`` server instead (deadline, tenant and retries
    apply).
``repro-bitonic chaos-serve --shards 2 --clients 8 --requests 200``
    The serving layer's adversarial soak: several networked shards
    behind a health-checked router, concurrent multi-tenant clients,
    deterministic frame drop/corrupt/delay injection, and one shard
    killed mid-run.  Gates: every request is accounted (completed
    correctly — possibly after failover — or failed with a typed
    error), zero silent losses, zero leaked processes or shm segments,
    and p50/p99 within the committed baseline.
``repro-bitonic trace --keys 262144 --procs 4 --backend threads``
    Run the real SPMD sort with the phase tracer armed, print the
    measured / simulated / predicted per-phase table
    (:class:`~repro.trace.report.PhaseReport`), and write a Chrome-trace
    JSON timeline (open in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_result

__all__ = ["main"]


def _cmd_experiment(args) -> int:
    if args.id == "list":
        for ident in sorted(set(EXPERIMENTS)):
            print(ident)
        return 0
    if args.id == "all":
        seen = set()
        idents = []
        for ident, fn in EXPERIMENTS.items():
            if fn not in seen:
                seen.add(fn)
                idents.append(ident)
    else:
        idents = [args.id]
    for ident in idents:
        print(format_result(run_experiment(ident, full=args.full)))
        print()
    return 0


def _cmd_sort(args) -> int:
    from repro.sorts import (
        BlockedMergeBitonicSort,
        CyclicBlockedBitonicSort,
        ParallelRadixSort,
        ParallelSampleSort,
        SmartBitonicSort,
    )
    from repro.utils.rng import make_keys

    algos = {
        "smart": lambda: SmartBitonicSort(
            mode=args.messages, fused=(args.messages == "long" and not args.unfused)
        ),
        "cyclic-blocked": lambda: CyclicBlockedBitonicSort(mode=args.messages),
        "blocked-merge": lambda: BlockedMergeBitonicSort(mode=args.messages),
        "radix": ParallelRadixSort,
        "sample": ParallelSampleSort,
    }
    if args.algorithm not in algos:
        print(f"unknown algorithm {args.algorithm!r}; choose from {sorted(algos)}",
              file=sys.stderr)
        return 2
    keys = make_keys(args.keys, distribution=args.distribution, seed=args.seed)
    algo = algos[args.algorithm]()
    result = algo.run(keys, args.procs, verify=True)
    st = result.stats
    print(f"{algo.name}: sorted and verified {args.keys:,} keys on "
          f"{args.procs} processors")
    print(f"  simulated time   {st.elapsed_us / 1e6:.4f} s  "
          f"({st.us_per_key:.3f} us/key)")
    print(f"  computation      {st.computation_per_key:.3f} us/key")
    print(f"  communication    {st.communication_per_key:.3f} us/key")
    print(f"  remaps R = {st.remaps}   volume V = {st.volume_per_proc:,}/proc   "
          f"messages M = {st.messages_per_proc:,}/proc")
    return 0


def _cmd_schedule(args) -> int:
    from repro.layouts import smart_schedule
    from repro.viz import render_schedule_map

    sched = smart_schedule(args.keys, args.procs)
    print(sched.describe())
    print()
    print(render_schedule_map(sched))
    print()
    print(f"volume  V = {sched.volume_per_processor():,} elements/processor")
    print(f"messages M = {sched.messages_per_processor():,} per processor")
    return 0


def _cmd_predict(args) -> int:
    from repro.theory import predict

    print(f"predicted busy time, N={args.keys:,} keys on P={args.procs} "
          f"(Meiko CS-2 model):")
    for algo in ("smart", "cyclic-blocked", "blocked-merge"):
        pt = predict(algo, args.keys, args.procs)
        print(f"  {algo:<16} {pt.us_per_key:7.3f} us/key  "
              f"(comp {pt.computation / pt.n:.3f}, comm {pt.communication / pt.n:.3f})")
    return 0


def _cmd_gantt(args) -> int:
    from repro.sorts import (
        BlockedMergeBitonicSort,
        ColumnSort,
        CyclicBlockedBitonicSort,
        ParallelRadixSort,
        ParallelSampleSort,
        SmartBitonicSort,
    )
    from repro.utils.rng import make_keys
    from repro.viz import render_gantt

    algos = {
        "smart": SmartBitonicSort,
        "smart-unfused": lambda: SmartBitonicSort(fused=False),
        "cyclic-blocked": CyclicBlockedBitonicSort,
        "blocked-merge": BlockedMergeBitonicSort,
        "radix": ParallelRadixSort,
        "sample": ParallelSampleSort,
        "column": ColumnSort,
    }
    if args.algorithm not in algos:
        print(f"unknown algorithm {args.algorithm!r}; choose from {sorted(algos)}",
              file=sys.stderr)
        return 2
    keys = make_keys(args.keys, distribution=args.distribution, seed=args.seed)
    res = algos[args.algorithm]().run(keys, args.procs, verify=True, trace=True)
    print(render_gantt(res.traces, width=args.width))
    print(f"\nmakespan {res.stats.elapsed_us / 1e3:.2f} ms simulated "
          f"({res.stats.us_per_key:.3f} us/key)")
    return 0


def _cmd_fft(args) -> int:
    import numpy as np

    from repro.fft import ParallelFFT

    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=args.points) + 1j * rng.normal(size=args.points)
    res = ParallelFFT().run(x, args.procs, verify=True)
    st = res.stats
    print(f"parallel FFT of {args.points:,} points on {args.procs} processors "
          f"— verified against np.fft.fft")
    print(f"  remaps R = {st.remaps}   volume V = {st.volume_per_proc:,} "
          f"points/proc   {st.us_per_key:.3f} simulated us/point")
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultPlan, run_chaos_sort
    from repro.utils.rng import make_keys

    plan = FaultPlan(
        seed=args.seed,
        drop=args.drop,
        duplicate=args.duplicate,
        corrupt=args.corrupt,
        delay=args.delay,
        crash_rank=args.crash_rank,
        crash_phase=args.crash_phase,
    )
    keys = make_keys(args.keys, distribution=args.distribution, seed=args.seed)
    report = run_chaos_sort(
        keys,
        args.procs,
        plan,
        max_restarts=args.max_restarts,
        timeout=args.timeout,
        checkpoint=not args.no_checkpoint,
        backend=args.backend,
    )
    print(report.describe())
    return 0


def _cmd_trace(args) -> int:
    from repro.api import sort
    from repro.errors import ReproError
    from repro.trace import write_chrome_trace
    from repro.utils.rng import make_keys

    keys = make_keys(args.keys, distribution=args.distribution, seed=args.seed)
    try:
        report = sort(
            keys,
            args.procs,
            algorithm=args.algorithm,
            backend=args.backend,
            trace=True,
            timeout=args.timeout,
        )
    except ReproError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    write_chrome_trace(args.out, report.tracers)
    print(f"\nchrome trace written to {args.out} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_bench(args) -> int:
    from repro.errors import ConfigurationError
    from repro.harness.bench import run_bench, write_bench

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    sizes = (
        [int(s) for s in args.sizes.split(",") if s.strip()]
        if args.sizes
        else None
    )
    try:
        payload = run_bench(
            quick=args.quick,
            sizes=sizes,
            procs=args.procs,
            backends=backends,
            reps=args.reps,
            timeout=args.timeout,
        )
    except ConfigurationError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    write_bench(payload, args.out)
    host = payload["host"]
    print(f"benchmark trajectory written to {args.out}")
    print(f"  host: {host['cpu_count']} usable cores, numpy {host['numpy']}")
    for rec in payload["end_to_end"]:
        line = (f"  end-to-end {rec['backend']:>7} "
                f"[{rec['algorithm']:>6}] "
                f"{rec['keys']:>9,} keys "
                f"x {rec['procs']} ranks: {rec['best_s'] * 1e3:8.1f} ms best")
        phases = rec.get("phases") or {}
        total = sum(phases.values())
        if total > 0:
            top = sorted(phases.items(), key=lambda kv: -kv[1])[:3]
            line += "  [" + ", ".join(
                f"{name} {100.0 * us / total:.0f}%" for name, us in top
            ) + "]"
        print(line)
    for name, by_size in payload["end_to_end_speedup"].items():
        pretty = ", ".join(f"{int(k):,}: {v:.2f}x" for k, v in by_size.items())
        print(f"  speedup {name}: {pretty}")
    for kind in ("radix", "merge"):
        for rec in payload["kernels"][kind]:
            print(f"  kernel {kind:>5} {rec.get('keys', rec.get('shape'))}: "
                  f"{rec['over_npsort']:.2f}x np.sort (paper reference "
                  f"{rec['reference_over_npsort']:.2f}x)")
    for rec in payload["kernels"]["plan"]:
        print(f"  kernel  plan {rec['keys']}: "
              f"{rec['speedup']:.2f}x cached over rebuilt")
    service = payload.get("service", {})
    for backend, by_size in service.get("warm_over_cold", {}).items():
        pretty = ", ".join(f"{int(k):,}: {v:.2f}x" for k, v in by_size.items())
        print(f"  service warm-over-cold {backend}: {pretty}")
    if service.get("planner_points"):
        print(f"  planner matched best measured config on "
              f"{service['planner_matches']}/{service['planner_points']} "
              f"(backend, size) points")
    algos = service.get("algorithms", {})
    for backend, by_size in algos.get("sample_over_bitonic", {}).items():
        pretty = ", ".join(f"{int(k):,}: {v:.2f}x" for k, v in by_size.items())
        print(f"  sample-over-bitonic {backend} (warm, P="
              f"{algos.get('P')}): {pretty}")
    if algos.get("planner_points"):
        print(f"  planner routed the best measured algorithm on "
              f"{algos['planner_matches']}/{algos['planner_points']} "
              f"(backend, size) shapes")
    return 0


def _cmd_adapt_replay(args) -> int:
    """Record/replay proof of the online-adaptation loop: replay one
    load trace against a frozen-profile service and an adapting one,
    write the BENCH /7 ``adapted_over_static`` table, gate >= min."""
    from repro.harness.adapt_replay import (
        record_load_trace,
        run_adapt_replay,
        save_load_trace,
    )

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if args.record_out:
        save_load_trace(
            record_load_trace(args.requests, sizes, args.seed),
            args.record_out,
        )
        print(f"load trace recorded to {args.record_out}")
    doc = run_adapt_replay(
        requests=args.requests,
        sizes=sizes,
        seed=args.seed,
        profile_path=args.profile,
        load_path=args.record_out or args.load,
        out=args.out,
        drift=not args.no_drift,
    )
    ar = doc["adapt_replay"]
    ratio = ar["adapted_over_static"]
    print(f"adapt-replay written to {args.out}")
    for side in ("static", "adapted"):
        r = ar[side]
        mix = ", ".join(f"{k} x{v}" for k, v in r["decision_mix"].items())
        print(f"  {side:>7}: {r['requests']} requests, "
              f"sum wall {r['sum_wall_s'] * 1e3:.0f} ms, "
              f"p50 {r['p50_s'] * 1e3:.1f} ms, p99 {r['p99_s'] * 1e3:.1f} ms")
        print(f"           [{mix}]")
    adapt = ar["adapted"].get("adapt", {})
    print(f"  adapter: {adapt.get('updates', 0)} updates, "
          f"factors {adapt.get('factors', {})}")
    print(f"  adapted_over_static: {ratio:.3f}x "
          f"(gate: >= {args.min_ratio})")
    if ratio < args.min_ratio:
        print(f"adapt-replay: adapting service was slower than the frozen "
              f"one ({ratio:.3f}x < {args.min_ratio})", file=sys.stderr)
        return 1
    return 0


def _service_planner(profile_path):
    """A Planner for the CLI service commands: the calibrated profile
    when one is given, the built-in default otherwise."""
    from repro.service import HostProfile, Planner

    profile = None
    if profile_path:
        profile = HostProfile.load(profile_path)
    return Planner(profile=profile)


def _shm_segments() -> set:
    """Names of live SPMD shared-memory segments (procs arenas)."""
    import glob as _glob
    import os as _os

    if not _os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        return set()
    return {
        _os.path.basename(p) for p in _glob.glob("/dev/shm/rspmd*")
    }


def _spill_dirs() -> set:
    """Names of live external-sort spill directories (the disk twin of
    :func:`_shm_segments` for the soak leak gate)."""
    import os as _os

    from repro.extsort import live_spill_dirs

    return {_os.path.basename(p) for p in live_spill_dirs()}


def _parse_listen(spec: str):
    """``host:port`` / ``:port`` / ``port`` -> ``(host, int(port))``."""
    host, _, port = str(spec).rpartition(":")
    return (host or "127.0.0.1", int(port))


def _load_baseline(path, section):
    """One section of the committed soak baseline, or None."""
    import json
    import os

    if not path or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(section)


def _gate_percentiles(p50_s, p99_s, baseline, label) -> int:
    """Compare measured p50/p99 to the committed ceiling; 1 on breach."""
    if not baseline:
        return 0
    bad = 0
    for name, got in (("p50_s", p50_s), ("p99_s", p99_s)):
        ceiling = baseline.get(name)
        if ceiling is not None and got > ceiling:
            print(f"{label}: {name} {got:.3f}s exceeds the committed "
                  f"baseline ceiling {ceiling:.3f}s", file=sys.stderr)
            bad = 1
    return bad


def _cmd_listen(args) -> int:
    """Foreground networked service: ``serve --listen HOST:PORT``."""
    import time as _time

    from repro.errors import ReproError
    from repro.service import SortServer, SortService, WorldPool

    try:
        planner = _service_planner(args.profile)
        svc = SortService(
            planner,
            WorldPool(max_idle_per_key=args.worlds),
            queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            timeout=args.timeout,
            memory_budget=args.memory_budget,
            disk_budget=args.disk_budget,
        )
        host, port = _parse_listen(args.listen)
        server = SortServer(svc, host, port, name=args.name,
                            own_service=True)
        addr = server.start()
    except (ReproError, OSError, ValueError) as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(f"shard {args.name!r} serving on {addr[0]}:{addr[1]} "
          "(ctrl-C to drain and stop)")
    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("draining...")
    finally:
        server.close(drain=True)
    report = svc.report()
    print(report.describe())
    return 0


def _cmd_serve(args) -> int:
    """The service soak driver (the CI ``service-soak`` job runs this):
    push a mixed-shape request stream through a small warm pool, verify
    every output, export sampled per-request traces, and fail loudly on
    any leaked process or shared-memory segment."""
    import multiprocessing
    import os

    from repro.errors import AdmissionError, ReproError
    from repro.service import SortService, WorldPool
    from repro.utils.rng import make_keys

    if args.listen:
        return _cmd_listen(args)
    try:
        planner = _service_planner(args.profile)
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    shm_before = _shm_segments()
    spill_before = _spill_dirs()
    # The mixed request shapes: every (size, backend, P) combination the
    # soak cycles through.  P >= 2 shapes exercise real communication;
    # the P chosen freely by the planner exercises the planner.
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    shapes = []
    for size in sizes:
        for backend in backends:
            shapes.append((size, backend, 2))
            shapes.append((size, backend, 4))
            shapes.append((size, backend, None))  # planner's choice of P
    failures = 0
    traced = 0
    rng_seed = 0
    pool = WorldPool(max_idle_per_key=args.worlds)
    svc = SortService(
        planner,
        pool,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
        timeout=args.timeout,
        memory_budget=args.memory_budget,
        disk_budget=args.disk_budget,
    )
    if args.traces_dir:
        os.makedirs(args.traces_dir, exist_ok=True)
    inflight = []  # sliding window of (ticket, keys, trace_path)
    try:
        for i in range(args.requests):
            size, backend, P = shapes[i % len(shapes)]
            keys = make_keys(size, seed=rng_seed)
            rng_seed += 1
            trace_path = None
            if (
                args.traces_dir
                and args.trace_every
                and i % args.trace_every == 0
                and (P or 0) >= 2
            ):
                trace_path = os.path.join(
                    args.traces_dir, f"request_{i:04d}.json"
                )
            while True:
                try:
                    t = svc.submit(
                        keys, backend=backend, P=P,
                        trace=trace_path is not None,
                    )
                    break
                except AdmissionError:
                    # Queue full: drain the oldest inflight request and
                    # resubmit — the soak applies backpressure instead
                    # of shedding its own load.
                    if not inflight:
                        raise
                    failures += _drain(inflight.pop(0), args)
            inflight.append((t, keys, trace_path))
            if len(inflight) >= args.queue_depth:
                failures += _drain(inflight.pop(0), args)
        while inflight:
            failures += _drain(inflight.pop(0), args)
        traced = sum(
            1 for name in os.listdir(args.traces_dir)
            if name.startswith("request_")
        ) if args.traces_dir else 0
    finally:
        svc.close()
    report = svc.report()
    print(report.describe())
    if traced:
        print(f"  {traced} per-request traces in {args.traces_dir}/")
    # Leak gates: every world closed means every child reaped and every
    # arena unlinked.
    children = multiprocessing.active_children()
    shm_leaked = _shm_segments() - shm_before
    spill_leaked = _spill_dirs() - spill_before
    if children:
        print(f"LEAK: {len(children)} child processes still alive: "
              f"{[p.name for p in children]}", file=sys.stderr)
    if shm_leaked:
        print(f"LEAK: {len(shm_leaked)} shared-memory segments left in "
              f"/dev/shm: {sorted(shm_leaked)[:8]}", file=sys.stderr)
    if spill_leaked:
        print(f"LEAK: {len(spill_leaked)} spill directories left on "
              f"disk: {sorted(spill_leaked)[:8]}", file=sys.stderr)
    p50 = report.latency_percentile(0.50)
    p99 = report.latency_percentile(0.99)
    print(f"  latency p50 {p50 * 1e3:.1f} ms   p99 {p99 * 1e3:.1f} ms")
    slow = _gate_percentiles(
        p50, p99, _load_baseline(args.baseline, "service_soak"), "soak"
    )
    if (failures or children or shm_leaked or spill_leaked
            or report.failed or slow):
        print(f"soak FAILED: {failures} bad outputs, {report.failed} "
              f"failed requests, {len(children)} leaked processes, "
              f"{len(shm_leaked)} leaked segments, {len(spill_leaked)} "
              f"leaked spill dirs, {slow} latency-gate breaches",
              file=sys.stderr)
        return 1
    print(f"soak ok: {report.served} requests served, zero leaks")
    return 0


def _drain(entry, args) -> int:
    """Await one soak request; verify its output; write its trace.
    Returns 1 on a bad output, 0 otherwise."""
    import numpy as np

    from repro.trace import write_chrome_trace

    ticket, keys, trace_path = entry
    try:
        outcome = ticket.result(args.timeout)
    except Exception as exc:  # noqa: BLE001 — count and continue the soak
        print(f"request {ticket.request_id} failed: {exc}", file=sys.stderr)
        return 1
    if not np.array_equal(outcome.sorted_keys, np.sort(keys)):
        print(f"request {ticket.request_id}: WRONG OUTPUT", file=sys.stderr)
        return 1
    if trace_path and outcome.tracers:
        write_chrome_trace(trace_path, outcome.tracers)
    return 0


def _cmd_submit(args) -> int:
    """One request through a fresh service: plan, run, explain.  With
    ``--connect`` the request goes over the wire instead."""
    from repro.errors import ReproError
    from repro.service import SortService
    from repro.trace import write_chrome_trace
    from repro.utils.rng import make_keys

    keys = make_keys(args.keys, distribution=args.distribution,
                     seed=args.seed)
    if args.connect:
        return _submit_remote(args, keys)
    try:
        planner = _service_planner(args.profile)
        with SortService(
            planner, verify=True, timeout=args.timeout,
            memory_budget=args.memory_budget,
        ) as svc:
            outcome = svc.sort(
                keys,
                algorithm=(
                    None if args.algorithm in (None, "auto")
                    else args.algorithm
                ),
                backend=args.backend,
                P=args.procs,
                trace=args.trace is not None,
                memory_budget=args.memory_budget,
            )
    except ReproError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(outcome.decision.explain())
    if args.memory_budget is not None:
        # The regime split at this budget: where the planner stops
        # placing worlds and starts spilling.
        print(f"planner decision table at a {args.memory_budget:,}-byte "
              "memory budget:")
        print(planner.decision_table(memory_budget=args.memory_budget))
    print(f"sorted {keys.size:,} keys in {outcome.wall_s * 1e3:.1f} ms "
          f"({outcome.queue_wait_s * 1e3:.2f} ms queued, "
          f"{outcome.run_s * 1e3:.1f} ms running), verified")
    if args.trace and outcome.tracers:
        write_chrome_trace(args.trace, outcome.tracers)
        print(f"per-request trace written to {args.trace}")
    return 0


def _submit_remote(args, keys) -> int:
    """``submit --connect``: one request over the wire, typed end to end."""
    import numpy as np

    from repro.errors import ReproError
    from repro.service import SortClient
    from repro.trace import write_chrome_trace

    try:
        with SortClient(_parse_listen(args.connect)) as client:
            out = client.sort(
                keys,
                deadline_s=args.deadline,
                tenant=args.tenant,
                algorithm=args.algorithm,
                backend=args.backend,
                P=args.procs,
                trace=args.trace is not None,
            )
    except ReproError as exc:
        print(f"submit failed ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1
    verified = np.array_equal(out.sorted_keys, np.sort(keys))
    srv = out.server
    print(f"shard {out.shard!r} sorted {keys.size:,} keys in "
          f"{out.wall_s * 1e3:.1f} ms wall "
          f"({srv.get('queue_wait_s', 0.0) * 1e3:.2f} ms queued, "
          f"{srv.get('run_s', 0.0) * 1e3:.1f} ms running "
          f"{srv.get('algorithm', 'smart')} on "
          f"{srv.get('backend')} x {srv.get('P')}), "
          f"{out.attempts} attempt(s), "
          f"{'shm' if out.via_shm else 'frame'} payload, "
          f"{'verified' if verified else 'WRONG OUTPUT'}")
    if args.trace and out.tracer is not None:
        write_chrome_trace(args.trace, [out.tracer])
        print(f"network trace written to {args.trace}")
    return 0 if verified else 1


def _cmd_chaos_serve(args) -> int:
    """The serving layer's adversarial soak (the CI ``chaos-serve`` job):
    several networked shards behind a health-checked router, concurrent
    multi-tenant clients, deterministic frame faults, and one shard
    killed mid-run.  Every request must end accounted — sorted
    correctly (failover allowed) or failed with a typed error — with
    zero leaks and p50/p99 inside the committed baseline."""
    import multiprocessing
    import threading
    import time as _time

    import numpy as np

    from repro.errors import ReproError
    from repro.faults import FaultPlan, NetFaultInjector
    from repro.service import (
        ShardRouter,
        SortClient,
        SortServer,
        SortService,
        WorldPool,
    )
    from repro.service.net import shm_segments as _net_shm
    from repro.utils.rng import make_keys

    try:
        planner = _service_planner(args.profile)
    except ReproError as exc:
        print(f"chaos-serve failed: {exc}", file=sys.stderr)
        return 1
    shm_before = _shm_segments() | _net_shm()
    plan = FaultPlan(seed=args.seed, drop=args.drop, corrupt=args.corrupt,
                     delay=args.delay)
    injector = NetFaultInjector(plan)
    servers = []
    shards = {}
    for s in range(args.shards):
        svc = SortService(
            planner,
            WorldPool(max_idle_per_key=1),
            queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            timeout=args.timeout,
        )
        name = f"shard{s}"
        server = SortServer(svc, name=name, faults=injector,
                            own_service=True)
        addr = server.start()
        servers.append(server)
        shards[name] = SortClient(
            addr, retries=args.retries, timeout_s=args.attempt_timeout,
            name=f"cli-{name}",
        )
    router = ShardRouter(shards, eject_after=2, cooldown_s=1.0,
                         health_interval_s=0.25)
    router.start_health_checks()

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    tenants = [f"tenant{t}" for t in range(max(1, args.tenants))]
    total = args.requests
    per_worker = [total // args.clients] * args.clients
    for i in range(total % args.clients):
        per_worker[i] += 1
    results = []  # (verdict, wall_s, failovers) — one row per request
    lock = threading.Lock()

    def worker(wid: int, count: int) -> None:
        base = sum(per_worker[:wid])
        for i in range(count):
            idx = base + i
            keys = make_keys(sizes[idx % len(sizes)], seed=idx)
            t0 = _time.monotonic()
            try:
                out = router.sort(
                    keys,
                    deadline_s=args.deadline,
                    tenant=tenants[wid % len(tenants)],
                    backend="threads",
                    P=2,
                )
                verdict = (
                    "ok"
                    if np.array_equal(out.sorted_keys, np.sort(keys))
                    else "WRONG-OUTPUT"
                )
                row = (verdict, _time.monotonic() - t0, out.failovers)
            except ReproError as exc:
                row = (type(exc).__name__, _time.monotonic() - t0, 0)
            except Exception as exc:  # noqa: BLE001 — untyped = a bug
                row = (f"UNTYPED:{type(exc).__name__}",
                       _time.monotonic() - t0, 0)
            with lock:
                results.append(row)

    workers = [
        threading.Thread(target=worker, args=(w, per_worker[w]),
                         name=f"chaos-client-{w}")
        for w in range(args.clients)
    ]
    started_at = _time.monotonic()
    for t in workers:
        t.start()
    killed = None
    if not args.no_kill and args.shards > 1:
        # Kill the last shard once roughly half the load has landed.
        while _time.monotonic() - started_at < args.timeout:
            with lock:
                done = len(results)
            if done >= total // 2:
                break
            _time.sleep(0.05)
        killed = servers[-1].name
        print(f"killing {killed} mid-soak "
              f"({len(results)}/{total} requests resolved)...")
        servers[-1].kill()
    for t in workers:
        t.join()
    router.close()
    for client in shards.values():
        client.close()
    for server in servers:
        server.close(drain=True)

    # -- accounting: zero silent losses -------------------------------
    ok = [r for r in results if r[0] == "ok"]
    wrong = [r for r in results if r[0] == "WRONG-OUTPUT"]
    untyped = [r for r in results if r[0].startswith("UNTYPED")]
    typed = [
        r for r in results
        if r[0] not in ("ok", "WRONG-OUTPUT")
        and not r[0].startswith("UNTYPED")
    ]
    lost = total - len(results)
    failovers = sum(r[2] for r in ok)
    walls = sorted(r[1] for r in ok) or [0.0]
    p50 = walls[int(round(0.50 * (len(walls) - 1)))]
    p99 = walls[int(round(0.99 * (len(walls) - 1)))]
    by_error = {}
    for r in typed:
        by_error[r[0]] = by_error.get(r[0], 0) + 1
    print(f"chaos-serve: {total} requests via {args.clients} clients x "
          f"{len(tenants)} tenants over {args.shards} shards"
          + (f" (killed {killed})" if killed else ""))
    print(f"  completed {len(ok)} ({failovers} failovers), typed "
          f"failures {len(typed)} {by_error or ''}, wrong {len(wrong)}, "
          f"untyped {len(untyped)}, unaccounted {lost}")
    print(f"  fault verdicts: {injector.stats.as_dict()}")
    print(f"  latency p50 {p50 * 1e3:.1f} ms   p99 {p99 * 1e3:.1f} ms")
    children = multiprocessing.active_children()
    shm_leaked = (_shm_segments() | _net_shm()) - shm_before
    slow = _gate_percentiles(
        p50, p99, _load_baseline(args.baseline, "chaos_serve"),
        "chaos-serve",
    )
    bad = (
        lost or wrong or untyped or children or shm_leaked or slow
        or not ok
    )
    if children:
        print(f"LEAK: {len(children)} child processes: "
              f"{[p.name for p in children]}", file=sys.stderr)
    if shm_leaked:
        print(f"LEAK: {len(shm_leaked)} shm segments: "
              f"{sorted(shm_leaked)[:8]}", file=sys.stderr)
    if bad:
        print("chaos-serve FAILED: "
              f"{lost} unaccounted, {len(wrong)} wrong, "
              f"{len(untyped)} untyped, {len(children)} leaked procs, "
              f"{len(shm_leaked)} leaked segments, {slow} latency "
              "breaches", file=sys.stderr)
        return 1
    print("chaos-serve ok: every request accounted (completed or typed), "
          "zero leaks")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bitonic",
        description=(
            "Reproduction of 'Optimizing Parallel Bitonic Sort' "
            "(Ionescu & Schauser, IPPS 1997) on a LogGP-simulated machine."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p_exp = sub.add_parser("experiment", help="reproduce a paper table/figure")
    p_exp.add_argument("id", help="experiment id, 'all', or 'list'")
    p_exp.add_argument("--full", action="store_true",
                       help="the paper's full sizes (slow)")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_sort = sub.add_parser("sort", help="run one parallel sort")
    p_sort.add_argument("--keys", type=int, default=1 << 20)
    p_sort.add_argument("--procs", type=int, default=32)
    p_sort.add_argument("--algorithm", default="smart")
    p_sort.add_argument("--messages", choices=("long", "short"), default="long")
    p_sort.add_argument("--unfused", action="store_true")
    p_sort.add_argument("--distribution", default="uniform")
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.set_defaults(fn=_cmd_sort)

    p_sched = sub.add_parser("schedule", help="print a smart remap schedule")
    p_sched.add_argument("--keys", type=int, default=256)
    p_sched.add_argument("--procs", type=int, default=16)
    p_sched.set_defaults(fn=_cmd_schedule)

    p_pred = sub.add_parser("predict", help="closed-form time predictions")
    p_pred.add_argument("--keys", type=int, default=1 << 25)
    p_pred.add_argument("--procs", type=int, default=32)
    p_pred.set_defaults(fn=_cmd_predict)

    p_gantt = sub.add_parser("gantt", help="trace a sort and render its timeline")
    p_gantt.add_argument("--keys", type=int, default=1 << 17)
    p_gantt.add_argument("--procs", type=int, default=8)
    p_gantt.add_argument("--algorithm", default="smart")
    p_gantt.add_argument("--distribution", default="uniform")
    p_gantt.add_argument("--width", type=int, default=100)
    p_gantt.add_argument("--seed", type=int, default=0)
    p_gantt.set_defaults(fn=_cmd_gantt)

    p_chaos = sub.add_parser(
        "chaos", help="run the SPMD sort through an adversarial network"
    )
    p_chaos.add_argument("--keys", type=int, default=1 << 12)
    p_chaos.add_argument("--procs", type=int, default=4)
    p_chaos.add_argument("--drop", type=float, default=0.05,
                         help="per-message drop probability")
    p_chaos.add_argument("--duplicate", type=float, default=0.0)
    p_chaos.add_argument("--corrupt", type=float, default=0.0)
    p_chaos.add_argument("--delay", type=float, default=0.0)
    p_chaos.add_argument("--crash-rank", type=int, default=None,
                         help="rank to kill once (recovers from checkpoints)")
    p_chaos.add_argument("--crash-phase", type=int, default=1,
                         help="phase index at which --crash-rank dies")
    p_chaos.add_argument("--max-restarts", type=int, default=2)
    p_chaos.add_argument("--timeout", type=float, default=60.0)
    p_chaos.add_argument("--no-checkpoint", action="store_true",
                         help="disable phase-level checkpoint/restart")
    p_chaos.add_argument("--distribution", default="uniform")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--backend", default="threads",
                         help="SPMD runtime backend (fault injection needs "
                              "'threads'; others require a null fault plan)")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_bench = sub.add_parser(
        "bench", help="benchmark backends and kernels, write trajectory JSON"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-smoke sizes and repetitions")
    p_bench.add_argument("--out", default="BENCH.json",
                         help="output JSON path")
    p_bench.add_argument("--sizes", default=None,
                         help="comma-separated key counts (default by mode)")
    p_bench.add_argument("--procs", type=int, default=8)
    p_bench.add_argument("--backends", default="threads,procs",
                         help="comma-separated runtime backends to compare")
    p_bench.add_argument("--reps", type=int, default=None,
                         help="timed repetitions per measurement")
    p_bench.add_argument("--timeout", type=float, default=300.0,
                         help="per-world SPMD timeout in seconds")
    p_bench.set_defaults(fn=_cmd_bench)

    p_ar = sub.add_parser(
        "adapt-replay",
        help="record a load trace, replay it against a frozen-profile "
             "service and an adapting one, gate adapted_over_static",
    )
    p_ar.add_argument("--requests", type=int, default=200,
                      help="requests in a freshly recorded load trace")
    p_ar.add_argument("--sizes", default="4096,16384",
                      help="comma-separated key counts in the trace")
    p_ar.add_argument("--seed", type=int, default=0)
    p_ar.add_argument("--out", default="BENCH_adapt.json",
                      help="BENCH /7 output JSON path")
    p_ar.add_argument("--record-out", default=None,
                      help="also persist the recorded load trace here "
                           "(and replay exactly that file)")
    p_ar.add_argument("--load", default=None,
                      help="replay a previously recorded load trace "
                           "instead of recording a fresh one")
    p_ar.add_argument("--profile", default=None,
                      help="calibrated host profile JSON to start from")
    p_ar.add_argument("--no-drift", action="store_true",
                      help="replay against the undrifted profile (checks "
                           "the adapter does no harm when the model is "
                           "already right)")
    p_ar.add_argument("--min-ratio", type=float, default=1.0,
                      help="fail when adapted_over_static falls below this")
    p_ar.set_defaults(fn=_cmd_adapt_replay)

    p_trace = sub.add_parser(
        "trace",
        help="run the SPMD sort traced; print the phase table, write a "
             "Chrome-trace timeline",
    )
    p_trace.add_argument("--keys", type=int, default=1 << 18)
    p_trace.add_argument("--procs", type=int, default=4)
    p_trace.add_argument("--algorithm", default="smart",
                         choices=("smart", "sample"),
                         help="SPMD sort to trace")
    p_trace.add_argument("--backend", default="threads",
                         choices=("threads", "procs"),
                         help="SPMD runtime backend to trace")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome-trace JSON output path")
    p_trace.add_argument("--distribution", default="uniform")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--timeout", type=float, default=120.0)
    p_trace.set_defaults(fn=_cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="soak the persistent sort service: a mixed-shape request "
             "stream through a warm world pool, with leak gates",
    )
    p_serve.add_argument("--requests", type=int, default=200,
                         help="total requests to push through the service")
    p_serve.add_argument("--worlds", type=int, default=2,
                         help="idle worlds retained per (backend, P) shape")
    p_serve.add_argument("--sizes", default="4096,16384",
                         help="comma-separated request key counts")
    p_serve.add_argument("--backends", default="threads,procs",
                         help="comma-separated SPMD backends to cycle")
    p_serve.add_argument("--queue-depth", type=int, default=16)
    p_serve.add_argument("--batch-max", type=int, default=8)
    p_serve.add_argument("--timeout", type=float, default=120.0)
    p_serve.add_argument("--trace-every", type=int, default=25,
                         help="trace every Nth request (0 disables)")
    p_serve.add_argument("--traces-dir", default=None,
                         help="directory for sampled per-request "
                              "Chrome traces")
    p_serve.add_argument("--profile", default=None,
                         help="calibrated host profile JSON "
                              "(scripts/calibrate_loggp.py)")
    p_serve.add_argument("--baseline", default=None,
                         help="committed soak baseline JSON "
                              "(SOAK_BASELINE.json); gates p50/p99")
    p_serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="serve over the wire in the foreground "
                              "instead of running the soak")
    p_serve.add_argument("--name", default="shard0",
                         help="shard name reported on the wire "
                              "(with --listen)")
    p_serve.add_argument("--memory-budget", type=int, default=None,
                         metavar="BYTES",
                         help="per-request in-memory working-set budget; "
                              "oversized requests degrade to the "
                              "out-of-core external sort")
    p_serve.add_argument("--disk-budget", type=int, default=None,
                         metavar="BYTES",
                         help="spill-bytes ceiling for degraded requests; "
                              "requests that cannot fit even on disk are "
                              "rejected with MemoryBudgetError")
    p_serve.set_defaults(fn=_cmd_serve)

    p_cserve = sub.add_parser(
        "chaos-serve",
        help="adversarial serving soak: networked shards, router "
             "failover, frame faults, a mid-run shard kill, and "
             "zero-silent-loss accounting",
    )
    p_cserve.add_argument("--shards", type=int, default=2,
                          help="networked shard servers to run")
    p_cserve.add_argument("--clients", type=int, default=8,
                          help="concurrent client threads")
    p_cserve.add_argument("--requests", type=int, default=200,
                          help="total requests across all clients")
    p_cserve.add_argument("--tenants", type=int, default=2,
                          help="distinct tenants the clients cycle")
    p_cserve.add_argument("--sizes", default="2048,8192",
                          help="comma-separated request key counts")
    p_cserve.add_argument("--drop", type=float, default=0.05,
                          help="per-frame drop probability")
    p_cserve.add_argument("--corrupt", type=float, default=0.05,
                          help="per-frame corruption probability")
    p_cserve.add_argument("--delay", type=float, default=0.0,
                          help="per-frame delay probability")
    p_cserve.add_argument("--deadline", type=float, default=60.0,
                          help="per-request deadline (seconds)")
    p_cserve.add_argument("--retries", type=int, default=4,
                          help="client wire retries per request")
    p_cserve.add_argument("--attempt-timeout", type=float, default=3.0,
                          help="client per-attempt socket budget")
    p_cserve.add_argument("--queue-depth", type=int, default=16)
    p_cserve.add_argument("--batch-max", type=int, default=4)
    p_cserve.add_argument("--timeout", type=float, default=120.0,
                          help="service dispatch timeout / kill-wait cap")
    p_cserve.add_argument("--no-kill", action="store_true",
                          help="do not kill a shard mid-soak")
    p_cserve.add_argument("--seed", type=int, default=0)
    p_cserve.add_argument("--profile", default=None,
                          help="calibrated host profile JSON")
    p_cserve.add_argument("--baseline", default=None,
                          help="committed soak baseline JSON; gates "
                               "p50/p99")
    p_cserve.set_defaults(fn=_cmd_chaos_serve)

    p_submit = sub.add_parser(
        "submit", help="run one request through the sort service"
    )
    p_submit.add_argument("--keys", type=int, default=1 << 16)
    p_submit.add_argument("--algorithm", default="auto",
                          choices=("auto", "smart", "sample", "external"),
                          help="sort algorithm; 'auto' lets the planner "
                               "route between them, 'external' forces "
                               "the out-of-core spill-to-disk path")
    p_submit.add_argument("--procs", type=int, default=None,
                          help="force the world size (default: planner)")
    p_submit.add_argument("--backend", default=None,
                          choices=("threads", "procs"),
                          help="force the backend (default: planner)")
    p_submit.add_argument("--trace", default=None,
                          help="write the per-request Chrome trace here")
    p_submit.add_argument("--profile", default=None,
                          help="calibrated host profile JSON")
    p_submit.add_argument("--distribution", default="uniform")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--timeout", type=float, default=120.0)
    p_submit.add_argument("--connect", default=None, metavar="HOST:PORT",
                          help="send the request to a running "
                               "'serve --listen' server over the wire")
    p_submit.add_argument("--deadline", type=float, default=None,
                          help="end-to-end deadline for --connect "
                               "(propagates to shard admission and "
                               "dispatch)")
    p_submit.add_argument("--tenant", default=None,
                          help="tenant label for --connect (admission "
                               "fairness)")
    p_submit.add_argument("--memory-budget", type=int, default=None,
                          metavar="BYTES",
                          help="in-memory working-set budget; requests "
                               "whose working set exceeds it degrade to "
                               "the out-of-core external sort")
    p_submit.set_defaults(fn=_cmd_submit)

    p_fft = sub.add_parser("fft", help="run the parallel FFT generalization")
    p_fft.add_argument("--points", type=int, default=1 << 16)
    p_fft.add_argument("--procs", type=int, default=16)
    p_fft.add_argument("--seed", type=int, default=0)
    p_fft.set_defaults(fn=_cmd_fft)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `repro-bitonic table5.1` == `repro-bitonic experiment table5.1`.
    known = {"experiment", "sort", "schedule", "predict", "fft", "gantt",
             "chaos", "bench", "trace", "serve", "submit", "chaos-serve",
             "adapt-replay", "-h", "--help"}
    if argv and argv[0] not in known:
        argv = ["experiment"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
