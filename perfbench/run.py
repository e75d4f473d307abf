"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk-2e22 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory (nothing is installed).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric instead (the run then splits ``--seconds`` into
an untraced phase and a probed, traced phase of equal length).  The
lines before it are a human-readable summary with host metadata, the tail's
percentile and sample count, the failure breakdown by exception class and
the metrics that only some workloads have.  The exit code is 1 when any
output differs from ``np.sort``, 2 when the checkout is incomplete.

Each run works in a fresh directory under ``.perfbench_work/`` of the
checkout (its working directory, ``TMPDIR`` and the spill root), removed
at the end.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from before any import

import argparse  # noqa: E402
import atexit  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHM_DIR = "/dev/shm"
#: Fresh processes that repeat the set-up; with the run's own set-up
#: they give the median ``setup_s``.
EXTRA_SETUPS = 2


def reap_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Registered with ``atexit`` before the program is imported, so it
    runs after the program's own exit hooks, on every way out.  Rank
    processes are joined (terminated past ``timeout``).  The resource
    tracker that ``multiprocessing.shared_memory`` starts would only
    notice this process is gone after it exited, and so outlive it for
    a moment; its pipe is closed and it is waited for here."""
    deadline = time.monotonic() + timeout
    mp = sys.modules.get("multiprocessing")
    for child in mp.active_children() if mp else ():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    tracking = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracking, "_resource_tracker", None)
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)  # end of input: the tracker cleans up and exits
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


atexit.register(reap_children)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and output order."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def render(specs: list, values: dict) -> dict:
    """The result's ``metrics``: every metric of ``specs`` by name."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        fail(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def shm_names() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_metadata(workload: str) -> dict:
    import numpy as np

    from workloads import BULK_KEYS, WIRE_BIG, WIRE_SMALL

    sizes = {
        "bulk-2e22": [BULK_KEYS],
        "wire-mixed": [WIRE_SMALL, WIRE_BIG],
    }[workload]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "input_mib": {f"2^{n.bit_length() - 1}": n * 4 / 2**20 for n in sizes},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def settle_threads(baseline: int, wait_s: float = 2.0) -> int:
    """Threads above ``baseline`` once shutdown threads have exited."""
    deadline = time.monotonic() + wait_s
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.05)
    return threading.active_count() - baseline


def extra_setups(args) -> list:
    """Repeat the set-up in fresh processes; returns their setup_s."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            fail(f"set-up repetition exited {out.returncode}", 1)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(m, setup_s: float, rss: float) -> dict:
    from workloads import nearest_rank

    return {
        "setup_s": setup_s,
        "keys_per_s": m.keys_per_s,
        "npsort_ratio": m.npsort_ratio,
        "latency_p50_ms": nearest_rank(m.latencies, 50) * 1e3,
        "goodput_share": (m.tally.correct / m.tally.attempted
                          if m.tally.attempted else 0.0),
        "peak_rss_mib": rss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, HERE)
    from probes import LayerProbes
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    spill = os.path.join(work, "spill")
    tmp = os.path.join(work, "tmp")
    os.makedirs(spill)
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_SPILL_ROOT"] = spill
    tempfile.tempdir = tmp
    os.chdir(work)
    threads0 = threading.active_count()
    shm0 = shm_names()

    try:
        sys.path.insert(0, SRC)
        import repro
        from repro.extsort import live_spill_dirs

        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            fail(f"imported repro from {repro.__file__}, not {SRC}")

        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            workload.teardown()
            print(json.dumps({"setup_s": setup_s}))
            return 0

        phase_s = args.seconds / 2 if args.trace else args.seconds
        timed = workload.measure(phase_s, trace=False)
        probes = None
        if args.trace:
            probes = LayerProbes()
            probes.install()
            workload.attach(probes)
            try:
                traced = workload.measure(phase_s, trace=True)
            finally:
                probes.uninstall()
        workload.teardown()
        hygiene = {
            "shm_leaked": len(shm_names() - shm0),
            "spill_dirs_leaked": len(live_spill_dirs(spill)),
            "threads_delta": settle_threads(threads0),
        }
        rss = peak_rss_mib()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass

    runs = [timed] + ([traced] if args.trace else [])
    attempted = sum(m.tally.attempted for m in runs)
    failed = sum(m.tally.failed for m in runs)
    mismatches = sum(m.tally.mismatches for m in runs)
    errors = sum((m.tally.errors for m in runs), Counter())

    setups = [setup_s] + ([] if args.trace else extra_setups(args))
    e2e = end_to_end(timed, statistics.median(setups), rss)
    print("host: " + json.dumps(host_metadata(args.workload), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16} {e2e[m['name']]:>16.6g} {m['unit']}")
    # Printed, not gated: neither closed loop has samples enough for a
    # tail beyond the median, and spills exist on the wire only.
    from workloads import nearest_rank, tail_percentile

    lat = timed.latencies
    tail_q = tail_percentile(len(lat))
    print(f"  latency_tail_ms  {nearest_rank(lat, tail_q) * 1e3:>16.6g} ms "
          f"(p{tail_q:g} of {len(lat)} samples)")
    if timed.notes.get("spill"):
        spills = timed.notes["spill"]
        print(f"  spill_latency_p50_ms {nearest_rank(spills, 50) * 1e3:.6g} ms "
              f"(n={len(spills)})")
    print(f"  failed_share {failed / attempted if attempted else 0.0:.6g} "
          f"({failed}/{attempted}; mismatches={mismatches}; "
          f"by class: {dict(errors)})")
    print(f"  hygiene: {hygiene}")

    if args.trace:
        base = e2e["keys_per_s"]
        layer = probes.metrics(
            hygiene=hygiene,
            overhead_ratio=traced.keys_per_s / base if base else 0.0,
        )
        metrics = render(spec["per_layer"], layer)
    else:
        metrics = render(spec["end_to_end"], e2e)
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
