"""Repeat the untraced runs over several seeds and record their spread.

    python3 perfbench/proof.py --seeds 10 --out perfbench/proof/set1.json
    python3 perfbench/proof.py --compare perfbench/proof/set1.json perfbench/proof/set2.json

Runs ``run.py --trace 0`` for seeds 1..N on every workload of
``BENCHMARK.json`` (seed-major, so host drift falls on all workloads
alike) and writes every run's metrics and wall time.  Per workload and
end-to-end metric it prints the median and the spread: the distance
between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.
``--compare`` prints by how much the second set's medians are worse
than the first's, as a share of the first, next to each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summary(runs: list, spec: dict) -> dict:
    out = {}
    for w in spec["workloads"]:
        mine = [r for r in runs if r["workload"] == w["name"]]
        out[w["name"]] = {
            m["name"]: {
                "median": statistics.median(
                    r["metrics"][m["name"]] for r in mine),
                "spread": spread([r["metrics"][m["name"]] for r in mine]),
                "bound": m["bound"],
            }
            for m in spec["end_to_end"]
        }
    return out


def run_set(seeds: int, spec: dict, seconds: int) -> list:
    runs = []
    for seed in range(1, seeds + 1):
        for w in spec["workloads"]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{w['name']} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({
                "workload": w["name"], "seed": seed, "wall_s": wall,
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
            })
            print(f"{w['name']} seed {seed}: {wall:.1f} s", flush=True)
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.compare:
        first, second = (json.load(open(p, encoding="utf-8"))["summary"]
                         for p in args.compare)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for wname, metrics in first.items():
            for name, a in metrics.items():
                b = second[wname][name]["median"]
                worse = (b - a["median"]) / a["median"] if a["median"] else 0.0
                if better[name] == "higher":
                    worse = -worse
                print(f"{wname:<20} {name:<16} {a['median']:>14.6g} -> "
                      f"{b:>14.6g}  worse by {worse:+.3f}  "
                      f"bound {a['bound']}")
        return 0

    runs = run_set(args.seeds, spec, spec["run_seconds"])
    result = {"run_seconds": spec["run_seconds"], "runs": runs,
              "summary": summary(runs, spec)}
    for wname, metrics in result["summary"].items():
        for name, s in metrics.items():
            print(f"{wname:<20} {name:<16} median {s['median']:>14.6g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
