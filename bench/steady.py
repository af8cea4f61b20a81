"""Steadiness check: run the benchmark twice over on one commit and compare.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads fock,verma]
                            [--seconds S]

Each set runs every workload once per seed (set k uses seeds k*1000+1 ..
k*1000+runs, so the sets share no inputs), interleaving workloads so that
machine noise falls on all of them alike.  For each workload and end-to-end
metric it prints each set's median and spread, the spread being the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  A metric is steady when every set's spread is within its
bound from BENCHMARK.json and every later set's median differs from the first
set's, in either direction, by at most the bound.  Exit status 1 if any is
not.
Raw results go to .bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    options = parser.parse_args(argv)
    names = options.workloads.split(",")

    values = {}   # (set, workload, metric) -> list
    for number in range(options.sets):
        for offset in range(1, options.runs + 1):
            seed = 1000 * number + offset
            for workload in names:
                started = time.perf_counter()
                result = run_once(workload, seed, options.seconds)
                print(f"set {number + 1} seed {seed} {workload}: "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
                for name, entry in result["metrics"].items():
                    values.setdefault((number, workload, name), []).append(entry["value"])

    steady = True
    print(f"{'workload':10s} {'metric':40s} {'bound':>6s} "
          + " ".join(f"{f'median{k + 1}':>12s} {f'spread{k + 1}':>8s}"
                     for k in range(options.sets)) + "  verdict")
    for workload in names:
        for metric in config["end_to_end"]:
            name = metric["name"]
            bound = metric["bound"]
            sets = [values[(k, workload, name)] for k in range(options.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) if len(v) > 1 and medians[k] else 0.0
                       for k, v in enumerate(sets)]
            ok = (all(s <= bound for s in spreads)
                  and all(abs(m - medians[0]) / medians[0] <= bound for m in medians[1:]))
            steady = steady and ok
            print(f"{workload:10s} {name:40s} {bound:>6} "
                  + " ".join(f"{m:12.6g} {s:8.3f}" for m, s in zip(medians, spreads))
                  + f"  {'ok' if ok else 'NOT STEADY'}")

    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps([{"set": k + 1, "workload": w, "metric": m, "values": v}
                               for (k, w, m), v in values.items()], indent=1) + "\n")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
