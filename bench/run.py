"""End-to-end benchmark of the `vira` command line.

    python3 bench/run.py --workload fock|verma|algebra|jobs2 --seed N \
        --seconds S --trace 0|1

Drives `PYTHONPATH=src python -m virasoro.cli` as a user does: one process
per sweep, one client, closed loop, sequential.  Inputs come from the seed
(see workloads.py) and every report is checked against expectations that the
benchmark computes itself (see checker.py).  Whole rounds run while the next
one is expected to end within S seconds of measured time, counted in
reference-scaled seconds (see REFERENCE below) so that the number of rounds
does not follow the machine's speed; input generation is not measured.

--trace 0 prints the end-to-end metrics; --trace 1 reruns each invocation
traced and profiled in fresh processes (see child.py) next to an untraced
run, and prints the per-layer metrics.  The last line of stdout is a JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import workloads
from child import MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 60.0
SETUP_PROBES = 5   # before the first round; one more precedes every round
# Rounds also stop before their wall time passes WALL_CAP * --seconds, so a
# run on a slow machine ends in bounded time, with fewer rounds.
WALL_CAP = 1.6
# reference.py and its one correct output.  Timed processes alternate with
# reference runs, and each wall time is reported as
# wall * REFERENCE_S / (median wall of the run's reference runs): seconds on
# a machine where the reference takes REFERENCE_S.  This cancels the drifts
# of a shared machine's speed from one run to the next; the median, not the
# runs next to each process, because a single 0.1 s run is itself noisy.
REFERENCE = workloads.Invocation([], [{"reference": "149/35"}])
REFERENCE_S = 0.1


@dataclass
class Result:
    invocation: workloads.Invocation
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    stderr: str = ""
    trace: dict = field(default_factory=dict)


def _environment():
    env = {key: value for key, value in os.environ.items()
           if key not in ("VIRA_FORMAT", "VIRA_JOBS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


ENV = _environment()


def vira_argv(invocation: workloads.Invocation, mode: str | None = None) -> list[str]:
    """`python -m virasoro.cli ARGS`, or the same through child.py in `mode`."""
    if mode is None:
        return [sys.executable, "-m", "virasoro.cli", *invocation.args]
    return [sys.executable, str(BENCH / "child.py"), mode, *invocation.args]


def run(argv, invocation: workloads.Invocation, traced=False) -> Result:
    """One process; its own rusage comes from wait4, never RUSAGE_CHILDREN."""
    start = time.perf_counter()
    # A session of its own, so a timeout can kill pool workers along with it.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=ENV,
                            start_new_session=True)
    output = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for stream in (proc.stdout, proc.stderr):
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                timed_out = True
                break
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    output[key.fd].append(chunk)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = b"".join(output[proc.stdout.fileno()]).decode("utf-8", "replace")
    stderr = b"".join(output[proc.stderr.fileno()]).decode("utf-8", "replace")
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        error = f"timed out after {TIMEOUT_S:.0f} s"
    else:
        error = checker.verdict(invocation.expected, invocation.exit_code,
                                proc.returncode, stdout)
    result = Result(invocation, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, error, stderr)
    if traced and error is None:
        last = stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith(MARK):
            result.trace = json.loads(last[len(MARK):])
        else:
            result.error = "no trace record on stderr"
    return result


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def tail(values):
    """(value, percentile): the highest percentile with at least 10 values above it.

    A tail lies above the median, so with 20 values or fewer, where no such
    percentile does, it is the largest value.
    """
    ordered = sorted(values)
    if len(ordered) <= 20:
        return ordered[-1], 100.0
    rank = len(ordered) - 10          # 1-based rank with exactly 10 values beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Runner:
    def __init__(self, workload, seed, seconds, traced, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.results: list[Result] = []      # every `vira` process, for failures
        self.records: list[dict] = []        # per invocation in the timed loop
        self.setup: list[Result] = []        # the no-sweep probes
        self.references: list[float] = []   # every reference wall
        self.rounds = 0
        self.measured = 0.0                  # seconds of the rounds, scaled unless traced

    def attempt(self, invocation, mode=None, argv=None):
        result = run(argv or vira_argv(invocation, mode), invocation, mode is not None)
        self.results.append(result)
        if result.error is not None:
            print(f"FAILED {' '.join(invocation.args)}: {result.error}", file=sys.stderr)
            if result.stderr:
                print(result.stderr[-2000:], file=sys.stderr)
        return result

    def reference(self):
        """Wall of one reference run; a wrong one stops the benchmark, not the count."""
        result = run([sys.executable, str(BENCH / "reference.py")], REFERENCE)
        if result.error is not None:
            raise SystemExit(f"error: reference task failed: {result.error}\n"
                             f"{result.stderr[-2000:]}")
        self.references.append(result.wall_s)
        return result.wall_s

    def timed(self, invocation):
        """The invocation, followed by a reference run."""
        result = self.attempt(invocation)
        self.reference()
        return result

    @property
    def scale(self):
        """Factor from this machine's seconds to reference-machine seconds."""
        return REFERENCE_S / statistics.median(self.references)

    def probe_setup(self):
        self.setup.append(self.timed(workloads.setup_probe()))

    def measure_invocation(self, invocation):
        if self.traced:
            record = {"plain": self.attempt(invocation),
                      "trace": self.attempt(invocation, "trace"),
                      "profile": self.attempt(invocation, "profile")}
            if "--jobs" in invocation.args:
                record["serial"] = self.attempt(invocation.serial())
        else:
            record = {"plain": self.timed(invocation)}
        self.records.append(record)

    def loop(self):
        if not self.traced:
            self.reference()
            for _ in range(SETUP_PROBES):
                self.probe_setup()
        wall_total = 0.0
        while True:
            if not self.traced:
                self.probe_setup()
            invocations = workloads.make_round(self.workload, self.seed, self.rounds,
                                               self.workdir)
            start = time.perf_counter()
            for invocation in invocations:
                self.measure_invocation(invocation)
            wall = time.perf_counter() - start
            wall_total += wall
            self.measured += wall if self.traced else wall * self.scale
            self.rounds += 1
            if (self.measured + self.measured / self.rounds > self.seconds
                    or wall_total + wall_total / self.rounds > WALL_CAP * self.seconds):
                return

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(result.error is not None for result in self.results)


def end_to_end(runner):
    """End-to-end metrics; every time is scaled by the run's reference median.

    Failed invocations count in `failed` only; the times cover the correct
    ones (all of them if none is correct, so that a broken program still
    gets figures next to its failures).
    """
    records = ([record for record in runner.records if record["plain"].error is None]
               or runner.records)
    plain = [record["plain"] for record in records]
    walls = [result.wall_s for result in plain]
    scaled = [wall * runner.scale for wall in walls]
    tail_s, tail_pct = tail(scaled)
    instances = sum(checker.checked_count(result.invocation.expected) for result in plain)
    probes = [probe for probe in runner.setup if probe.error is None] or runner.setup
    setup = [probe.wall_s * runner.scale for probe in probes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_p50_s": (statistics.median(scaled), "s"),
        "sweep_tail_s": (tail_s, "s"),
        "instances_per_s": (instances / sum(scaled), "1/s"),
        "peak_rss_mb": (max(result.rss_mb for result in plain), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)}; unscaled "
                   f"{statistics.median(probe.wall_s for probe in probes):.4f} s",
        "sweep_p50_s": f"median of {len(walls)}; unscaled {statistics.median(walls):.4f} s",
        "sweep_tail_s": f"p{tail_pct:.0f} of {len(walls)}; unscaled {tail(walls)[0]:.4f} s",
        "instances_per_s": f"{instances} instances; unscaled {instances / sum(walls):.1f}/s",
        "peak_rss_mb": "largest per-process max RSS",
    }
    print(f"reference task: median {statistics.median(runner.references):.4f} s "
          f"of {len(runner.references)}; times below are scaled to {REFERENCE_S} s")
    return metrics, notes


FOCK_SWEEPS = ("check_heisenberg_relations", "check_primary_field", "sweep_normal_pair",
               "check_sugawara_commutator")
VERMA_SWEEPS = ("check_verma_relations", "verma_hw_check", "check_intertwining")
CALLS_AND_SELF = ("core.linear_combination", "core.bilinear_extend", "fock.j_action",
                  "fock.normal_pair", "fock.sugawara_l", "verma.l_action",
                  "verma.universal_map", "reports.render")
SELF_ONLY = ("witt.jacobi_basis_sweep", "extension.check_extension_predicate",
             "cohomology.load_cocycle_table", "cohomology.check_cocycle_identity",
             "cohomology.reduce_cocycle", "cohomology.nontriviality_witness")


def per_layer(runner):
    """Per-layer metrics; counts and seconds are means per traced invocation."""
    traced = [record["trace"] for record in runner.records if record["trace"].trace]
    traces = [result.trace for result in traced]
    count = len(traces)

    def stat(name, column):
        return ratio(sum(t["stats"].get(name, [0, 0.0, 0.0])[column] for t in traces), count)

    def span_total(names):
        return ratio(sum(end - start for t in traces for _, _, name, start, end in t["spans"]
                         if name in names), count)

    def hit_ratio(cache):
        hits = sum(t["caches"][cache]["hits"] for t in traces)
        return ratio(hits, hits + sum(t["caches"][cache]["misses"] for t in traces))

    metrics = {
        "cli.import_s": (statistics.median([t["import_s"] for t in traces] or [0.0]), "s"),
        "cli.overhead_s": (statistics.median([result.wall_s - result.trace["top_s"]
                                              for result in traced] or [0.0]), "s"),
    }
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
        metrics[f"{name}.self_s"] = (stat(name, 2), "s")
    profiles = [record["profile"].trace for record in runner.records
                if record["profile"].trace]
    metrics["core.fraction_self_share"] = (
        ratio(sum(p["fraction_s"] for p in profiles), sum(p["total_s"] for p in profiles)),
        "ratio")
    for name in FOCK_SWEEPS:
        metrics[f"fock.{name}.sweep_s"] = (span_total({f"fock.{name}"}), "s")
    metrics["fock.j_cache.hit_ratio"] = (hit_ratio("fock.j_cache"), "ratio")
    metrics["fock.sugawara_cache.hit_ratio"] = (hit_ratio("fock.sugawara_cache"), "ratio")
    metrics["fock.cache_entries"] = (
        ratio(sum(t["caches"]["fock.j_cache"]["entries"]
                  + t["caches"]["fock.sugawara_cache"]["entries"] for t in traces), count),
        "count")
    metrics["verma.act_cache.hit_ratio"] = (hit_ratio("verma.act_cache"), "ratio")
    metrics["verma.sweep_s"] = (span_total({f"verma.{name}" for name in VERMA_SWEEPS}), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (stat(name, 2), "s")
    metrics["extension.ext_bracket.calls"] = (stat("extension.ext_bracket", 0), "count")

    plain = [record["plain"] for record in runner.records if record["plain"].error is None]
    metrics["pool.cpu_per_wall"] = (
        ratio(sum(r.cpu_s for r in plain), sum(r.wall_s for r in plain)), "ratio")
    pooled = [record for record in runner.records
              if "serial" in record and record["serial"].error is None
              and record["plain"].error is None]
    metrics["pool.speedup"] = (ratio(sum(r["serial"].wall_s for r in pooled),
                                     sum(r["plain"].wall_s for r in pooled)), "ratio")
    traced_plain = [record["plain"] for record in runner.records if record["trace"].trace]
    metrics["trace_overhead"] = (ratio(sum(r.wall_s for r in traced),
                                       sum(r.wall_s for r in traced_plain)), "ratio")
    return metrics


def write_trace(runner, path: Path):
    """All spans and counters of the traced run, one entry per invocation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = [{"args": record["trace"].invocation.args,
                "wall_s": record["trace"].wall_s, **record["trace"].trace}
               for record in runner.records]
    path.write_text(json.dumps({"workload": runner.workload, "seed": runner.seed,
                                "invocations": entries}) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "virasoro" / "cli.py").is_file():
        print(f"error: no virasoro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = checker.self_test()
    if problems:
        print("error: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_tmp" / f"{options.workload}-{options.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(options.workload, options.seed, options.seconds,
                        bool(options.trace), workdir)
        runner.loop()
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):   # still in use by another run
            workdir.parent.rmdir()

    failed_frac = runner.failed / runner.attempted
    print(f"workload={options.workload} seed={options.seed} trace={options.trace} "
          f"rounds={runner.rounds} measured_s={runner.measured:.2f} "
          f"invocations={len(runner.records)} "
          f"vira_processes={runner.attempted}")
    if options.trace:
        metrics, notes = per_layer(runner), {}
        write_trace(runner, ROOT / ".bench_out" /
                    f"trace-{options.workload}-{options.seed}.json")
    else:
        metrics, notes = end_to_end(runner)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(f"{'failed_frac':48s} {failed_frac:14.6g} ratio  "
          f"({runner.failed} of {runner.attempted} vira invocations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
