"""Run one `vira` invocation in this process with tracing or profiling on.

    PYTHONPATH=src python3 bench/child.py trace|profile VIRA-ARGS...

The wrappers are installed from outside the library, after import and
before `virasoro.cli.main` runs, so the library's own caches behave as in an
untraced process.  The CLI's stdout and exit code are passed through; when
the invocation ends, one line `VIRA_BENCH <json>` is written to stderr.

trace:   aggregated (calls, total, self) seconds for the hot operators, and
         spans (id, parent, name, start, end) around the sweep-level calls.
profile: cProfile self time in the `fractions` module and in total.

Under --jobs the sweep runs in forked workers, whose counters are not
collected: operator counts then cover the parent process only.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

MARK = "VIRA_BENCH "

# Sweep-level calls get spans; the rest are hot operators with counters only.
SPANS = {
    "fock": ["check_heisenberg_relations", "check_primary_field", "sweep_normal_pair",
             "check_sugawara_commutator"],
    "verma": ["check_verma_relations", "verma_hw_check", "check_intertwining"],
    "witt": ["jacobi_basis_sweep"],
    "extension": ["check_extension_predicate", "check_virasoro_constants",
                  "check_heisenberg_constants"],
    "cohomology": ["load_cocycle_table", "check_cocycle_identity", "reduce_cocycle",
                   "nontriviality_witness"],
}
COUNTERS = {
    "fock": ["j_action", "normal_pair", "sugawara_l"],
    "verma": ["l_action", "universal_map"],
    "extension": ["ext_bracket"],
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.spans: list[list] = []        # [id, parent id, name, start, end]
        self._children: list[list] = []    # child seconds of each open call
        self._open_spans: list[int] = []
        self.top_s = 0.0                   # time inside outermost wrapped calls

    def wrap(self, name, fn, span=False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        open_spans = self._open_spans
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                span_id = len(self.spans)
                record = [span_id, open_spans[-1] if open_spans else None, name, 0.0, 0.0]
                self.spans.append(record)
                open_spans.append(span_id)
            frame = [0.0]
            children.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                children.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if children:
                    children[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                if span:
                    open_spans.pop()
                    record[3], record[4] = start, end

        return wrapper

    def install(self):
        import virasoro.core as core
        from virasoro import cohomology, extension, fock, verma, witt
        from virasoro.reports import VerificationReport

        modules = {"fock": fock, "verma": verma, "witt": witt, "extension": extension,
                   "cohomology": cohomology}
        for table, span in ((SPANS, True), (COUNTERS, False)):
            for module_name, names in table.items():
                module = modules[module_name]
                for name in names:
                    setattr(module, name,
                            self.wrap(f"{module_name}.{name}", getattr(module, name), span))
        combine = core.FreeVector.__dict__["linear_combination"].__func__
        core.FreeVector.linear_combination = classmethod(
            self.wrap("core.linear_combination", combine))
        # bilinear_extend is imported by name into witt and extension.
        bilinear = self.wrap("core.bilinear_extend", core.bilinear_extend)
        for module in (core, witt, extension):
            module.bilinear_extend = bilinear
        for method in ("to_text", "to_json_dict"):
            setattr(VerificationReport, method,
                    self.wrap("reports.render", getattr(VerificationReport, method)))

    def record(self):
        from virasoro import fock, verma
        caches = {}
        for name, cached in (("fock.j_cache", fock._j_basis),
                             ("fock.sugawara_cache", fock._sugawara_basis),
                             ("verma.act_cache", verma._act_basis)):
            info = cached.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "entries": info.currsize}
        return {"stats": self.stats, "spans": self.spans, "top_s": self.top_s,
                "caches": caches}


class Profiler:
    def __init__(self):
        import cProfile
        self.profile = cProfile.Profile()

    def install(self):
        self.profile.enable()

    def record(self):
        import pstats
        self.profile.disable()
        total = fractions = 0.0
        for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(self.profile).stats.items():
            total += tottime
            if filename.endswith("fractions.py"):
                fractions += tottime
        return {"fraction_s": fractions, "total_s": total}


def main():
    mode, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import virasoro.cli
    import_s = time.perf_counter() - start
    probe = {"trace": Tracer, "profile": Profiler}[mode]()
    probe.install()
    code = 0
    try:
        virasoro.cli.main(args=args, prog_name="vira")
    except SystemExit as exc:
        code = exc.code
    finally:
        record = probe.record()
        record["import_s"] = import_s
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(record) + "\n")
        sys.stderr.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
