"""Traced execution of one CLI job, and the per-layer metrics built from its spans.

Run as a script, this is the child process of the traced run:

    python perfbench/tracer.py <job-id> <spans.json> -- <entrank CLI arguments>

It times ``import entrank.cli``, wraps the public functions listed in
``TARGETS`` from the outside, calls ``entrank.cli.main`` with the arguments,
and writes every span to ``spans.json`` when main returns. Modules bind
library functions by name (``from .states import subset_rank``), so each
wrapper replaces every attribute of every ``entrank`` module that is bound to
the original function. numpy's decompositions are wrapped on ``numpy.linalg``,
which catches every call whichever module makes it. A target that no longer
exists is listed as absent and its metrics are left out, never reported as 0.

Imported as a module, it provides ``aggregate``, which turns the span files
of a run into per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, function, span name); every public function of entrank.catalog is
# added at run time as a "catalog" span.
TARGETS = [
    ("entrank.statefile", "load_state", "statefile.load_state"),
    ("entrank.statefile", "write_state_file", "statefile.write_state_file"),
    ("entrank.states", "subset_rank", "states.subset_rank"),
    ("entrank.states", "partial_trace", "states.partial_trace"),
    ("entrank.states", "bipartition_spectrum", "states.bipartition_spectrum"),
    ("entrank.linalg", "numerical_rank", "linalg.numerical_rank"),
    ("entrank.linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues"),
    ("entrank.criteria", "rank_lattice", "criteria.rank_lattice"),
    ("entrank.criteria", "check_rank_monotonicity", "criteria.check_rank_monotonicity"),
    ("entrank.factorize", "factorize_pure", "factorize.factorize_pure"),
    ("numpy.linalg", "svd", "kernel.svd"),
    ("numpy.linalg", "eigh", "kernel.eigh"),
    ("numpy.linalg", "eigvalsh", "kernel.eigh"),
]


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _matrix_bytes(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"bytes": a.size * a.itemsize, "dim": max(a.shape[-2:])}


def _lattice(args, kwargs, result):
    return {"entries": len(result.entries)}


def _witnesses(args, kwargs, result):
    return {"witnesses": len(result)}


def _factorization(args, kwargs, result):
    tested = [subset for rec in result.trace_log for subset, _ in rec.tested]
    return {"tested": len(tested), "unique": len(set(tested))}


EXTRAS = {
    "statefile.load_state": _path_bytes,
    "statefile.write_state_file": _path_bytes,
    "kernel.svd": _matrix_bytes,
    "kernel.eigh": _matrix_bytes,
    "criteria.rank_lattice": _lattice,
    "criteria.check_rank_monotonicity": _witnesses,
    "factorize.factorize_pure": _factorization,
}


class Recorder:
    """Spans of one job, kept in memory: [name, start_ns, end_ns, parent, job, extra]."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack, job = self.spans, self.stack, self.job
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                try:
                    rec[5] = extra(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    pass  # the result no longer has the shape the counter reads
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; returns the span names whose function is absent."""
    import numpy.linalg

    catalog = sys.modules["entrank.catalog"]
    targets = list(TARGETS) + [
        ("entrank.catalog", name, "catalog")
        for name, value in vars(catalog).items()
        if callable(value) and not isinstance(value, type) and not name.startswith("_")
        and getattr(value, "__module__", None) == "entrank.catalog"
    ]
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "entrank" or name.startswith("entrank."))]
    absent = []
    for module_name, attr, span in targets:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            absent.append(span)
            continue
        wrapper = recorder.wrap(span, fn)
        if module_name == "numpy.linalg":
            setattr(numpy.linalg, attr, wrapper)
            continue
        for module in owners:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent


def child_main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py <job-id> <spans.json> -- <entrank CLI arguments>")
    job, out_path, _, *cli_args = argv
    started = time.perf_counter()
    import entrank.cli

    import_s = time.perf_counter() - started
    recorder = Recorder(job)
    absent = install(recorder)
    rec = ["cli.main", time.perf_counter_ns(), 0, -1, job, None]
    recorder.spans.append(rec)
    recorder.stack.append(0)
    try:
        code = entrank.cli.main(cli_args)
    finally:
        rec[2] = time.perf_counter_ns()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "import_s": import_s, "absent": absent,
                       "spans": recorder.spans}, fh)
    return code


# ------------------------------------------------------------- aggregation

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "statefile.load_state.s": "s", "statefile.bytes_read": "B",
    "statefile.write_state_file.s": "s", "statefile.bytes_written": "B",
    "states.subset_rank.calls": "count", "states.subset_rank.s": "s",
    "states.partial_trace.calls": "count", "states.partial_trace.s": "s",
    "states.bipartition_spectrum.calls": "count", "states.bipartition_spectrum.s": "s",
    "kernel.svd.calls": "count", "kernel.svd.s": "s", "kernel.svd.bytes": "B-computed",
    "kernel.eigh.calls": "count", "kernel.eigh.s": "s", "kernel.eigh.bytes": "B-computed",
    "kernel.max_dim": "rows",
    "linalg.numerical_rank.calls": "count", "linalg.numerical_rank.s": "s",
    "linalg.hermitian_eigenvalues.calls": "count", "linalg.hermitian_eigenvalues.s": "s",
    "criteria.rank_lattice.s": "s", "criteria.lattice_entries": "count",
    "criteria.check_rank_monotonicity.s": "s", "criteria.witnesses": "count",
    "factorize.factorize_pure.s": "s", "factorize.self_s": "s",
    "factorize.tested": "count", "factorize.unique_subsets": "count",
    "factorize.useful_ratio": "ratio",
    "catalog.calls": "count", "catalog.s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.overhead_s": "s",
}

# Metric -> (span, field). Fields: calls, s (inclusive), self_s, or an extra counter.
_SUMS = {
    "statefile.load_state.s": ("statefile.load_state", "s"),
    "statefile.bytes_read": ("statefile.load_state", "bytes"),
    "statefile.write_state_file.s": ("statefile.write_state_file", "s"),
    "statefile.bytes_written": ("statefile.write_state_file", "bytes"),
    "kernel.svd.bytes": ("kernel.svd", "bytes"),
    "kernel.eigh.bytes": ("kernel.eigh", "bytes"),
    "criteria.rank_lattice.s": ("criteria.rank_lattice", "s"),
    "criteria.lattice_entries": ("criteria.rank_lattice", "entries"),
    "criteria.check_rank_monotonicity.s": ("criteria.check_rank_monotonicity", "s"),
    "criteria.witnesses": ("criteria.check_rank_monotonicity", "witnesses"),
    "factorize.factorize_pure.s": ("factorize.factorize_pure", "s"),
    "factorize.self_s": ("factorize.factorize_pure", "self_s"),
    "factorize.tested": ("factorize.factorize_pure", "tested"),
    "factorize.unique_subsets": ("factorize.factorize_pure", "unique"),
    "catalog.calls": ("catalog", "calls"),
    "catalog.s": ("catalog", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}
for _span in ("states.subset_rank", "states.partial_trace", "states.bipartition_spectrum",
              "kernel.svd", "kernel.eigh", "linalg.numerical_rank",
              "linalg.hermitian_eigenvalues"):
    _SUMS[f"{_span}.calls"] = (_span, "calls")
    _SUMS[f"{_span}.s"] = (_span, "s")


def job_counters(trace: dict) -> dict[tuple[str, str], float]:
    """Per-span totals of one job: calls, inclusive and self seconds, extra counters.

    Catalog spans count only when no other catalog span encloses them, so
    nested catalog calls (random_state -> mixed_of_rank) are not counted twice.
    """
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[tuple[str, str], float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        if name == "catalog" and parent >= 0 and _has_ancestor(spans, parent, "catalog"):
            continue
        add((name, "calls"), 1)
        add((name, "s"), (end - start) / 1e9)
        add((name, "self_s"), (end - start - child_ns[i]) / 1e9)
        for key, value in (extra or {}).items():
            if key == "dim":
                totals[(name, "dim")] = max(totals.get((name, "dim"), 0), value)
            else:
                add((name, key), value)
    return totals


def _has_ancestor(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def aggregate(traces: list[dict], report_bytes: list[int], overhead_s: float) -> dict:
    """Per-layer metrics of a traced run: means per traced job unless noted.

    ``kernel.max_dim`` is the largest matrix side seen, ``factorize.useful_ratio``
    the run's distinct subsets over subsets tested, ``cli.import_s`` the median
    import time of ``entrank.cli`` in a fresh interpreter.
    """
    import statistics

    if not traces:
        return {}
    jobs = len(traces)
    absent = set().union(*(t["absent"] for t in traces))
    counters = [job_counters(t) for t in traces]
    total = {}
    for c in counters:
        for key, value in c.items():
            total[key] = max(total.get(key, 0), value) if key[1] == "dim" else (
                total.get(key, 0) + value)
    values = {}
    for metric, (span, field) in _SUMS.items():
        if span not in absent:
            values[metric] = total.get((span, field), 0) / jobs
    if not absent & {"kernel.svd", "kernel.eigh"}:
        values["kernel.max_dim"] = max(total.get(("kernel.svd", "dim"), 0),
                                       total.get(("kernel.eigh", "dim"), 0))
    if "factorize.factorize_pure" not in absent:
        tested = total.get(("factorize.factorize_pure", "tested"), 0)
        unique = total.get(("factorize.factorize_pure", "unique"), 0)
        values["factorize.useful_ratio"] = unique / tested if tested else 0.0
    values["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    values["cli.report_bytes"] = sum(report_bytes) / jobs
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items() if name in values}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
