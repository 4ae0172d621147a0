"""Summarize benchmark result files into one BENCH_*.json record.

    python3 perfbench/summarize.py --label <commit or note> [results-dir] > BENCH_x.json

Reads every ``<workload>-seed<n>-trace<t>.json`` that run.py left in the
results directory (default ``.perfbench_results``). For each workload it
gives, per end-to-end metric, the median, quartiles and quartile spread over
the untraced runs, and the per-layer metrics of the traced runs (median over
runs, plus the per-job breakdown of the first one). The machine block and the
inputs' sha256 per seed are copied from the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(results: Path, label: str) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(results.glob("*-seed*-trace*.json"))]
    out = {"label": label, "machine": runs[0]["machine"] if runs else {}, "workloads": {}}
    for name in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == name and r["trace"] == 1]
        entry = {
            "why": (plain or traced)[0]["why"],
            "seconds": (plain or traced)[0]["seconds"],
            "seeds": sorted(r["seed"] for r in plain),
            "tail_percentile": (plain or traced)[0]["tail_percentile"],
            "jobs_per_run": [r["jobs"] for r in plain],
            "fail_frac": max((r["fail_frac"] for r in plain + traced), default=0.0),
            "self_test": [r["self_test"] for r in plain + traced][:1],
            "end_to_end": {
                metric: {**_summary([r["metrics"][metric]["value"] for r in plain]),
                         "unit": plain[0]["metrics"][metric]["unit"]}
                for metric in (plain[0]["metrics"] if plain else {})
            },
            "per_job_first_run": plain[0]["per_job"] if plain else {},
            "inputs_sha256": {str(r["seed"]): r["inputs_sha256"] for r in plain},
        }
        if traced:
            entry["per_layer"] = {
                metric: {"median": statistics.median(r["metrics"][metric]["value"]
                                                     for r in traced if metric in r["metrics"]),
                         "unit": unit["unit"], "runs": len(traced)}
                for metric, unit in traced[0]["metrics"].items()
            }
            entry["traced_per_job_first_run"] = traced[0]["traced_per_job"]
            entry["absent"] = traced[0]["absent"]
        out["workloads"][name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="?", default=".perfbench_results")
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    json.dump(summarize(Path(args.results), args.label), sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
