"""Output checks against closed-form answers, and the mutations that test them.

``parse`` reads what a job produced (its stdout report, or the file it wrote),
``check`` lists every way that result differs from the job's expectation, and
``mutate`` returns a deliberately wrong copy of a parsed result. The runner's
self-test feeds each mutated result back to ``check``; a checker that accepts
it is broken, and the run is marked incorrect.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import Expect, expected_lattice, expected_violations

PPT_NEG_TOL = 1e-9
RESIDUAL_MAX = 1e-8
GEN_ATOL = 1e-12
BENCH_HEADER = ["kind", "dims", "seed", "rank_detect", "ppt_detect", "both", "neither"]


def load_density(path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    """Density matrix of a version-1 state file of any payload kind."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    dims = tuple(payload["dims"])
    d = int(np.prod(dims))

    def vector(entries) -> np.ndarray:
        v = np.zeros(d, dtype=np.complex128)
        for e in entries:
            v[np.ravel_multi_index(tuple(e["index"]), dims)] = complex(e["re"], e["im"])
        return v

    kind = payload["kind"]
    if kind == "pure":
        v = vector(payload["amplitudes"])
        return dims, np.outer(v, v.conj())
    if kind == "mixture":
        rho = np.zeros((d, d), dtype=np.complex128)
        for term in payload["terms"]:
            v = vector(term["amplitudes"])
            rho += term["weight"] * np.outer(v, v.conj())
        return dims, rho
    if kind == "dense":
        return dims, np.array([[complex(c["re"], c["im"]) for c in row]
                               for row in payload["matrix"]])
    raise ValueError(f"unknown payload kind {kind!r}")


def parse(expect: Expect, stdout: str, out_file: Path | None):
    if expect.check in ("lattice", "partition"):
        return json.loads(stdout)
    if expect.check == "csv":
        return list(csv.reader(io.StringIO(stdout)))
    if expect.check == "gen":
        return load_density(out_file)
    raise ValueError(f"unknown check {expect.check!r}")


@lru_cache(maxsize=4)
def _catalog_state(dims: tuple[int, ...], seed: int, rank: int) -> np.ndarray:
    from entrank import catalog

    return catalog.mixed_of_rank(dims, seed, rank).matrix


def _one_based(subset) -> list[int]:
    return [i + 1 for i in subset]


def _check_lattice(e: Expect, report: dict) -> list[str]:
    problems = []
    state_rank, entries = expected_lattice(e)
    if report.get("dims") != list(e.dims):
        problems.append(f"dims {report.get('dims')} != {list(e.dims)}")
    if report.get("state_rank") != state_rank:
        problems.append(f"state rank {report.get('state_rank')} != {state_rank}")
    got = {tuple(i - 1 for i in row["traced_out"]): row["rank"]
           for row in report.get("lattice", [])}
    if got != entries:
        wrong = sorted(set(got.items()) ^ set(entries.items()))[:3]
        problems.append(f"lattice differs from the closed form, e.g. {wrong}")
    violations = expected_violations(state_rank, entries)
    got_v = sorted(
        ((tuple(i - 1 for i in v["child"]),
          None if v["parent"] is None else tuple(i - 1 for i in v["parent"]),
          v["child_rank"], v["parent_rank"]) for v in report.get("violations", [])),
        key=repr,
    )
    if got_v != violations:
        problems.append(f"{len(got_v)} violations reported, {len(violations)} expected")
    if violations:
        verdict = "ENTANGLED"
    else:
        verdict = "SEPARABLE_PURE_PRODUCT" if state_rank == 1 else "INCONCLUSIVE"
    if report.get("verdict") != verdict:
        problems.append(f"verdict {report.get('verdict')} != {verdict}")
    if e.ppt:
        problems += _check_ppt(e, report.get("ppt"))
    return problems


def _check_ppt(e: Expect, rows) -> list[str]:
    n = len(e.dims)
    if not isinstance(rows, list) or [r.get("part") for r in rows] != [[i + 1] for i in range(n)]:
        return [f"PPT rows do not cover parts 1..{n}"]
    problems = []
    for row in rows:
        value, flagged = row["min_eigenvalue"], row["flag"] == "ENTANGLED"
        if flagged != (value < -PPT_NEG_TOL):
            problems.append(f"PPT flag {row['flag']} disagrees with eigenvalue {value}")
        if e.ppt == "none" and flagged:
            problems.append(f"PPT flags the separable state at part {row['part']}")
        if e.ppt.startswith("werner:"):
            p = float(e.ppt.split(":", 1)[1])
            if flagged != (p > 1 / 3):
                problems.append(f"PPT flag {row['flag']} wrong for Werner p={p}")
            if abs(value - (1 - 3 * p) / 4) > 1e-9:
                problems.append(f"PPT minimum {value} != (1-3p)/4 for p={p}")
    return problems


def _check_partition(e: Expect, report: dict) -> list[str]:
    problems = []
    partition = [_one_based(p) for p in e.partition]
    if report.get("partition") != partition:
        problems.append(f"partition {report.get('partition')} != {partition}")
    fully = [p for p in partition if len(p) >= 2]
    if report.get("fully_entangled_parts") != fully:
        problems.append(f"fully entangled parts {report.get('fully_entangled_parts')} != {fully}")
    residual = report.get("residual")
    if not isinstance(residual, (int, float)) or not 0 <= residual <= RESIDUAL_MAX:
        problems.append(f"residual {residual!r} exceeds {RESIDUAL_MAX}")
    return problems


def _check_csv(e: Expect, rows: list) -> list[str]:
    expected = [BENCH_HEADER, list(e.row)]
    return [] if rows == expected else [f"bench CSV {rows} != {expected}"]


def _check_gen(e: Expect, loaded) -> list[str]:
    dims, rho = loaded
    if dims != e.dims:
        return [f"written dims {dims} != {e.dims}"]
    err = float(np.max(np.abs(rho - _catalog_state(e.dims, e.seed, e.rank))))
    return [] if err <= GEN_ATOL else [f"written state differs from the catalog by {err:.3e}"]


CHECKERS = {"lattice": _check_lattice, "partition": _check_partition, "csv": _check_csv,
            "gen": _check_gen}


def check(expect: Expect, parsed) -> list[str]:
    return CHECKERS[expect.check](expect, parsed)


def mutate(expect: Expect, parsed):
    """A wrong copy of ``parsed``: one lattice rank, one part, one count or one entry."""
    if expect.check == "lattice":
        wrong = copy.deepcopy(parsed)
        wrong["lattice"][0]["rank"] += 1
        return wrong
    if expect.check == "partition":
        wrong = copy.deepcopy(parsed)
        parts = wrong["partition"]
        if len(parts) > 1:
            wrong["partition"] = [parts[0] + parts[1]] + parts[2:]
        else:
            wrong["partition"] = [parts[0][:-1], parts[0][-1:]]
        return wrong
    if expect.check == "csv":
        wrong = copy.deepcopy(parsed)
        wrong[1][3] = str(int(wrong[1][3]) + 1)
        return wrong
    if expect.check == "gen":
        dims, rho = parsed
        rho = rho.copy()
        rho[0, 0] += 1e-9
        return dims, rho
    raise ValueError(f"unknown check {expect.check!r}")
