"""Workload definitions: job cycles, their input files and closed-form answers.

Each workload is a cycle of CLI jobs plus the input files they read. The
files are described here and written by ``inputs.py`` with payload kinds it
fixes (never the defaults of ``entrank gen``), so a parent commit and a
change read byte-identical files. The program under test sees only these
files and the CLI arguments of each job.

Every job carries an expectation with a closed-form answer; ``checks.py``
compares the program's output against it. This module imports only the
standard library, so the benchmark process stays small while it spawns jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import prod

# Why each workload exists; BENCHMARK.json carries a one-line version.
WHY = {
    "pure_wide": (
        "Thousands of small bipartition SVDs dominate (2509 per 12-qubit state), together"
        " with the factorize sweep and its d x d residual (GHZ(12) peaks at ~820 MB RSS at"
        " the seed). File parsing is small."
    ),
    "mixed_lattice": (
        "File parsing and writing, density-matrix partial traces, a few large SVDs (one"
        " 1024^2 SVD per 10-qubit job) and the PPT eigensolves dominate. factorize never"
        " runs here."
    ),
    "ensemble": (
        "Each job runs hundreds of tiny states, and no matrix exceeds 32x32. Per-call Python"
        " overhead in criteria, states and catalog dominates, and so does the import floor."
        " A change that speeds up large kernels at the cost of per-call overhead shows here,"
        " and the reverse shows in mixed_lattice."
    ),
}

# Fixed percentile reported as job_tail_s per workload: the highest percentile
# that leaves at least ten jobs beyond it in a 36 s run at the seed commit.
# pure_wide and mixed_lattice fit two or three cycles of 10 jobs, ensemble
# about 20 cycles of 4.
TAIL_PERCENTILE = {"pure_wide": 50, "mixed_lattice": 50, "ensemble": 85}

BLOCK_PARTITION = ((0,), (1, 2), (3, 4, 5), tuple(range(6, 12)))
MIXED_RANK = 4
SEPARABLE_TERMS = 3
BENCH_COUNT = 100
WERNER_GRID = 31


@dataclass(frozen=True)
class Expect:
    """Closed-form answer for one job.

    ``check`` selects the checker: ``lattice`` (analyze), ``partition``
    (factorize), ``csv`` (bench) or ``gen`` (file written by gen). For a
    lattice, ``model`` gives the rank of the state left after tracing out T:

    * ``("blocks", parts)``: a pure product of generic blocks; the rank is
      the product over blocks of min(d(kept part of block), d(traced part));
    * ``("const", c)``: every proper reduced state has rank c (GHZ, W);
    * ``("mixed", r)``: a generic rank-r mixture, rank min(d_kept, r * d_traced);
    * ``("separable", k)``: k generic product terms, rank min(k, d_kept).
    """

    check: str
    dims: tuple[int, ...] = ()
    model: tuple = ()
    depth: int = 0
    ppt: str = ""  # "" (no PPT rows), "none" (never flagged), "consistent", or "werner:<p>"
    partition: tuple[tuple[int, ...], ...] = ()
    row: tuple[str, ...] = ()
    seed: int = 0
    rank: int = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``{n}`` in argv is replaced by the execution number."""

    label: str
    argv: tuple[str, ...]
    expect: Expect
    out_file: str = ""  # file the job writes, relative to the work directory


@dataclass
class Workload:
    cycle: list[Job]
    warmup: list[Job]
    inputs: list[tuple[str, str, dict]]  # (file, generator in inputs.py, parameters)


def werner_weights(seed: int) -> tuple[float, float]:
    """One Werner weight below the PPT threshold p = 1/3 and one above, both
    away from the threshold and from the pure state p = 1."""
    rng = random.Random(seed)
    return rng.uniform(0.05, 0.28), rng.uniform(0.40, 0.95)


def _lattice_job(label, file, dims, model, depth, extra=(), ppt="") -> Job:
    expect = Expect(check="lattice", dims=tuple(dims), model=model, depth=depth, ppt=ppt)
    return Job(label, ("analyze", "--json", *extra, file), expect)


def pure_wide(seed: int) -> Workload:
    q = (2,) * 12
    whole = (tuple(range(12)),)
    qudit = (3, 2, 3, 2, 3, 2, 3, 2)
    # (name, dims, generator, params, lattice model, finest partition)
    specs = [
        ("haar12", q, "haar", {"stream": 1}, ("blocks", whole), whole),
        ("ghz12", q, "ghz", {}, ("const", 2), whole),
        ("w12", q, "w", {}, ("const", 2), whole),
        ("block12", q, "blocks", {"stream": 10, "parts": BLOCK_PARTITION},
         ("blocks", BLOCK_PARTITION), BLOCK_PARTITION),
        ("qudit8", qudit, "haar", {"stream": 2}, ("blocks", (tuple(range(8)),)),
         (tuple(range(8)),)),
    ]
    cycle, inputs = [], []
    for name, dims, generator, params, model, partition in specs:
        file = f"{name}.json"
        inputs.append((file, generator, {"dims": dims, **params}))
        cycle.append(_lattice_job(f"analyze {name}", file, dims, model, len(dims) // 2))
        expect = Expect(check="partition", dims=dims, partition=partition)
        cycle.append(Job(f"factorize {name}", ("factorize", "--json", file), expect))
    warmup = [job for job in cycle if "qudit8" in job.label]
    return Workload(cycle, warmup, inputs)


def mixed_lattice(seed: int) -> Workload:
    q8, q10 = (2,) * 8, (2,) * 10
    mixed = ("mixed", MIXED_RANK)
    cycle, inputs = [], []
    for j in range(4):
        file = f"mixed8_{j}.json"
        inputs.append((file, "mixed_dense", {"dims": q8, "rank": MIXED_RANK, "stream": 20 + j}))
        cycle.append(_lattice_job("analyze mixed8 dense", file, q8, mixed, 7,
                                  ("--ppt", "--depth", "7"), "consistent"))
    inputs.append(("mixed10.json", "mixed_terms", {"dims": q10, "rank": MIXED_RANK,
                                                   "stream": 30}))
    cycle.append(_lattice_job("analyze mixed10 mixture", "mixed10.json", q10, mixed, 9,
                              ("--ppt", "--depth", "9"), "consistent"))
    sep = (2, 3, 2, 3)
    inputs.append(("separable2323.json", "separable_dense",
                   {"dims": sep, "terms": SEPARABLE_TERMS, "stream": 40}))
    cycle.append(_lattice_job("analyze separable2323 dense", "separable2323.json", sep,
                              ("separable", SEPARABLE_TERMS), 3, ("--ppt", "--depth", "3"),
                              "none"))
    for j, p in enumerate(werner_weights(seed)):
        file = f"werner_{j}.json"
        inputs.append((file, "werner_dense", {"dims": (2, 2), "p": p}))
        cycle.append(_lattice_job("analyze werner dense", file, (2, 2), ("mixed", 4), 1,
                                  ("--ppt", "--depth", "1"), f"werner:{p!r}"))

    def gen(label, dims, rank):
        return Job(label,
                   ("gen", "random", "--dims", ",".join(map(str, dims)), "--kind",
                    "mixed_of_rank_r", "--rank", str(rank), "--seed", str(1000 + seed),
                    "--out", "gen_{n}.json"),
                   Expect(check="gen", dims=dims, seed=1000 + seed, rank=rank),
                   out_file="gen_{n}.json")

    # Two gen jobs put as many jobs above the mixed8 analyses as below them, so
    # the median job of a run is the middle of the mixed8 group.
    cycle += [gen("gen mixed8", q8, MIXED_RANK)] * 2
    warmup = [cycle[-3], gen("gen mixed2", (2, 2), 2)]
    return Workload(cycle, warmup, inputs)


def ensemble(seed: int) -> Workload:
    c = str(BENCH_COUNT)
    specs = [
        ("product_mixture", "2,3,2", 101, (0, 0, 0, BENCH_COUNT)),
        ("product_mixture", "2,2,2,2", 102, (0, 0, 0, BENCH_COUNT)),
        ("haar_pure", "2,2,2,2,2", 103, (BENCH_COUNT,) * 3 + (0,)),
    ]
    cycle = []
    for kind, dims, stream, counts in specs:
        bench_seed = 1000 * seed + stream
        row = (kind, dims.replace(",", "x"), str(bench_seed), *map(str, counts))
        cycle.append(Job(f"bench {kind} {dims}",
                         ("bench", "--kind", kind, "--dims", dims, "--count", c,
                          "--seed", str(bench_seed)),
                         Expect(check="csv", row=row)))
    # p = k/30 for k = 0..30: PPT flags p > 1/3 (20 points), the rank lattice only p = 1.
    cycle.append(Job("bench werner grid",
                     ("bench", "--kind", "werner", "--count", str(WERNER_GRID),
                      "--p-start", "0", "--p-stop", "1"),
                     Expect(check="csv", row=("werner", "2x2", "0", "1", "20", "1", "11"))))
    return Workload(cycle, [cycle[-1]], [])


BUILDERS = {"pure_wide": pure_wide, "mixed_lattice": mixed_lattice, "ensemble": ensemble}


# ------------------------------------------------------------ closed forms


def expected_lattice(expect: Expect) -> tuple[int, dict[tuple[int, ...], int]]:
    """State rank and {traced-out set (0-based): rank} for every set up to the depth."""
    dims = expect.dims
    n = len(dims)
    kind, arg = expect.model

    def dim(subset) -> int:
        return prod(dims[i] for i in subset)

    def rank(traced: tuple[int, ...]) -> int:
        kept = tuple(i for i in range(n) if i not in traced)
        if kind == "blocks":
            out = 1
            for block in arg:
                inside = [i for i in block if i in kept]
                outside = [i for i in block if i not in kept]
                out *= min(dim(inside), dim(outside))
            return out
        if kind == "const":
            return arg
        if kind == "mixed":
            return min(dim(kept), arg * dim(traced))
        if kind == "separable":
            return min(arg, dim(kept))
        raise ValueError(f"unknown lattice model {kind!r}")

    state_rank = {"blocks": 1, "const": 1}.get(kind, arg)
    entries = {t: rank(t) for size in range(1, expect.depth + 1)
               for t in combinations(range(n), size)}
    return state_rank, entries


def expected_violations(state_rank: int, entries: dict) -> list[tuple]:
    """One-step rank increases, as (child, parent or None, child_rank, parent_rank)."""
    out = []
    for child, child_rank in entries.items():
        if len(child) == 1:
            if child_rank > state_rank:
                out.append((child, None, child_rank, state_rank))
            continue
        for drop in child:
            parent = tuple(i for i in child if i != drop)
            if child_rank > entries[parent]:
                out.append((child, parent, child_rank, entries[parent]))
    return sorted(out, key=repr)
