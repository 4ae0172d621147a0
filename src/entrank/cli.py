"""Command-line surface: analyze, factorize, check-partition, ppt, gen, bench.

Exit codes: 0 when the requested analysis completed (whatever the verdict),
2 for input errors, 3 for size or enumeration limits, 4 for internal
inconsistencies. Particle indices are 1-based in every file, flag, and
report; the library uses 0-based indices internally.

Machine-readable reports (--json) are deterministic: identical inputs and
flags yield byte-identical output except for the timing_seconds field.

A command parses its arguments, calls the library and formats the result:
the library decides a state's form and the lattice budget, and argparse's
``choices`` are the one check of a name. A state file is read once; a
report's ``input.sha256`` is the digest of those bytes. Lattice reports read
the lattice's arrays and the verdict's slot pairs, build each traced set's
text once, and write their rows as ``jsonfmt.Table`` rows.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from contextlib import contextmanager
from itertools import combinations, groupby
from math import prod
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import catalog, criteria, factorize as factorize_mod, statefile
from .errors import EntrankError, InputError, PartitionError
from .jsonfmt import Table, json_pieces, table_field
from .linalg import DEFAULT_ATOL, DEFAULT_MAX_DIM, DEFAULT_RTOL, RankTolerance
from .states import (
    CHUNK_BYTES,
    State,
    ensemble_ppt,
    mask_of,
    normalize_subset,
    particles_of,
    ppt_minimum,
    validate_dims,
)

PPT_NEG_TOL = 1e-9
PPT_ENTANGLED = "ENTANGLED"
PPT_NOT_DETECTED = "NOT-DETECTED"

BENCH_CSV_HEADER = ["kind", "dims", "seed", "rank_detect", "ppt_detect", "both", "neither"]
BENCH_KINDS = ("product_mixture", "werner", "haar_pure")
GEN_NAMES = ("ghz", "w", "bell", "werner", "paper6", "random")
RANDOM_KINDS = ("haar_pure", "product_pure", "mixed_of_rank_r")


def _fmt_subset(subset: Sequence[int]) -> str:
    return "{" + ",".join(str(i + 1) for i in subset) + "}"


def _one_based(subset: Sequence[int]) -> list[int]:
    return [i + 1 for i in subset]


def _parse_indices(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        raw = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise PartitionError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not raw:
        raise PartitionError(f"{what} {text!r} names no particles")
    if any(i < 1 or i > n for i in raw):
        raise PartitionError(f"{what} {text!r} uses indices outside 1..{n}")
    return normalize_subset([i - 1 for i in raw], n)


def _parse_partition(text: str, n: int) -> list[tuple[int, ...]]:
    parts = [p for p in text.split("|")]
    if any(p.strip() == "" for p in parts):
        raise PartitionError(f"malformed partition expression {text!r}")
    return [_parse_indices(p, n, "part") for p in parts]


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputError(f"cannot parse dims {text!r}: {exc}") from exc
    if not dims:
        raise InputError(f"dims {text!r} lists no particles")
    return dims


@contextmanager
def _writing(path) -> Iterator[None]:
    """A failed write of ``path``, or of a file in it, as an input error."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _tolerance(args: argparse.Namespace) -> RankTolerance:
    return RankTolerance(rtol=args.rtol, atol=args.atol)


def _load(args: argparse.Namespace) -> tuple[State, Optional[str]]:
    """The state of ``args.file`` and, for a --json report, the sha256 of the
    bytes it was read from."""
    digest = hashlib.sha256() if args.json else None
    state = statefile.load_state(args.file, max_dim=args.max_dim, digest=digest)
    return state, digest and digest.hexdigest()


def _report_header(
    command: str, args: argparse.Namespace, state: State, sha256: str, tol=None
) -> dict:
    """A report's first fields; ``tolerance`` only for a command that takes ranks."""
    tolerance = {} if tol is None else {"tolerance": {"rtol": tol.rtol, "atol": tol.atol}}
    return {
        "format_version": "1",
        "command": command,
        "input": {"path": str(args.file), "sha256": sha256},
        "dims": list(state.dims),
        **tolerance,
    }


def _traced_texts(lattice: criteria.RankLattice, render) -> list[str]:
    """``render`` of each traced set of the lattice, in entry order."""
    return [render(particles_of(mask)) for mask in lattice.traced[1:].tolist()]


def _lattice_report(lattice: criteria.RankLattice, verdict: criteria.Verdict) -> dict:
    """The state rank, lattice rows and violation rows of a report, in
    1-based particles. Both tables read the lattice by slot (slot 0, the full
    state, is a null parent), and their rows are made as the writer reads them."""
    texts = ["null", *_traced_texts(lattice, lambda subset: table_field(_one_based(subset)))]
    ranks = lattice.ranks.tolist()
    child, parent = verdict.pairs.T.tolist()
    return {
        "state_rank": lattice.state_rank,
        "lattice": Table(("rank", "traced_out"), zip(ranks[1:], texts[1:])),
        "violations": Table(
            ("child", "child_rank", "parent", "parent_rank"),
            ((texts[c], ranks[c], texts[p], ranks[p]) for c, p in zip(child, parent)),
        ),
    }


def _ppt_flag(value: float) -> str:
    """The one PPT flag rule, of the reports and ``bench``: ENTANGLED below
    −``PPT_NEG_TOL``."""
    return PPT_ENTANGLED if value < -PPT_NEG_TOL else PPT_NOT_DETECTED


def _ppt_row(state: State, part: tuple[int, ...]) -> dict:
    """The PPT fields of a report for ``part``: its 1-based particles, the
    minimum eigenvalue of the partial transpose and the flag."""
    value = ppt_minimum(state, part)
    return {"part": _one_based(part), "min_eigenvalue": value, "flag": _ppt_flag(value)}


def _violation_lines(verdict: criteria.Verdict, texts: list[str]) -> list[str]:
    """The human ``violations:`` block, empty when there is no witness;
    ``texts`` are the lattice's traced sets as ``_fmt_subset`` writes them."""
    if not len(verdict.pairs):
        return []
    names = ["full state", *(f"traced {text}" for text in texts)]
    ranks = verdict.lattice.ranks.tolist()
    return ["violations:"] + [
        f"  {names[c]} has rank {ranks[c]} > {ranks[p]} ({names[p]})"
        for c, p in verdict.pairs.tolist()
    ]


def _print_json(report: dict) -> int:
    """Write the report as ``json.dumps(report, indent=2, sort_keys=True)``
    and a newline would."""
    sys.stdout.writelines(json_pieces(report))
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    state, sha256 = _load(args)
    n = state.n
    started = time.perf_counter()
    lattice = criteria.rank_lattice(state, args.depth, tol)
    depth = lattice.max_depth
    verdict = criteria.verdict(lattice)

    # The PPT reads the factor, which no rank tolerance enters: a dense file's
    # value is within the dropped eigenvalues' 2-norm of its stored matrix's.
    ppt_rows = [_ppt_row(state, (i,)) for i in range(n)] if args.ppt and n >= 2 else []
    elapsed = time.perf_counter() - started

    if args.json:
        report = {
            **_report_header("analyze", args, state, sha256, tol),
            "depth": depth,
            **_lattice_report(lattice, verdict),
            "verdict": verdict.tag,
            "timing_seconds": elapsed,
        }
        if args.ppt:
            report["ppt"] = ppt_rows
        return _print_json(report)

    lines = [
        f"input: {args.file}",
        f"dims: {'x'.join(str(d) for d in state.dims)}   particles: {n}",
        f"state rank: {lattice.state_rank}",
    ]
    texts = _traced_texts(lattice, _fmt_subset)
    if texts:
        lines.append(f"rank lattice to depth {depth} (rank after tracing out the listed set):")
        # The entries of a lattice over particles come by size.
        rows = zip(lattice.traced[1:].tolist(), texts, lattice.ranks[1:].tolist())
        for size, row in groupby(rows, key=lambda entry: entry[0].bit_count()):
            lines.append(f"  size {size}:  " + "  ".join(f"{t}={r}" for _, t, r in row))
    lines += _violation_lines(verdict, texts)
    if ppt_rows:
        lines.append("partial transpose minimum eigenvalues:")
        for i, row in enumerate(ppt_rows):
            lines.append(f"  part {_fmt_subset((i,))}: {row['min_eigenvalue']:+.6e}  {row['flag']}")
    lines.append(f"verdict: {verdict.tag}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------- factorize


def cmd_factorize(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    state, sha256 = _load(args)
    started = time.perf_counter()
    result = factorize_mod.factorize_pure(state, tol)
    elapsed = time.perf_counter() - started

    if args.factors_out:
        out_dir = Path(args.factors_out)
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            for idx, (part, factor) in enumerate(zip(result.partition, result.factors), start=1):
                payload = statefile.pure_payload(
                    factor, metadata={"factor_of": str(args.file), "part": _one_based(part)}
                )
                statefile.write_state_file(out_dir / f"factor_{idx:02d}.json", payload)

    if args.json:
        return _print_json({
            **_report_header("factorize", args, state, sha256, tol),
            "partition": [_one_based(p) for p in result.partition],
            "fully_entangled_parts": [_one_based(p) for p in result.fully_entangled_parts],
            "residual": result.residual,
            "trace_log": [
                {
                    "step": rec.step,
                    "remainder": _one_based(rec.remainder),
                    "tested": [
                        {"subset": _one_based(subset), "rank": rank} for subset, rank in rec.tested
                    ],
                    "accepted": [_one_based(subset) for subset in rec.accepted],
                }
                for rec in result.trace_log
            ],
            "timing_seconds": elapsed,
        })

    partition_text = " | ".join(_fmt_subset(p) for p in result.partition)
    lines = [
        f"input: {args.file}",
        f"partition: {partition_text}",
    ]
    for part in result.partition:
        flag = "fully entangled" if part in result.fully_entangled_parts else "single particle"
        lines.append(f"  {_fmt_subset(part)}: {flag}")
    lines.append(f"residual: {result.residual:.3e}")
    for rec in result.trace_log:
        accepted = " ".join(_fmt_subset(s) for s in rec.accepted) or "none"
        lines.append(
            f"  step {rec.step}: tested {len(rec.tested)} subsets of"
            f" {_fmt_subset(rec.remainder)}, accepted {accepted}"
        )
    print("\n".join(lines))
    return 0


# --------------------------------------------------------- check-partition


def cmd_check_partition(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    state, sha256 = _load(args)
    parts = _parse_partition(args.partition, state.n)
    lattice = criteria.rank_lattice(state, len(parts) - 1, tol, parts=parts)
    verdict = criteria.verdict(lattice)
    full = (1 << state.n) - 1
    rank_at = dict(zip(lattice.traced.tolist(), lattice.ranks.tolist()))

    def rank_of(kept: tuple[int, ...]) -> int:
        return rank_at[full ^ mask_of(kept)]

    # Each pair check is an edge of the lattice: either part alone against
    # the two together.
    pairs = list(combinations(lattice.parts, 2))
    pair_rows = []
    for u, v in pairs:
        rank_u, rank_v, rank_composite = rank_of(u), rank_of(v), rank_of(u + v)
        tag = criteria.ENTANGLED if max(rank_u, rank_v) > rank_composite else criteria.INCONCLUSIVE
        pair_rows.append(
            {
                "u": _one_based(u),
                "v": _one_based(v),
                "rank_u": rank_u,
                "rank_v": rank_v,
                "rank_composite": rank_composite,
                "verdict": tag,
            }
        )

    if args.json:
        return _print_json({
            **_report_header("check-partition", args, state, sha256, tol),
            "partition": [_one_based(p) for p in parts],
            "pairs": pair_rows,
            **_lattice_report(lattice, verdict),
            "overall": verdict.tag,
        })

    lines = [f"input: {args.file}", "pair checks (rank_u, rank_v vs rank of the pair together):"]
    for (u, v), row in zip(pairs, pair_rows):
        lines.append(
            f"  {_fmt_subset(u)} vs {_fmt_subset(v)}: ranks ({row['rank_u']}, {row['rank_v']},"
            f" {row['rank_composite']}) -> {row['verdict']}"
        )
    lines += _violation_lines(verdict, _traced_texts(lattice, _fmt_subset))
    lines.append(f"overall: {verdict.tag}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------- ppt


def cmd_ppt(args: argparse.Namespace) -> int:
    state, sha256 = _load(args)
    part = _parse_indices(args.part, state.n, "part")
    row = _ppt_row(state, part)
    if args.json:
        return _print_json({**_report_header("ppt", args, state, sha256), **row})
    print(
        f"input: {args.file}\n"
        f"part: {_fmt_subset(part)}\n"
        f"minimum eigenvalue of the partial transpose: {row['min_eigenvalue']:+.9e}\n"
        f"flag: {row['flag']}"
    )
    return 0


# --------------------------------------------------------------------- gen


def cmd_gen(args: argparse.Namespace) -> int:
    name = args.name
    metadata: dict = {"name": name}
    if name == "ghz":
        state: State = catalog.ghz(args.n, args.d, max_dim=args.max_dim)
        metadata["params"] = {"n": args.n, "d": args.d}
    elif name == "w":
        state = catalog.w(args.n, max_dim=args.max_dim)
        metadata["params"] = {"n": args.n}
    elif name == "bell":
        state = catalog.bell()
    elif name == "werner":
        if args.p is None:
            raise InputError("werner needs --p (mixing weight in [0, 1])")
        state = catalog.werner(args.p)
        metadata["params"] = {"p": args.p, "fidelity": (3.0 * args.p + 1.0) / 4.0}
    elif name == "paper6":
        state = catalog.six_qubit_benchmark()
    else:  # random
        if args.dims is None:
            raise InputError("random needs --dims, e.g. --dims 2,2,2")
        dims = _parse_dims(args.dims)
        if args.kind == "haar_pure":
            state = catalog.haar_pure(dims, args.seed, args.max_dim)
        elif args.kind == "product_pure":
            state = catalog.product_pure(dims, args.seed, args.max_dim)
        else:  # mixed_of_rank_r
            state = catalog.mixed_of_rank(dims, args.seed, args.rank, args.max_dim)
        metadata["params"] = {"dims": list(dims), "kind": args.kind, "rank": args.rank}
        metadata["seed"] = args.seed
        metadata["generator"] = "philox"

    payload = statefile.state_payload(state, metadata)
    with _writing(args.out):
        statefile.write_state_file(args.out, payload)
    kind = payload["kind"]
    dims_text = "x".join(str(d) for d in state.dims)
    print(f"wrote {args.out} (kind={kind}, dims={dims_text})")
    return 0


# ------------------------------------------------------------------- bench


def _bench_members(
    args, dims: tuple[int, ...], block: range, weights: Optional[np.ndarray]
) -> list[State]:
    """The members of the indices ``block``, each with its factor: the
    Werner states at those ``weights``, factored here so that each takes one
    eigh for its lattice and PPT, or the ensemble of the seeds seed + index."""
    if args.kind == "werner":
        return [catalog.werner(float(p)).factored() for p in weights[block.start : block.stop]]
    seeds = range(args.seed + block.start, args.seed + block.stop)
    if args.kind == "product_mixture":
        return catalog.separable_ensemble(dims, seeds, args.max_terms, args.max_dim)
    return catalog.haar_ensemble(dims, seeds, args.max_dim)


def cmd_bench(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.count < 1:
        raise InputError(f"count must be >= 1, got {args.count}")

    if args.kind == "werner":
        dims = (2, 2)
    else:
        if args.dims is None:
            raise InputError(f"bench kind {args.kind!r} needs --dims")
        dims = _parse_dims(args.dims)
        if len(dims) < 2:
            raise InputError(f"bench needs at least two particles, got dims {args.dims!r}")
    dims = validate_dims(dims, args.max_dim)
    # Every member's lattice has this depth and budget: check them before building any.
    criteria.lattice_depth(len(dims), args.depth)
    weights = np.linspace(args.p_start, args.p_stop, args.count) if args.kind == "werner" else None
    # Members are built and evaluated in blocks of at most CHUNK_BYTES of
    # matrices, so memory does not grow with the count: a pure member holds
    # d amplitudes, a mixture a d × d matrix and a factor of at most
    # max_terms columns (d for a Werner state).
    d = prod(dims)
    columns = {"haar_pure": 1, "product_mixture": d + args.max_terms, "werner": 2 * d}[args.kind]
    size = max(1, CHUNK_BYTES // (16 * d * columns))

    rank_hits = 0
    ppt_hits = 0
    both = 0
    for lo in range(0, args.count, size):
        members = _bench_members(args, dims, range(lo, min(lo + size, args.count)), weights)
        rank_detected = [
            criteria.verdict(lattice).tag == criteria.ENTANGLED
            for lattice in criteria.ensemble_lattices(members, args.depth, tol)
        ]
        # Each part is taken only for the members no earlier part has flagged.
        ppt_detected = [False] * len(members)
        for i in range(len(dims)):
            todo = [b for b, hit in enumerate(ppt_detected) if not hit]
            for b, value in zip(todo, ensemble_ppt([members[b] for b in todo], (i,))):
                ppt_detected[b] = _ppt_flag(value) == PPT_ENTANGLED
        rank_hits += sum(rank_detected)
        ppt_hits += sum(ppt_detected)
        both += sum(r and p for r, p in zip(rank_detected, ppt_detected))

    neither = args.count - rank_hits - ppt_hits + both
    counts = (args.seed, rank_hits, ppt_hits, both, neither)
    row = [args.kind, "x".join(str(d) for d in dims), *map(str, counts)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    writer.writerow(row)
    text = buffer.getvalue()
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ------------------------------------------------------------------ parser


SHARED_FLAGS = {
    "--rtol": dict(type=float, default=DEFAULT_RTOL,
                   help="relative singular-value threshold for ranks"),
    "--atol": dict(type=float, default=DEFAULT_ATOL,
                   help="absolute singular-value floor for ranks"),
    "--depth": dict(type=int, default=None,
                    help="largest traced-out set size (default: half the particles)"),
    "--json": dict(action="store_true", help="emit a machine-readable JSON report"),
    "--seed": dict(type=int, default=0, help="seed for random generation"),
    "--max-dim": dict(type=int, default=DEFAULT_MAX_DIM, help="maximum joint dimension"),
}


def _subcommand(sub, name: str, flags: Sequence[str], **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser with the shared flags it reads, and no others."""
    p = sub.add_parser(name, **kwargs)
    for flag in flags:
        p.add_argument(flag, **SHARED_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrank",
        description="Entanglement detection and pure-state factorization"
        " from reduced-density-matrix ranks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "analyze", ("--rtol", "--atol", "--depth", "--json", "--max-dim"),
                    help="rank lattice, violations, and verdict for a state file")
    p.add_argument("file", help="state file (pure, mixture, or dense)")
    p.add_argument("--ppt", action="store_true",
                   help="also report single-particle partial-transpose minima")
    p.set_defaults(func=cmd_analyze)

    p = _subcommand(sub, "factorize", ("--rtol", "--atol", "--json", "--max-dim"),
                    help="finest tensor-product partition of a pure state")
    p.add_argument("file", help="state file containing a pure state")
    p.add_argument("--factors-out", default=None,
                   help="directory for per-part factor state files")
    p.set_defaults(func=cmd_factorize)

    p = _subcommand(sub, "check-partition", ("--rtol", "--atol", "--json", "--max-dim"),
                    help="rank lattice over the parts of a user partition, with its pair checks")
    p.add_argument("file", help="state file")
    p.add_argument("partition",
                   help="parts separated by '|', indices by ',', e.g. 1|2,3|4,5,6")
    p.set_defaults(func=cmd_check_partition)

    p = _subcommand(sub, "ppt", ("--json", "--max-dim"),
                    help="minimum eigenvalue of the partial transpose")
    p.add_argument("file", help="state file")
    p.add_argument("part", help="particles to transpose, e.g. 1 or 1,3")
    p.set_defaults(func=cmd_ppt)

    p = _subcommand(sub, "gen", ("--seed", "--max-dim"), help="write a catalog state to a file")
    p.add_argument("name", choices=GEN_NAMES, help="state name")
    p.add_argument("--out", required=True, help="output state file path")
    p.add_argument("--n", type=int, default=3, help="particle count (ghz, w)")
    p.add_argument("--d", type=int, default=2, help="local dimension (ghz)")
    p.add_argument("--p", type=float, default=None, help="werner mixing weight")
    p.add_argument("--dims", default=None, help="local dimensions, e.g. 2,2,3 (random)")
    p.add_argument("--kind", default="haar_pure", choices=RANDOM_KINDS,
                   help="random state kind")
    p.add_argument("--rank", type=int, default=1, help="component count for mixed_of_rank_r")
    p.set_defaults(func=cmd_gen)

    p = _subcommand(sub, "bench", ("--rtol", "--atol", "--depth", "--seed", "--max-dim"),
                    help="compare rank detection against the PPT baseline over an ensemble")
    p.add_argument("--kind", required=True, choices=BENCH_KINDS, help="ensemble kind")
    p.add_argument("--count", type=int, required=True, help="ensemble size")
    p.add_argument("--dims", default=None, help="local dimensions, e.g. 2,2")
    p.add_argument("--max-terms", type=int, default=4,
                   help="mixture terms per member (product_mixture)")
    p.add_argument("--p-start", type=float, default=0.0, help="first werner weight")
    p.add_argument("--p-stop", type=float, default=1.0, help="last werner weight")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EntrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
