"""Command-line surface: analyze, factorize, check-partition, ppt, gen, bench.

Exit codes: 0 when the requested analysis completed (whatever the verdict),
2 for input errors, 3 for size or enumeration limits, 4 for internal
inconsistencies. Particle indices are 1-based in every file, flag, and
report; the library uses 0-based indices internally.

Machine-readable reports (--json) are deterministic: identical inputs and
flags yield byte-identical output except for the timing_seconds field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from itertools import combinations, islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import catalog, criteria, factorize as factorize_mod, statefile
from .errors import EntrankError, InputError, PartitionError
from .jsonfmt import json_pieces
from .linalg import DEFAULT_ATOL, DEFAULT_MAX_DIM, DEFAULT_RTOL, RankTolerance, rank_from_values
from .states import (
    DensityMatrix,
    PureState,
    State,
    canonical_pure,
    normalize_subset,
    ppt_minimum,
    subset_rank,
    validate_dims,
)

PPT_NEG_TOL = 1e-9
PPT_ENTANGLED = "ENTANGLED"
PPT_NOT_DETECTED = "NOT-DETECTED"
JSON_BATCH = 256  # pieces (whole rows) joined per write of a --json report

BENCH_CSV_HEADER = ["kind", "dims", "seed", "rank_detect", "ppt_detect", "both", "neither"]
BENCH_KINDS = ("product_mixture", "werner", "haar_pure")
GEN_NAMES = ("ghz", "w", "bell", "werner", "paper6", "random")


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


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tolerance(args: argparse.Namespace) -> RankTolerance:
    return RankTolerance(rtol=args.rtol, atol=args.atol)


def _as_pure(state: State, tol: RankTolerance) -> PureState:
    """The state as a PureState when it has rank 1 at ``tol``: its factor V
    when V has one column, else V's top left singular vector."""
    factor = state.factored(tol).factor
    if factor.shape[1] != 1:
        u, s, _ = np.linalg.svd(factor, full_matrices=False)
        rank = rank_from_values(s * s, tol)
        if rank != 1:
            raise InputError(
                "factorization handles pure states only;"
                f" this state is a mixture of {rank} components"
            )
        factor = u[:, :1]
    return canonical_pure(state.dims, factor[:, 0])


def _lattice_report(lattice: criteria.RankLattice, verdict: criteria.Verdict) -> dict:
    """The state rank, lattice rows and violation rows of a report, in
    1-based particles."""
    return {
        "state_rank": lattice.state_rank,
        "lattice": [
            {"traced_out": _one_based(traced), "rank": rank}
            for traced, rank in lattice.entries.items()
        ],
        "violations": [
            {
                "child": _one_based(v.child),
                "parent": None if v.parent is None else _one_based(v.parent),
                "child_rank": v.child_rank,
                "parent_rank": v.parent_rank,
            }
            for v in verdict.witnesses
        ],
    }


def _violation_lines(verdict: criteria.Verdict) -> list[str]:
    """The human ``violations:`` block, empty when there is no witness."""
    lines = ["violations:"] if verdict.witnesses else []
    for v in verdict.witnesses:
        parent = "full state" if v.parent is None else f"traced {_fmt_subset(v.parent)}"
        lines.append(
            f"  traced {_fmt_subset(v.child)} has rank {v.child_rank}"
            f" > {v.parent_rank} ({parent})"
        )
    return lines


def _print_json(report: dict) -> int:
    """Write the report as ``json.dumps(report, indent=2, sort_keys=True)``
    and a newline would, in batches of ``JSON_BATCH`` pieces of
    ``json_pieces``."""
    pieces = json_pieces(report)
    for batch in iter(lambda: "".join(islice(pieces, JSON_BATCH)), ""):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    state = statefile.load_state(args.file, max_dim=args.max_dim)
    n = state.n
    started = time.perf_counter()
    lattice = criteria.rank_lattice(state, args.depth, tol)
    depth = lattice.max_depth
    verdict = criteria.verdict(lattice)

    ppt_rows = []
    if args.ppt and n >= 2:
        # The state as loaded, not factored: a dense file's PPT value is that of
        # its stored matrix, whatever the rank tolerance.
        for i in range(n):
            value = ppt_minimum(state, (i,))
            ppt_rows.append(
                {
                    "part": [i + 1],
                    "min_eigenvalue": value,
                    "flag": PPT_ENTANGLED if value < -PPT_NEG_TOL else PPT_NOT_DETECTED,
                }
            )
    elapsed = time.perf_counter() - started

    report = {
        "format_version": "1",
        "command": "analyze",
        "input": {"path": str(args.file), "sha256": _digest(args.file)},
        "dims": list(state.dims),
        "tolerance": {"rtol": tol.rtol, "atol": tol.atol},
        "depth": depth,
        **_lattice_report(lattice, verdict),
        "verdict": verdict.tag,
        "timing_seconds": elapsed,
    }
    if args.ppt:
        report["ppt"] = ppt_rows
    if args.json:
        return _print_json(report)

    lines = [
        f"input: {args.file}",
        f"dims: {'x'.join(str(d) for d in state.dims)}   particles: {n}",
        f"state rank: {lattice.state_rank}",
    ]
    if lattice.entries:
        lines.append(f"rank lattice to depth {depth} (rank after tracing out the listed set):")
        by_size: dict[int, list[str]] = {}
        for traced, rank in lattice.entries.items():
            by_size.setdefault(len(traced), []).append(f"{_fmt_subset(traced)}={rank}")
        for size in sorted(by_size):
            lines.append(f"  size {size}:  " + "  ".join(by_size[size]))
    lines += _violation_lines(verdict)
    if ppt_rows:
        lines.append("partial transpose minimum eigenvalues:")
        for row in ppt_rows:
            part = "{" + ",".join(str(i) for i in row["part"]) + "}"
            lines.append(f"  part {part}: {row['min_eigenvalue']:+.6e}  {row['flag']}")
    lines.append(f"verdict: {verdict.tag}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------- factorize


def cmd_factorize(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    state = statefile.load_state(args.file, max_dim=args.max_dim)
    psi = _as_pure(state, tol)
    started = time.perf_counter()
    result = factorize_mod.factorize_pure(psi, tol)
    elapsed = time.perf_counter() - started

    if args.factors_out:
        out_dir = Path(args.factors_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, (part, factor) in enumerate(zip(result.partition, result.factors), start=1):
            payload = statefile.pure_payload(
                factor, metadata={"factor_of": str(args.file), "part": _one_based(part)}
            )
            statefile.write_state_file(out_dir / f"factor_{idx:02d}.json", payload)

    report = {
        "format_version": "1",
        "command": "factorize",
        "input": {"path": str(args.file), "sha256": _digest(args.file)},
        "dims": list(psi.dims),
        "tolerance": {"rtol": tol.rtol, "atol": tol.atol},
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
    }
    if args.json:
        return _print_json(report)

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
    state = statefile.load_state(args.file, max_dim=args.max_dim)
    parts = _parse_partition(args.partition, state.n)
    lattice = criteria.rank_lattice(state, len(parts) - 1, tol, parts=parts)
    verdict = criteria.verdict(lattice)

    def rank_of(kept: tuple[int, ...]) -> int:
        traced = tuple(i for i in range(state.n) if i not in kept)
        return lattice.entries[traced] if traced else lattice.state_rank

    # Each pair check is an edge of the lattice: either part alone against
    # the two together.
    pair_rows = []
    for u, v in combinations(lattice.parts, 2):
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

    report = {
        "format_version": "1",
        "command": "check-partition",
        "input": {"path": str(args.file), "sha256": _digest(args.file)},
        "dims": list(state.dims),
        "tolerance": {"rtol": tol.rtol, "atol": tol.atol},
        "partition": [_one_based(p) for p in parts],
        "pairs": pair_rows,
        **_lattice_report(lattice, verdict),
        "overall": verdict.tag,
    }
    if args.json:
        return _print_json(report)

    lines = [f"input: {args.file}", "pair checks (rank_u, rank_v vs rank of the pair together):"]
    for row in pair_rows:
        u = "{" + ",".join(map(str, row["u"])) + "}"
        v = "{" + ",".join(map(str, row["v"])) + "}"
        lines.append(
            f"  {u} vs {v}: ranks ({row['rank_u']}, {row['rank_v']},"
            f" {row['rank_composite']}) -> {row['verdict']}"
        )
    lines += _violation_lines(verdict)
    lines.append(f"overall: {verdict.tag}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------- ppt


def cmd_ppt(args: argparse.Namespace) -> int:
    state = statefile.load_state(args.file, max_dim=args.max_dim)
    part = _parse_indices(args.part, state.n, "part")
    value = ppt_minimum(state, part)
    flag = PPT_ENTANGLED if value < -PPT_NEG_TOL else PPT_NOT_DETECTED

    report = {
        "format_version": "1",
        "command": "ppt",
        "input": {"path": str(args.file), "sha256": _digest(args.file)},
        "dims": list(state.dims),
        "part": _one_based(part),
        "min_eigenvalue": value,
        "flag": flag,
    }
    if args.json:
        return _print_json(report)
    print(
        f"input: {args.file}\n"
        f"part: {_fmt_subset(part)}\n"
        f"minimum eigenvalue of the partial transpose: {value:+.9e}\n"
        f"flag: {flag}"
    )
    return 0


# --------------------------------------------------------------------- gen


def _mixture_terms(rho: DensityMatrix) -> list[tuple[float, PureState]]:
    """(w_j, psi_j) from the factor columns √w_j·psi_j of a mixture."""
    weights = np.sum(np.abs(rho.factor) ** 2, axis=0)
    return [
        (float(w), PureState(dims=rho.dims, amplitudes=column / np.sqrt(w)))
        for w, column in zip(weights, rho.factor.T)
    ]


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
        spec = catalog.WernerSpec(args.p)
        state = catalog.werner(spec)
        metadata["params"] = {"p": args.p, "fidelity": spec.fidelity}
    elif name == "paper6":
        state = catalog.six_qubit_benchmark()
    elif name == "random":
        if args.dims is None:
            raise InputError("random needs --dims, e.g. --dims 2,2,2")
        dims = _parse_dims(args.dims)
        spec = catalog.RandomSpec(dims=dims, seed=args.seed, kind=args.kind, rank=args.rank)
        state = catalog.random_state(spec, max_dim=args.max_dim)
        metadata["params"] = {"dims": list(dims), "kind": args.kind, "rank": args.rank}
        metadata["seed"] = args.seed
        metadata["generator"] = "philox"
    else:
        raise InputError(f"unknown state name {name!r}; choose from {GEN_NAMES}")

    if isinstance(state, PureState):
        payload = statefile.pure_payload(state, metadata=metadata)
    elif state.factor is not None:
        payload = statefile.mixture_payload(_mixture_terms(state), metadata=metadata)
    else:
        payload = statefile.density_payload(state, metadata=metadata)
    statefile.write_state_file(args.out, payload)
    kind = payload["kind"]
    dims_text = "x".join(str(d) for d in state.dims)
    print(f"wrote {args.out} (kind={kind}, dims={dims_text})")
    return 0


# ------------------------------------------------------------------- bench


def _bench_member(kind: str, dims: tuple[int, ...], seed: int, index: int, args) -> State:
    if kind == "product_mixture":
        return catalog.separable_mixture(
            dims, seed=seed + index, max_terms=args.max_terms, max_dim=args.max_dim
        )
    if kind == "haar_pure":
        return catalog.haar_pure(dims, seed=seed + index, max_dim=args.max_dim)
    raise InputError(f"unknown bench kind {kind!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.kind not in BENCH_KINDS:
        raise InputError(f"unknown bench kind {args.kind!r}; choose from {BENCH_KINDS}")
    if args.count < 1:
        raise InputError(f"count must be >= 1, got {args.count}")

    if args.kind == "werner":
        dims = validate_dims((2, 2), args.max_dim)
        members: list[State] = [
            catalog.werner(float(p)) for p in np.linspace(args.p_start, args.p_stop, args.count)
        ]
    else:
        if args.dims is None:
            raise InputError(f"bench kind {args.kind!r} needs --dims")
        dims = _parse_dims(args.dims)
        if len(dims) < 2:
            raise InputError(f"bench needs at least two particles, got dims {args.dims!r}")
        members = [
            _bench_member(args.kind, dims, args.seed, index, args)
            for index in range(args.count)
        ]

    rank_hits = 0
    ppt_hits = 0
    both = 0
    for state in members:
        n = state.n
        verdict = criteria.entanglement_verdict(state, args.depth, tol)
        rank_detected = verdict.tag == criteria.ENTANGLED
        ppt_detected = any(ppt_minimum(state, (i,)) < -PPT_NEG_TOL for i in range(n))
        rank_hits += rank_detected
        ppt_hits += ppt_detected
        both += rank_detected and ppt_detected

    neither = args.count - rank_hits - ppt_hits + both
    row = [
        args.kind,
        "x".join(str(d) for d in dims),
        str(args.seed),
        str(rank_hits),
        str(ppt_hits),
        str(both),
        str(neither),
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    writer.writerow(row)
    text = buffer.getvalue()
    if args.out:
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
    p.add_argument("--kind", default="haar_pure", choices=catalog.RANDOM_KINDS,
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
