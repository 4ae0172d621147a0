"""Separability and entanglement checks built on reduced-density-matrix ranks.

The core fact: for a separable state, tracing out one more particle can never
increase the rank. The rank lattice collects the ranks of all reduced states
down to a chosen depth; any child whose rank exceeds a parent's is a witness
that the state is entangled. The converse fails (Werner states satisfy every
inequality yet are entangled), so the honest outcome for a mixed state with
no witness is INCONCLUSIVE, never "separable".

For pure states rank arguments are exact: a pure state is entangled iff some
reduced matrix has rank above 1, and fully entangled iff they all do.

Every rank comes from the one kernel ``states.subset_ranks``, called once
per lattice, pair or sweep with all the subsets it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Optional, Sequence

from .errors import EnumerationLimitError, InputError, PartitionError
from .linalg import DEFAULT_TOLERANCE, RankTolerance
from .states import PureState, State, normalize_subset, subset_ranks

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
SEPARABLE_PURE_PRODUCT = "SEPARABLE_PURE_PRODUCT"

DEFAULT_MAX_SUBSETS = 100_000


@dataclass(frozen=True)
class RankLattice:
    """Ranks of the reduced states, keyed by the traced-out particle set.

    ``entries[T]`` is the rank of the state left after tracing out the
    particles in T; ``state_rank`` is the rank of the full state (empty T).
    """

    state_rank: int
    entries: Mapping[tuple[int, ...], int]
    max_depth: int


@dataclass(frozen=True)
class Violation:
    """A rank inequality that failed.

    ``child`` and ``parent`` are traced-out sets with child a strict superset
    of parent; ``parent`` None denotes the full state. For lattice checks the
    two differ by exactly one particle; partition checks may differ by more.
    """

    child: tuple[int, ...]
    parent: Optional[tuple[int, ...]]
    child_rank: int
    parent_rank: int


@dataclass(frozen=True)
class Verdict:
    """Outcome tag plus the witnesses that justify an ENTANGLED call."""

    tag: str
    witnesses: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class PairVerdict(Verdict):
    """A pair check's verdict with the ranks it compared: (rank of u, rank
    of v, rank of u and v together)."""

    ranks: tuple[int, int, int] = (0, 0, 0)


def default_depth(n: int) -> int:
    """Half the particle count: for pure states the complement symmetry makes
    deeper levels redundant; mixed-state callers may extend up to n - 1."""
    return max(1, n // 2)


def _check_enumeration(n: int, max_depth: int, max_subsets: int) -> None:
    total = sum(comb(n, k) for k in range(1, max_depth + 1))
    if total > max_subsets:
        raise EnumerationLimitError(
            f"{total} subsets at depth {max_depth} exceed the cap {max_subsets}"
        )


def rank_lattice(
    state: State,
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> RankLattice:
    """Ranks of every reduced state with 1..max_depth particles traced out.

    The state rank (the full particle set) and every entry come from one
    ``subset_ranks`` call, which factors the state once.
    """
    n = state.n
    if max_depth is None:
        max_depth = default_depth(n)
    if not 1 <= max_depth <= n - 1:
        raise InputError(f"max_depth must lie in 1..{n - 1}, got {max_depth}")
    _check_enumeration(n, max_depth, max_subsets)

    traced_sets = [t for size in range(1, max_depth + 1) for t in combinations(range(n), size)]
    kept = [tuple(i for i in range(n) if i not in traced) for traced in traced_sets]
    state_rank, *ranks = subset_ranks(state, [tuple(range(n))] + kept, tol)
    return RankLattice(
        state_rank=state_rank, entries=dict(zip(traced_sets, ranks)), max_depth=max_depth
    )


def check_rank_monotonicity(lattice: RankLattice) -> list[Violation]:
    """All one-step rank increases in the lattice; empty means no witness.

    Every traced-out set is compared against each set one particle smaller
    (its 1-level-higher states); size-1 sets are compared against the full
    state. Separable states can never produce a violation.
    """
    violations: list[Violation] = []
    for child in sorted(lattice.entries, key=lambda t: (len(t), t)):
        child_rank = lattice.entries[child]
        if len(child) == 1:
            if child_rank > lattice.state_rank:
                violations.append(
                    Violation(child, None, child_rank, lattice.state_rank)
                )
            continue
        for drop in child:
            parent = tuple(i for i in child if i != drop)
            parent_rank = lattice.entries[parent]
            if child_rank > parent_rank:
                violations.append(Violation(child, parent, child_rank, parent_rank))
    return violations


def entanglement_verdict(
    state: State,
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> Verdict:
    """ENTANGLED with witnesses when any rank inequality fails, else INCONCLUSIVE.

    The inequalities are necessary for separability but not sufficient, so a
    mixed state is never declared separable here.
    """
    lattice = rank_lattice(state, max_depth, tol, max_subsets)
    violations = check_rank_monotonicity(lattice)
    if violations:
        return Verdict(tag=ENTANGLED, witnesses=tuple(violations))
    return Verdict(tag=INCONCLUSIVE)


def check_partition_pair(
    rho: State,
    u: Sequence[int],
    v: Sequence[int],
    tol: RankTolerance = DEFAULT_TOLERANCE,
) -> PairVerdict:
    """Two-part check: if either part's reduced rank exceeds the rank of the
    combined part's reduced state, the two parts are entangled with each other.

    This is weaker than the full lattice scan; a pair can come back
    INCONCLUSIVE even for states the lattice flags (GHZ with singleton parts).
    """
    n = rho.n
    u = normalize_subset(u, n)
    v = normalize_subset(v, n)
    if not u or not v:
        raise PartitionError("both parts must be nonempty")
    if set(u) & set(v):
        raise PartitionError(f"parts overlap: {u} and {v}")

    composite = tuple(sorted(u + v))
    rank_u, rank_v, rank_uv = subset_ranks(rho, (u, v, composite), tol)

    def traced(kept: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        rest = tuple(i for i in range(n) if i not in kept)
        return rest if rest else None

    witnesses = []
    for part, rank_part in ((u, rank_u), (v, rank_v)):
        if rank_part > rank_uv:
            child = traced(part)
            assert child is not None  # a proper part always leaves a complement
            witnesses.append(
                Violation(
                    child=child,
                    parent=traced(composite),
                    child_rank=rank_part,
                    parent_rank=rank_uv,
                )
            )
    tag = ENTANGLED if witnesses else INCONCLUSIVE
    return PairVerdict(tag=tag, witnesses=tuple(witnesses), ranks=(rank_u, rank_v, rank_uv))


def check_partition(
    rho: State,
    parts: Sequence[Sequence[int]],
    tol: RankTolerance = DEFAULT_TOLERANCE,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], PairVerdict]:
    """Pairwise verdicts for a full partition of the particles.

    Parts must be disjoint and cover every particle. Merged-part effects can
    be probed by passing coarser partitions; pairwise checks alone are not
    claimed to exhaust the criterion's strength.
    """
    n = rho.n
    norm_parts = [normalize_subset(p, n) for p in parts]
    if len(norm_parts) < 2:
        raise PartitionError("a partition needs at least two parts")
    if any(not p for p in norm_parts):
        raise PartitionError("parts must be nonempty")
    seen: set[int] = set()
    for p in norm_parts:
        if seen & set(p):
            raise PartitionError(f"parts overlap at {sorted(seen & set(p))}")
        seen |= set(p)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        raise PartitionError(f"partition does not cover particles {missing}")

    rho = rho.factored(tol)
    results: dict[tuple[tuple[int, ...], tuple[int, ...]], PairVerdict] = {}
    for a, b in combinations(sorted(norm_parts), 2):
        results[(a, b)] = check_partition_pair(rho, a, b, tol)
    return results


def overall_verdict(pair_verdicts: Mapping[object, Verdict]) -> Verdict:
    """ENTANGLED when any pair is, carrying all witnesses; else INCONCLUSIVE."""
    witnesses: list[Violation] = []
    for verdict in pair_verdicts.values():
        witnesses.extend(verdict.witnesses)
    if witnesses:
        return Verdict(tag=ENTANGLED, witnesses=tuple(witnesses))
    return Verdict(tag=INCONCLUSIVE)


def pure_entangled(psi: PureState, tol: RankTolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the pure state is entangled across any cut.

    Single particles suffice: if every one-particle reduced state is pure the
    state is a full product, so no larger subset can be mixed either.
    """
    return psi.n > 1 and max(subset_ranks(psi, [(i,) for i in range(psi.n)], tol)) > 1


def pure_fully_entangled(
    psi: PureState,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """True iff every reduced state of the pure state is mixed.

    Only subsets up to half the particles are scanned, one ``subset_ranks``
    call per size; each larger subset shares its rank with its complement.
    """
    n = psi.n
    if n == 1:
        return False
    _check_enumeration(n, n // 2, max_subsets)
    return all(
        min(subset_ranks(psi, combinations(range(n), size), tol)) > 1
        for size in range(1, n // 2 + 1)
    )
