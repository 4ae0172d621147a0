"""Separability and entanglement checks built on reduced-density-matrix ranks.

The core fact: for a separable state, tracing out one more particle can never
increase the rank. The rank lattice collects the ranks of all reduced states
down to a chosen depth; any child whose rank exceeds a parent's is a witness
that the state is entangled. The converse fails (Werner states satisfy every
inequality yet are entangled), so the honest outcome for a mixed state with
no witness is INCONCLUSIVE, never "separable".

The same holds for a state separable across a partition P_1|...|P_k once
each part is taken as one particle: the lattice over unions of parts is the
partition criterion, and ``verdict`` is the one rule that reads a lattice.

For pure states rank arguments are exact: a pure state is entangled iff some
reduced matrix has rank above 1, and fully entangled iff they all do. Both
are readings of ``factorize.factorize_pure``'s partition: some part holds two
or more particles, or the one part holds them all.

Every rank comes from the one kernel ``states.subset_ranks``, called once
per lattice or sweep with all the subsets it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Optional, Sequence

from .errors import EnumerationLimitError, InputError, PartitionError
from .linalg import DEFAULT_TOLERANCE, RankTolerance
from .states import State, normalize_subset, subset_ranks

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
SEPARABLE_PURE_PRODUCT = "SEPARABLE_PURE_PRODUCT"

DEFAULT_MAX_SUBSETS = 100_000


@dataclass(frozen=True)
class RankLattice:
    """Ranks of the reduced states, keyed by the traced-out particle set.

    ``parts`` are the lattice's units: disjoint sorted particle tuples that
    cover every particle, each a single particle unless the lattice was
    built over a partition. ``entries[T]`` is the rank of the state left
    after tracing out the particles in T, a union of 1..max_depth parts,
    listed by the number of parts and then by part order; ``state_rank`` is
    the rank of the full state (nothing traced).
    """

    state_rank: int
    entries: Mapping[tuple[int, ...], int]
    max_depth: int
    parts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Violation:
    """A rank inequality that failed.

    ``child`` and ``parent`` are traced-out sets with child a strict superset
    of parent; ``parent`` None denotes the full state. The two differ by
    exactly one part of the lattice.
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


def default_depth(n: int) -> int:
    """Half the particle count: for pure states the complement symmetry makes
    deeper levels redundant; mixed-state callers may extend up to n - 1."""
    return n // 2


def _check_enumeration(n: int, max_depth: int, max_subsets: int) -> None:
    total = sum(comb(n, k) for k in range(1, max_depth + 1))
    if total > max_subsets:
        raise EnumerationLimitError(
            f"{total} subsets at depth {max_depth} exceed the cap {max_subsets}"
        )


def _partition(parts: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """The parts as sorted tuples in sorted order, checked to be at least two,
    nonempty, disjoint and covering all n particles."""
    norm_parts = sorted(normalize_subset(p, n) for p in parts)
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
    return norm_parts


def rank_lattice(
    state: State,
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    parts: Optional[Sequence[Sequence[int]]] = None,
) -> RankLattice:
    """Ranks of every reduced state with 1..max_depth parts traced out.

    Without ``parts`` each particle is its own part. With them, the lattice
    is the paper's criterion for that partition: each part is taken as one
    particle, so a state separable across the parts has no violation.
    max_depth lies in 1..k − 1 for k parts; a one-particle state has the
    depth-0 lattice, its state rank alone.
    The state rank (the full particle set) and every entry come from one
    ``subset_ranks`` call, which factors the state once.
    """
    n = state.n
    units = [(i,) for i in range(n)] if parts is None else _partition(parts, n)
    k = len(units)
    if max_depth is None:
        max_depth = default_depth(k)
    if not min(1, k - 1) <= max_depth <= k - 1:
        raise InputError(f"max_depth must lie in {min(1, k - 1)}..{k - 1}, got {max_depth}")
    _check_enumeration(k, max_depth, max_subsets)

    traced_sets = [
        tuple(sorted(sum(combo, ())))
        for size in range(1, max_depth + 1)
        for combo in combinations(units, size)
    ]
    kept = [tuple(i for i in range(n) if i not in traced) for traced in traced_sets]
    state_rank, *ranks = subset_ranks(state, [tuple(range(n))] + kept, tol)
    return RankLattice(
        state_rank=state_rank,
        entries=dict(zip(traced_sets, ranks)),
        max_depth=max_depth,
        parts=tuple(units),
    )


def check_rank_monotonicity(lattice: RankLattice) -> list[Violation]:
    """All one-step rank increases in the lattice; empty means no witness.

    Every traced-out set is compared against each set one part smaller (its
    1-level-higher states); a single traced part is compared against the
    full state. A state separable across the parts can never produce a
    violation.
    """
    # A child, a union of parts, holds a part iff it holds the part's first
    # particle; walking the child's particles in order visits its parts in order.
    part_of = {part[0]: part for part in lattice.parts}
    entries = lattice.entries
    violations: list[Violation] = []
    for child, child_rank in entries.items():
        for first in child:
            part = part_of.get(first)
            if part is None:
                continue
            parent = tuple([i for i in child if i not in part])
            parent_rank = entries[parent] if parent else lattice.state_rank
            if child_rank > parent_rank:
                violations.append(
                    Violation(child, parent or None, child_rank, parent_rank)
                )
    return violations


def verdict(lattice: RankLattice) -> Verdict:
    """The one verdict rule: ENTANGLED with witnesses when any rank inequality
    fails, SEPARABLE_PURE_PRODUCT when none does and the state has rank 1
    (a pure product across the lattice's parts), else INCONCLUSIVE.

    The inequalities are necessary for separability but not sufficient, so a
    mixed state is never declared separable here.
    """
    violations = check_rank_monotonicity(lattice)
    if violations:
        return Verdict(tag=ENTANGLED, witnesses=tuple(violations))
    if lattice.state_rank == 1:
        return Verdict(tag=SEPARABLE_PURE_PRODUCT)
    return Verdict(tag=INCONCLUSIVE)


def entanglement_verdict(
    state: State,
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> Verdict:
    """``verdict`` of the state's rank lattice over single particles."""
    return verdict(rank_lattice(state, max_depth, tol, max_subsets))
