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

A subset is an int mask (bit i = particle i) from the enumeration of part
unions (``states.unions``) to the verdict; the entry keys and witnesses are
particle tuples built from the masks.

Every entry of a lattice comes from one ``states.subset_ranks`` call, which
also takes the state rank, except those that ``factorize.product_ranks``
counts from a pure product's blocks: the entries of a large lattice over the
particles of a state with a one-column factor that has split.
The depth and subset budget of every lattice is ``states.lattice_depth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import PartitionError
from .factorize import product_ranks
from .linalg import DEFAULT_TOLERANCE, RankTolerance
from .states import (
    State,
    lattice_depth,
    mask_of,
    normalize_subset,
    particles_of,
    subset_ranks,
    unions,
)

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
SEPARABLE_PURE_PRODUCT = "SEPARABLE_PURE_PRODUCT"


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


def _partition(parts: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """The parts as sorted tuples in sorted order, checked to be at least two,
    nonempty, disjoint and covering all n particles."""
    norm_parts = sorted(normalize_subset(p, n) for p in parts)
    if len(norm_parts) < 2:
        raise PartitionError("a partition needs at least two parts")
    if any(not p for p in norm_parts):
        raise PartitionError("parts must be nonempty")
    seen = 0
    for part in map(mask_of, norm_parts):
        if seen & part:
            raise PartitionError(f"parts overlap at {list(particles_of(seen & part))}")
        seen |= part
    if seen != (1 << n) - 1:
        missing = particles_of(((1 << n) - 1) ^ seen)
        raise PartitionError(f"partition does not cover particles {list(missing)}")
    return norm_parts


def rank_lattice(
    state: State,
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    parts: Optional[Sequence[Sequence[int]]] = None,
) -> RankLattice:
    """Ranks of every reduced state with 1..max_depth parts traced out.

    Without ``parts`` each particle is its own part. With them, the lattice
    is the paper's criterion for that partition: each part is taken as one
    particle, so a state separable across the parts has no violation.
    ``lattice_depth`` sets and checks max_depth: 1..k − 1 for k parts,
    while a one-particle state has the depth-0 lattice, its state rank alone.

    The state is factored once. Over particles, ``factorize.product_ranks``
    counts the entries that a pure product's blocks decide; the state rank
    and every other entry come from one ``subset_ranks`` call.
    """
    n = state.n
    full = (1 << n) - 1
    units = [(i,) for i in range(n)] if parts is None else _partition(parts, n)
    max_depth = lattice_depth(len(units), max_depth)
    traced = unions([mask_of(unit) for unit in units], max_depth)
    state = state.factored(tol)
    ranks = product_ranks(state, traced, tol) if parts is None else [None] * len(traced)
    todo = [k for k, rank in enumerate(ranks) if rank is None]
    state_rank, *direct = subset_ranks(state, [full] + [full ^ traced[k] for k in todo], tol)
    for k, rank in zip(todo, direct):
        ranks[k] = rank
    return RankLattice(
        state_rank=state_rank,
        entries=dict(zip(map(particles_of, traced), ranks)),
        max_depth=max_depth,
        parts=tuple(units),
    )


def check_rank_monotonicity(lattice: RankLattice) -> list[Violation]:
    """All one-step rank increases in the lattice; empty means no witness.

    Every traced-out set is compared against each set one part smaller (its
    1-level-higher states); a single traced part is compared against the
    full state. A state separable across the parts can never produce a
    violation. Each child is compared, as masks, with child ^ part for each
    part it holds, in entry order and then in part order.
    """
    keys = [None, *lattice.entries]
    ranks = [lattice.state_rank, *lattice.entries.values()]
    masks = [0] + [mask_of(key) for key in keys[1:]]
    slot = dict(zip(masks, range(len(masks))))
    parts = [mask_of(part) for part in lattice.parts]
    violations: list[Violation] = []
    for c in range(1, len(masks)):
        for part in parts:
            if masks[c] & part:
                p = slot[masks[c] ^ part]
                if ranks[c] > ranks[p]:
                    violations.append(Violation(keys[c], keys[p], ranks[c], ranks[p]))
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
    state: State, max_depth: Optional[int] = None, tol: RankTolerance = DEFAULT_TOLERANCE
) -> Verdict:
    """``verdict`` of the state's rank lattice over single particles."""
    return verdict(rank_lattice(state, max_depth, tol))
