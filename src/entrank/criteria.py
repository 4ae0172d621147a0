"""Separability and entanglement checks built on reduced-density-matrix ranks.

The core fact: for a separable state, tracing out one more particle can never
increase the rank. The rank lattice collects the ranks of all reduced states
down to a chosen depth; any child whose rank exceeds a parent's is a witness
that the state is entangled. The converse fails (Werner states satisfy every
inequality yet are entangled), so the honest outcome for a mixed state with
no witness is INCONCLUSIVE, never "separable".

The same holds for a state separable across a partition P_1|...|P_k once
each part is taken as one particle: the lattice over unions of parts is the
partition criterion, and ``verdict`` is the one rule that reads a lattice:
a state's verdict over particles or parts is ``verdict(rank_lattice(...))``.

For pure states rank arguments are exact: a pure state is entangled iff some
reduced matrix has rank above 1, and fully entangled iff they all do. Both
are readings of ``factorize.factorize_pure``'s partition: some part holds two
or more particles, or the one part holds them all.

A lattice is arrays from the enumeration of part unions (``states.unions``)
to the verdict: int masks (bit i = particle i) and their ranks, with the
failed inequalities as index pairs into them. The particle tuples of
``entries`` and the ``Violation`` records are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import PartitionError, ShapeError
from .factorize import product_ranks
from .linalg import DEFAULT_TOLERANCE, RankTolerance
from .states import (
    State,
    ensemble_ranks,
    lattice_depth,
    mask_of,
    normalize_subset,
    particles_of,
    unions,
)

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
SEPARABLE_PURE_PRODUCT = "SEPARABLE_PURE_PRODUCT"


@dataclass(frozen=True, eq=False)
class RankLattice:
    """Ranks of the reduced states, held as arrays by slot.

    ``traced`` holds the traced-out sets as int masks (bit i = particle i)
    and ``ranks`` the rank of the state left after tracing each out, both
    int64 arrays. Slot 0 is the full state (mask 0, rank ``state_rank``);
    the entries follow, unions of 1..max_depth parts listed by the number of
    parts and then by part order. ``part_masks`` are the lattice's units,
    single particles unless the lattice was built over a partition.
    ``entries``, built when first read, maps each traced set to its rank.
    """

    traced: np.ndarray
    ranks: np.ndarray
    max_depth: int
    part_masks: tuple[int, ...]

    @property
    def state_rank(self) -> int:
        return int(self.ranks[0])

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(particles_of, self.part_masks))

    @cached_property
    def entries(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(particles_of, self.traced[1:].tolist()), self.ranks[1:].tolist()))

    def __eq__(self, other) -> bool:
        fields = ("traced", "ranks", "max_depth", "part_masks")
        return type(other) is RankLattice and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields
        )


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
    """Outcome tag plus the witnesses that justify an ENTANGLED call.

    ``pairs`` are the failed inequalities of ``lattice`` as (child, parent)
    rows of its slots; ``witnesses`` are their ``Violation`` records, built
    when first read.
    """

    tag: str
    lattice: Optional[RankLattice] = None
    pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    @cached_property
    def witnesses(self) -> tuple[Violation, ...]:
        if not len(self.pairs):
            return ()
        keys, ranks = [None, *self.lattice.entries], self.lattice.ranks.tolist()
        return tuple(
            Violation(keys[c], keys[p], ranks[c], ranks[p]) for c, p in self.pairs.tolist()
        )


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

    The state is factored once. ``factorize.product_ranks`` counts the
    entries that a large lattice of a pure product's blocks decides, over
    particles or parts; the state rank and every other entry come from one
    ``subset_ranks`` call. It is the one-member case of ``ensemble_lattices``.
    """
    return ensemble_lattices([state], max_depth, tol, parts)[0]


def ensemble_lattices(
    states: Sequence[State],
    max_depth: Optional[int] = None,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    parts: Optional[Sequence[Sequence[int]]] = None,
) -> list[RankLattice]:
    """``rank_lattice`` of each of ``states``, which share their number of
    particles, in order. The depth and budget are checked once, before any
    member is factored. The members whose entries all come from the kernel
    (every member but a large pure product's) share one ``ensemble_ranks``
    call, which stacks them by (dims, r)."""
    if not states:
        return []
    n = states[0].n
    if any(state.n != n for state in states):
        raise ShapeError("the members of an ensemble must have the same number of particles")
    full = (1 << n) - 1
    units = [(i,) for i in range(n)] if parts is None else _partition(parts, n)
    max_depth = lattice_depth(len(units), max_depth)
    part_masks = tuple(map(mask_of, units))
    traced = [0, *unions(part_masks, max_depth)]
    states = [state.factored() for state in states]
    ranks = [[None, *product_ranks(state, traced[1:], tol)] for state in states]
    groups: dict[tuple, list[int]] = {}
    for b, row in enumerate(ranks):
        groups.setdefault(tuple(k for k, rank in enumerate(row) if rank is None), []).append(b)
    for todo, members in groups.items():
        kept = [full ^ traced[k] for k in todo]
        for b, row in zip(members, ensemble_ranks([states[b] for b in members], kept, tol)):
            for k, rank in zip(todo, row):
                ranks[b][k] = rank
    traced, ranks = np.array(traced, dtype=np.int64), np.array(ranks, dtype=np.int64)
    traced.flags.writeable = ranks.flags.writeable = False
    return [RankLattice(traced, row, max_depth, part_masks) for row in ranks]


def check_rank_monotonicity(lattice: RankLattice) -> np.ndarray:
    """All one-step rank increases in the lattice as (child, parent) rows of
    its slots; no rows means no witness.

    Every traced-out set is compared against each set one part smaller (its
    1-level-higher states); a single traced part is compared against the
    full state. A state separable across the parts can never produce a
    violation. Each child is compared, as masks, with child ^ part for each
    part it holds, in entry order and then in part order; a table indexed by
    mask gives each parent's slot.
    """
    masks, ranks = lattice.traced, lattice.ranks
    parts = np.array(lattice.part_masks, dtype=np.int64)
    slot = np.zeros(sum(lattice.part_masks) + 1, dtype=np.int64)
    slot[masks] = np.arange(len(masks))
    child, part = np.nonzero(masks[:, None] & parts)
    parent = slot[masks[child] ^ parts[part]]
    hit = ranks[child] > ranks[parent]
    return np.stack((child[hit], parent[hit]), axis=1)


def verdict(lattice: RankLattice) -> Verdict:
    """The one verdict rule: ENTANGLED with witnesses when any rank inequality
    fails, SEPARABLE_PURE_PRODUCT when none does and the state has rank 1
    (a pure product across the lattice's parts), else INCONCLUSIVE.

    The inequalities are necessary for separability but not sufficient, so a
    mixed state is never declared separable here.
    """
    pairs = check_rank_monotonicity(lattice)
    if len(pairs):
        return Verdict(ENTANGLED, lattice, pairs)
    return Verdict(SEPARABLE_PURE_PRODUCT if lattice.state_rank == 1 else INCONCLUSIVE, lattice)
