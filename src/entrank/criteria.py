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

Every rank comes from the one kernel ``states.subset_ranks``. A lattice makes
one call with all the subsets it needs, except a large lattice of a pure
state, which first reads factorize's sweeps (``factorize.sweep_pure``): once
its first sweep splits off nothing, the sweeps hold every cut, and a product
split earlier has its entries counted from its blocks' spectra wherever that
count provably equals the direct one; the call then takes the state rank and
the entries left over.
The depth and subset budget of every lattice is ``states.lattice_depth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import InternalInconsistencyError, PartitionError
from .factorize import RESIDUAL_THRESHOLD, product_factors, sweep_pure
from .linalg import DEFAULT_TOLERANCE, RankTolerance
from .states import (
    CHUNK_BYTES,
    PureState,
    State,
    bipartition_matrix,
    lattice_depth,
    mask_of,
    normalize_subset,
    particles_of,
    pure_cut,
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

    The state is factored once. A lattice over particles of a state with a
    one-column factor V, at depth ≥ n // 2, holds every cut once, 2^(n−1)
    of them with the full set; when they exceed one chunk of the kernel
    (2^(n−1)·‖V‖ > ``CHUNK_BYTES``), the entries are read from factorize's
    sweeps first (``_pure_ranks``). The state rank and every entry not read
    there come from one ``subset_ranks`` call, as every entry of any other
    lattice does.
    """
    n = state.n
    full = (1 << n) - 1
    units = [(i,) for i in range(n)] if parts is None else _partition(parts, n)
    max_depth = lattice_depth(len(units), max_depth)
    traced = unions([mask_of(unit) for unit in units], max_depth)
    state = state.factored(tol)
    v = state.factor
    if parts is None and v.shape[1] == 1 and max_depth >= n // 2 and (
        (1 << (n - 1)) * v.nbytes > CHUNK_BYTES
    ):
        ranks = _pure_ranks(PureState(state.dims, v[:, 0]), traced, tol)
    else:
        ranks = [None] * len(traced)
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


def _pure_ranks(psi: PureState, traced: list[int], tol: RankTolerance) -> list[Optional[int]]:
    """The entries of ψ's lattice, at the traced masks ``traced``, that
    factorize's sweeps decide; None for the others, and for all of them when
    the sweeps fail.

    When the sweeps rank every one of the 2^(n−1) − 1 cuts (their first
    sweep split off nothing), each entry is the rank of its cut, looked up by
    ``pure_cut``. Otherwise ψ has split, and unless the residual exceeds
    ``RESIDUAL_THRESHOLD`` its entries are counted from its blocks' spectra
    (``_product_ranks``).
    """
    full = (1 << psi.n) - 1
    try:
        _, partition, swept = sweep_pure(psi, tol)
        if len(swept) == full >> 1:
            return [swept[pure_cut(t, full)] for t in traced]
        factors, residual = product_factors(psi, partition, tol)
    except InternalInconsistencyError:  # an acceptance the sweeps or the factors contradict
        return [None] * len(traced)
    if residual > RESIDUAL_THRESHOLD:
        return [None] * len(traced)
    return _product_ranks(partition, factors, residual, traced, tol)


def _product_ranks(
    partition: tuple[tuple[int, ...], ...],
    factors: tuple[PureState, ...],
    residual: float,
    traced: list[int],
    tol: RankTolerance,
) -> list[Optional[int]]:
    """Ranks of ψ ≈ e^{iθ}·φ, φ = ⊗_b φ_b over the parts b of ``partition``
    with ``factors`` φ_b, at the traced masks ``traced``, each counted from
    the product of the blocks' spectra where that count is certain, else None.

    Across the cut T | K (traced | kept) the singular values of φ's cut
    matrix are the products over blocks of φ_b's Schmidt coefficients across
    (b ∩ T) | (b ∩ K) (a block on one side gives 1), zero-padded to the
    bound min(d_T, d_K). By Weyl's inequality each singular value of ψ's cut
    matrix lies within Δ = ‖ψ − e^{iθ}φ‖ ≤ residual of the one of the same
    order, and LAPACK returns them to within its backward error, taken as
    4·ε·(d_T + d_K)·(1 + Δ) ≤ 4·ε·(d + 1)·(1 + Δ) for the direct SVD, the
    block SVDs and the products together (d_T·d_K = d, and 1 + Δ ≥ ‖ψ‖
    bounds every singular value). With slack the sum of the two and s_1 the
    top product, the direct count compares
    each computed value with the √ of tol.cutoff at a top value in
    [s_1 − slack, s_1 + slack]. A count is taken when every product, and
    zero, lies more than slack away from that range of thresholds: it then
    equals the direct count, value by value.
    """
    d = prod(factor.dim for factor in factors)
    slack = residual + 4 * np.finfo(float).eps * (d + 1) * (1 + residual)
    masks = np.array(traced, np.int64)
    # Per block, the row of each entry's b ∩ T in the block's spectra.
    rows = [sum(((masks >> i) & 1) << j for j, i in enumerate(part)) for part in partition]
    tables = [_block_spectra(factor) for factor in factors]
    step = max(1, CHUNK_BYTES // (8 * prod(table.shape[1] for table in tables)))
    ranks: list[Optional[int]] = []
    for lo in range(0, len(masks), step):
        values = np.ones((len(masks[lo : lo + step]), 1))
        for table, row in zip(tables, rows):
            block = table[row[lo : lo + step]]
            values = (values[:, :, None] * block[:, None, :]).reshape(len(values), -1)
        top = values[:, :1]
        low = np.sqrt(tol.cutoff(np.maximum(top - slack, 0.0) ** 2))
        high = np.sqrt(tol.cutoff((top + slack) ** 2))
        above = values - slack > high
        certain = (above | (values + slack < low)).all(axis=1) & (slack < low[:, 0])
        ranks += [int(c) if ok else None for c, ok in zip(above.sum(axis=1), certain)]
    return ranks


def _block_spectra(factor: PureState) -> np.ndarray:
    """Row x: the descending Schmidt coefficients of ``factor`` across the
    subset of its particles whose bits are set in x, zero-padded; the empty
    and the full subset give 1. Each cut is decomposed once, from its side
    named by ``pure_cut``, and fills the rows of both sides; the cuts of one
    shape are stacked into chunks of at most ``CHUNK_BYTES``, one SVD each."""
    k, d = factor.n, factor.dim
    full = (1 << k) - 1
    shapes: dict[int, list] = {}
    for x in range(1, full, 2):  # every cut, by its side that holds particle 0
        shapes.setdefault(prod(factor.dims[i] for i in particles_of(x)), []).append(x)
    table = np.zeros((full + 1, max([min(d_x, d // d_x) for d_x in shapes] + [1])))
    table[[0, full], 0] = 1.0
    step = max(1, CHUNK_BYTES // factor.amplitudes.nbytes)
    for members in shapes.values():
        for lo in range(0, len(members), step):
            xs = members[lo : lo + step]
            stack = np.stack([bipartition_matrix(factor, particles_of(x)) for x in xs])
            values = np.linalg.svd(stack, compute_uv=False)
            table[xs + [full ^ x for x in xs], : values.shape[1]] = np.concatenate([values] * 2)
    return table


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
