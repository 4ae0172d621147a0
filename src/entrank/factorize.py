"""Finest tensor-product factorization of a pure state.

The search sweeps subsets of growing size k. A subset whose reduced state is
pure (rank 1) splits off as a tensor factor; everything it leaves behind is
still pure, so the sweep continues on the remainder. A size-k sweep is only
worthwhile while the remainder keeps at least 2k particles: any larger
separable subset is the complement of a smaller one that an earlier sweep
already covered, so when the loop ends the remainder is fully entangled and
no subset is tested twice.

Accepted subsets of one sweep are provably disjoint: an overlap would imply
a smaller separable subset that an earlier sweep would have accepted. This
is asserted at runtime rather than assumed.

The ranks come from ``states.subset_ranks``: one call per size while every
sweep splits off a factor, which shrinks the remainder fast. Once a sweep
splits off nothing, one call takes every remaining size over the remainder,
so that its large cuts certify the small ones (rank inheritance), and every
later sweep, even over a smaller remainder, reads its ranks from that call:
the rank of ψ's reduced state on a subset does not depend on the remainder.
A sweep's subsets are masks, the unions of the remainder's particle bits
(``states.unions``), and a cut's rank is keyed by ``states.pure_cut``.

``_split`` runs the sweeps, the reconstruction and the residual threshold;
``factorize_pure`` adds the budget check and the reading of ψ, and raises
``_split``'s inconsistencies.

The paper treats pure states apart because a pure product's reduced ranks
are products over its blocks. ``product_ranks`` is that fact for
``criteria.rank_lattice``: a large lattice's entries, over particles or
parts, counted from a pure product's blocks wherever the count is certain.
It reads an inconsistency of ``_split`` as "undecided", takes each block's
spectra from one ``states.subset_spectra`` call, so it builds no cut matrix
of its own, and multiplies them by ``states.tensor_product``. Every other
entry comes from the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .errors import InputError, InternalInconsistencyError, PartitionError
from .linalg import DEFAULT_TOLERANCE, RankTolerance, rank_from_values
from .states import (
    CHUNK_BYTES,
    PureState,
    State,
    bipartition_matrix,
    canonical_pure,
    lattice_depth,
    mask_of,
    particles_of,
    pure_cut,
    subset_ranks,
    subset_spectra,
    tensor_product,
    unions,
)

RESIDUAL_THRESHOLD = 1e-8


@dataclass(frozen=True)
class StepRecord:
    """One sweep of the search: subsets of size ``step`` over ``remainder``.

    ``tested`` holds (subset, reduced rank) pairs in enumeration order;
    ``accepted`` the subsets split off as factors.
    """

    step: int
    remainder: tuple[int, ...]
    tested: tuple[tuple[tuple[int, ...], int], ...]
    accepted: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FactorizationResult:
    """Finest product partition of a pure state.

    Parts are disjoint, cover all particles, and are ordered by smallest
    member; ``factors`` holds one normalized pure state per part. Parts of
    two or more particles cannot be split further and are listed in
    ``fully_entangled_parts``. ``residual`` is the Frobenius distance between
    the input projector and the reconstructed tensor product.
    """

    partition: tuple[tuple[int, ...], ...]
    factors: tuple[PureState, ...]
    fully_entangled_parts: tuple[tuple[int, ...], ...]
    residual: float
    trace_log: tuple[StepRecord, ...]


def _top_vector(matrix: np.ndarray, tol: RankTolerance) -> tuple[np.ndarray, int]:
    """The dominant left singular vector of ``matrix`` and the rank of its
    squared singular values at ``tol``."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, 0], rank_from_values(s * s, tol)


def _extract_factor(psi: PureState, part: tuple[int, ...], tol: RankTolerance) -> PureState:
    """Pure state of a factor part, with the global phase canonicalized.

    The factor is the dominant left singular vector of the part-vs-rest
    amplitude matrix; for a genuine factor the second singular value is
    negligible. Rank above 1 here means an earlier acceptance was wrong.
    """
    if len(part) == psi.n:
        vec = psi.amplitudes
    else:
        vec, rank = _top_vector(bipartition_matrix(psi, part), tol)
        if rank != 1:
            raise InternalInconsistencyError(
                f"part {part} accepted as a factor but its reduced state is mixed"
            )
    return canonical_pure([psi.dims[i] for i in part], vec)


def _sweep(remainder: list[int], size: int, tested: list[int], ranks: list[int]) -> StepRecord:
    """One sweep's record: the ``tested`` masks with their ``ranks``, and
    those of rank 1, checked to be disjoint, as accepted."""
    accepted: list[tuple[int, ...]] = []
    taken = 0
    for subset, rank in zip(tested, ranks):
        if rank == 1:
            if taken & subset:
                raise InternalInconsistencyError(
                    f"rank-1 subsets overlap at size {size}:"
                    f" {particles_of(subset)} vs {list(particles_of(taken))}"
                )
            accepted.append(particles_of(subset))
            taken |= subset
    return StepRecord(
        step=size,
        remainder=particles_of(sum(remainder)),
        tested=tuple(zip(map(particles_of, tested), ranks)),
        accepted=tuple(accepted),
    )


def _split(psi: PureState, tol: RankTolerance) -> tuple:
    """ψ's sweeps, its finest product partition (parts ordered by smallest
    member), the normalized factor of each part and the residual of ψ
    against their product: (trace, partition, factors, residual). ψ's
    amplitudes are used as given. An acceptance that the sweeps or the
    factors contradict, and a residual above ``RESIDUAL_THRESHOLD``, raise
    InternalInconsistencyError."""
    full = (1 << psi.n) - 1
    log: list[StepRecord] = []
    parts: list[tuple[int, ...]] = []
    remainder = [1 << i for i in range(psi.n)]  # the remainder's particle bits
    ranks: dict[int, int] = {}
    covered = 0  # the largest size whose subsets of the remainder ``ranks`` holds

    size = 1
    while 2 * size <= len(remainder):
        if size > covered:
            covered = size if not log or log[-1].accepted else len(remainder) // 2
            batch = unions(remainder, covered, size)
            ranks.update(zip([pure_cut(s, full) for s in batch], subset_ranks(psi, batch, tol)))
        tested = unions(remainder, size, size)
        record = _sweep(remainder, size, tested, [ranks[pure_cut(s, full)] for s in tested])
        log.append(record)
        parts += record.accepted
        taken = mask_of(i for subset in record.accepted for i in subset)
        remainder = [bit for bit in remainder if not bit & taken]
        size += 1

    if remainder:
        parts.append(particles_of(sum(remainder)))
    partition = tuple(sorted(parts, key=lambda p: p[0]))
    factors = tuple(_extract_factor(psi, part, tol) for part in partition)
    residual = _reconstruction_residual(psi, partition, factors)
    if residual > RESIDUAL_THRESHOLD:
        raise InternalInconsistencyError(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_THRESHOLD:.1e};"
            " the rank tolerance accepted a non-product cut"
        )
    return tuple(log), partition, factors, residual


def factorize_pure(state: State, tol: RankTolerance = DEFAULT_TOLERANCE) -> FactorizationResult:
    """Split a state of rank 1 into its finest tensor-product partition.

    The sweep budget is checked first, before the state is decomposed. Then
    ψ is the state's factor V (``factored``, which no tolerance enters) when
    V has one column, else V's top left singular vector, with its global
    phase canonicalized; a V of rank above 1 at ``tol`` is an input error.

    Every part of size one is a disentangled particle; every larger part is
    fully entangled (no subset of it has a pure reduced state). The result
    carries the sweep-by-sweep trace and the reconstruction residual; a
    residual above ``RESIDUAL_THRESHOLD`` (1e-8) means the rank tolerance
    accepted a cut that is not actually a product and is reported as an
    internal inconsistency.
    """
    lattice_depth(state.n)
    factor = state.factored().factor
    vec, rank = (factor[:, 0], 1) if factor.shape[1] == 1 else _top_vector(factor, tol)
    if rank != 1:
        raise InputError(
            "factorization handles pure states only;"
            f" this state is a mixture of {rank} components"
        )
    log, partition, factors, residual = _split(canonical_pure(state.dims, vec), tol)
    return FactorizationResult(
        partition=partition,
        factors=factors,
        fully_entangled_parts=tuple(p for p in partition if len(p) >= 2),
        residual=residual,
        trace_log=log,
    )


def product_ranks(state: State, traced: list[int], tol: RankTolerance) -> list[Optional[int]]:
    """The entries, at the traced masks ``traced`` of a lattice over
    particles or parts, that a pure product's blocks decide; None for the
    others, which the lattice takes from the kernel.

    Only a state with a one-column factor V whose traced sets span more than
    one kernel chunk (len(traced)·‖V‖ > ``CHUNK_BYTES``) is tried, and only
    when one probe kernel call over its n single particles finds one of rank
    1, so that ψ = V's column has split. ``_split`` then gives ψ ≈ e^{iθ}·φ,
    φ = ⊗_b φ_b over the parts b of its partition, and unless it raises (an
    acceptance the sweeps or the factors contradict, or a residual above
    ``RESIDUAL_THRESHOLD``), each entry is counted from the product of the
    blocks' spectra where that count is certain.

    Across the cut T | K (traced | kept) the singular values of φ's cut
    matrix are the products over blocks of φ_b's Schmidt coefficients across
    (b ∩ T) | (b ∩ K) (a block on one side gives 1), zero-padded to the
    bound min(d_T, d_K). By Weyl's inequality each singular value of ψ's cut
    matrix lies within Δ = ‖ψ − e^{iθ}φ‖ ≤ residual of the one of the same
    order, and LAPACK returns them to within its backward error, taken as
    4·ε·(d_T + d_K)·(1 + Δ) ≤ 4·ε·(d + 1)·(1 + Δ) for the direct SVD, the
    block SVDs and the products together (d_T·d_K = d, and 1 + Δ ≥ ‖ψ‖
    bounds every singular value). With slack the sum of the two and s_1 the
    top product, the direct count compares each computed value with the √
    of tol.cutoff at a top value in [s_1 − slack, s_1 + slack]. A count is
    taken when every product, and zero, lies more than slack away from that
    range of thresholds: it then equals the direct count, value by value.
    """
    v = state.factored().factor
    undecided: list[Optional[int]] = [None] * len(traced)
    if v.shape[1] != 1 or len(traced) * v.nbytes <= CHUNK_BYTES:
        return undecided
    psi = PureState(state.dims, v[:, 0])
    if 1 not in subset_ranks(psi, [1 << i for i in range(psi.n)], tol):
        return undecided
    try:
        _, partition, factors, residual = _split(psi, tol)
    except InternalInconsistencyError:  # an acceptance or the residual contradicts the product
        return undecided
    slack = residual + 4 * np.finfo(float).eps * (psi.dim + 1) * (1 + residual)
    masks = np.array(traced, np.int64)
    # Per block, the row of each entry's b ∩ T in the block's spectra.
    rows = [sum(((masks >> i) & 1) << j for j, i in enumerate(part)) for part in partition]
    tables = [_block_spectra(factor) for factor in factors]
    step = max(1, CHUNK_BYTES // (8 * prod(table.shape[1] for table in tables)))
    ranks: list[Optional[int]] = []
    for lo in range(0, len(masks), step):
        values = tensor_product([table[row[lo : lo + step]] for table, row in zip(tables, rows)])
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
    and the full subset give 1. One ``subset_spectra`` call decomposes each
    cut once, from its side that holds particle 0, whose row fills the rows
    of both sides."""
    full = (1 << factor.n) - 1
    odd = range(1, full, 2)  # every cut, by its side that holds particle 0
    spectra = subset_spectra(factor, odd)
    table = np.zeros((full + 1, max(map(len, spectra), default=1)))
    table[[0, full], 0] = 1.0
    for x, values in zip(odd, spectra):
        table[[x, full ^ x], : len(values)] = values
    return table


def _reconstruction_residual(
    psi: PureState,
    partition: tuple[tuple[int, ...], ...],
    factors: tuple[PureState, ...],
) -> float:
    flat = [i for part in partition for i in part]
    if sorted(flat) != list(range(psi.n)) or len(factors) != len(partition):
        raise PartitionError("partition does not cover the state's particles exactly")

    rebuilt = tensor_product([factor.amplitudes for factor in factors])
    perm_dims = tuple(psi.dims[i] for i in flat)
    inverse = np.argsort(flat)
    rebuilt = rebuilt.reshape(perm_dims).transpose(inverse).reshape(-1)

    # ‖ψψ† − φφ†‖_F = √(2(1 − |c|²)) with c = ⟨φ|ψ⟩, evaluated without the
    # cancellation in 1 − |c|²: with θ = arg c, ‖ψ − e^{iθ}φ‖² = 2(1 − |c|).
    overlap = complex(np.vdot(rebuilt, psi.amplitudes))
    aligned = np.exp(1j * np.angle(overlap)) * rebuilt
    return float(np.linalg.norm(psi.amplitudes - aligned) * np.sqrt(1.0 + abs(overlap)))
