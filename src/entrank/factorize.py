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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .criteria import DEFAULT_MAX_SUBSETS, _check_enumeration
from .errors import InternalInconsistencyError, PartitionError
from .linalg import DEFAULT_TOLERANCE, RankTolerance, rank_from_values
from .states import PureState, bipartition_matrix, canonical_pure, subset_ranks

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


def _extract_factor(psi: PureState, part: tuple[int, ...], tol: RankTolerance) -> PureState:
    """Pure state of a factor part, with the global phase canonicalized.

    The factor is the dominant left singular vector of the part-vs-rest
    amplitude matrix; for a genuine factor the second singular value is
    negligible. Rank above 1 here means an earlier acceptance was wrong.
    """
    if len(part) == psi.n:
        vec = psi.amplitudes
    else:
        m = bipartition_matrix(psi, part)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        if rank_from_values(s * s, tol) != 1:
            raise InternalInconsistencyError(
                f"part {part} accepted as a factor but its reduced state is mixed"
            )
        vec = u[:, 0]
    return canonical_pure([psi.dims[i] for i in part], vec)


def _sweep(
    psi: PureState,
    remainder: list[int],
    size: int,
    tol: RankTolerance,
) -> StepRecord:
    subsets = list(combinations(remainder, size))
    tested = tuple(zip(subsets, subset_ranks(psi, subsets, tol)))
    accepted: list[tuple[int, ...]] = []
    taken: set[int] = set()
    for subset, rank in tested:
        if rank == 1:
            if taken & set(subset):
                raise InternalInconsistencyError(
                    f"rank-1 subsets overlap at size {size}: {subset} vs {sorted(taken)}"
                )
            accepted.append(subset)
            taken |= set(subset)
    return StepRecord(
        step=size,
        remainder=tuple(remainder),
        tested=tested,
        accepted=tuple(accepted),
    )


def factorize_pure(
    psi: PureState,
    tol: RankTolerance = DEFAULT_TOLERANCE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> FactorizationResult:
    """Split a pure state into its finest tensor-product partition.

    Every part of size one is a disentangled particle; every larger part is
    fully entangled (no subset of it has a pure reduced state). The result
    carries the sweep-by-sweep trace and the reconstruction residual; a
    residual above ``RESIDUAL_THRESHOLD`` (1e-8) means the rank tolerance
    accepted a cut that is not actually a product and is reported as an
    internal inconsistency.
    """
    n = psi.n
    _check_enumeration(n, n // 2, max_subsets)

    log: list[StepRecord] = []
    parts: list[tuple[int, ...]] = []
    remainder = list(range(n))

    size = 1
    while 2 * size <= len(remainder):
        record = _sweep(psi, remainder, size, tol)
        log.append(record)
        for subset in record.accepted:
            parts.append(subset)
            remainder = [i for i in remainder if i not in set(subset)]
        size += 1

    if remainder:
        parts.append(tuple(remainder))
    parts.sort(key=lambda p: p[0])

    factors = tuple(_extract_factor(psi, part, tol) for part in parts)
    fully_entangled = tuple(p for p in parts if len(p) >= 2)
    residual = _reconstruction_residual(psi, tuple(parts), factors)
    if residual > RESIDUAL_THRESHOLD:
        raise InternalInconsistencyError(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_THRESHOLD:.1e};"
            " the rank tolerance accepted a non-product cut"
        )

    return FactorizationResult(
        partition=tuple(parts),
        factors=factors,
        fully_entangled_parts=fully_entangled,
        residual=residual,
        trace_log=tuple(log),
    )


def _reconstruction_residual(
    psi: PureState,
    partition: tuple[tuple[int, ...], ...],
    factors: tuple[PureState, ...],
) -> float:
    flat = [i for part in partition for i in part]
    if sorted(flat) != list(range(psi.n)) or len(factors) != len(partition):
        raise PartitionError("partition does not cover the state's particles exactly")

    rebuilt = np.array([1.0 + 0.0j])
    for factor in factors:
        rebuilt = np.kron(rebuilt, factor.amplitudes)

    perm_dims = tuple(psi.dims[i] for i in flat)
    inverse = np.argsort(flat)
    rebuilt = rebuilt.reshape(perm_dims).transpose(inverse).reshape(-1)

    # ‖ψψ† − φφ†‖_F = √(2(1 − |c|²)) with c = ⟨φ|ψ⟩, evaluated without the
    # cancellation in 1 − |c|²: with θ = arg c, ‖ψ − e^{iθ}φ‖² = 2(1 − |c|).
    overlap = complex(np.vdot(rebuilt, psi.amplitudes))
    aligned = np.exp(1j * np.angle(overlap)) * rebuilt
    return float(np.linalg.norm(psi.amplitudes - aligned) * np.sqrt(1.0 + abs(overlap)))
