"""Quantum states over arbitrary local dimensions.

Conventions
-----------
Particles are indexed 0-based internally (the CLI layer translates to the
1-based labels used in files and reports). The joint basis index of the
multi-index (i_1, ..., i_N) is sum_k i_k * prod_{l>k} d_l, so particle 0 is
the most significant digit and a ket string like |011⟩ reads left to right.
``tensor_product`` lays out every product of vectors in the package so.

Every state is held as a factor V (d × r) with ρ = V V†: a PureState is the
case r = 1 (V is its amplitude column), a mixture keeps the columns
√w_j·ψ_j of its terms, and a dense matrix gets V from one eigendecomposition
by ``_eigen_factor``, a rule that no rank tolerance enters: ``density_matrix``
applies it to the eigh of its PSD check, ``factored`` to a matrix built
without a factor. The rank of the reduced state of a subset S is then the
rank of V reshaped to (d_S, d_rest·r), the Schmidt rank of the purification
across S | rest+ancilla, and one kernel, ``subset_ranks``, takes every rank
of every state, each subset an int mask (bit i = particle i) as ``unions``
enumerates them (``subset_rank``, its one-subset form, takes particles); the
full mask gives the rank of the state itself. The kernel factors the state once and, for a pure state (r = 1),
computes a subset and its complement once, since they are the same cut,
named by ``pure_cut``.

The kernel takes an ensemble: ``ensemble_ranks`` gives the ranks of many
states at the same masks, and ``subset_ranks`` is its one-member case. The
members that share their dims and rank r are one stack of factors (B, d, r)
with one plan, since a dense plan depends only on (dims, r, masks); each
member keeps its own certified sides, and a member in the support form is a
stack of its own. The plan decides each cut's form (the support form from
the nonzero rows of V, or V reshaped tall) and its level; one loop takes
the levels in decreasing order of their bound, and a cut decomposed at full
rank with margin certifies the cuts below it whose small side lies inside
its own (``subset_ranks`` has the proofs). Each level's undecided cuts of
one shape are stacked into chunks of at most ``CHUNK_BYTES`` with one SVD
each, shared out among one thread per core the CPU affinity allows when a
level spans more than one chunk. A stacked LAPACK call gives each matrix
the bits of its own call, so a member's ranks do not depend on its stack.
``subset_spectra`` runs the same plan with every cut decomposed and returns
the singular values, from which ``rank_from_values`` counts the same ranks.

The partial-transpose baseline ``ppt_minimum`` (an ensemble in
``ensemble_ppt``) reads only V as well. It transposes the smaller side of
the cut: one SVD for r = 1, else one eigensolve of the transposed V V†,
compressed first to ρ's support on the rest where that is smaller (see
``ppt_minimum``). A dense matrix from outside enters through
``density_matrix`` alone, which validates it once.

All operations are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations
from math import comb, prod
from operator import index
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    EnumerationLimitError,
    InputError,
    NormalizationError,
    PartitionError,
    ShapeError,
    SizeLimitError,
)
from .linalg import (
    DEFAULT_MAX_DIM,
    DEFAULT_TOLERANCE,
    RankTolerance,
    as_matrix,
)

NORM_ATOL = 1e-9
DENSITY_ATOL = 1e-9
RESCALE_GUARD = 1e-12
CHUNK_BYTES = 1 << 20
CERTIFY_MARGIN = 100.0
DEFAULT_MAX_SUBSETS = 100_000

SubsetLike = Iterable[int]


def validate_dims(dims: Sequence[int], max_dim: int = DEFAULT_MAX_DIM) -> tuple[int, ...]:
    """Check a vector of local dimensions: each >= 2, product within the limit."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1:
        raise ShapeError("at least one particle is required")
    if any(d < 2 for d in dims):
        raise ShapeError(f"every local dimension must be >= 2, got {dims}")
    total = prod(dims)
    if total > max_dim:
        raise SizeLimitError(f"joint dimension {total} exceeds the maximum {max_dim}")
    return dims


def lattice_depth(k: int, max_depth: Optional[int] = None) -> int:
    """The depth of a lattice over k parts, by default k // 2 (for pure
    states the complement symmetry makes deeper levels redundant). A depth
    outside min(1, k − 1)..k − 1 is an input error; more traced sets than
    ``DEFAULT_MAX_SUBSETS`` is an enumeration limit, raised before any is
    built: the one budget check of every lattice, factorize sweep and
    ``bench``, the subset cap beside ``validate_dims``'s dimension cap."""
    if max_depth is None:
        max_depth = k // 2
    if not min(1, k - 1) <= max_depth <= k - 1:
        raise InputError(f"max_depth must lie in {min(1, k - 1)}..{k - 1}, got {max_depth}")
    total = sum(comb(k, size) for size in range(1, max_depth + 1))
    if total > DEFAULT_MAX_SUBSETS:
        raise EnumerationLimitError(
            f"{total} subsets at depth {max_depth} exceed the cap {DEFAULT_MAX_SUBSETS}"
        )
    return max_depth


def unions(units: Sequence[int], depth: int, least: int = 1) -> list[int]:
    """The unions of ``least``..``depth`` of the disjoint masks ``units``,
    listed by the number of units and then in ``itertools.combinations``
    order: the one enumeration of every lattice and factorize sweep."""
    return [sum(combo) for size in range(least, depth + 1) for combo in combinations(units, size)]


def mask_of(subset: SubsetLike) -> int:
    """The mask of a set of distinct particles: bit i is particle i."""
    return sum(1 << i for i in subset)


def particles_of(mask: int) -> tuple[int, ...]:
    """The particles of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def pure_cut(mask: int, full: int) -> int:
    """The name of a pure state's cut mask | full ^ mask: its side that holds
    particle 0, by which the kernel, the sweeps and the block spectra key it."""
    return mask if mask & 1 else full ^ mask


def normalize_subset(indices: SubsetLike, n: int) -> tuple[int, ...]:
    """Sorted tuple of distinct 0-based particle indices within range."""
    subset = tuple(sorted(int(i) for i in indices))
    if len(set(subset)) != len(subset):
        raise PartitionError(f"duplicate particle indices in {subset}")
    if subset and (subset[0] < 0 or subset[-1] >= n):
        raise PartitionError(f"particle index out of range 0..{n - 1}: {subset}")
    return subset


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the joint basis of ``dims``."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """V = the amplitude column (d × 1)."""
        return self.amplitudes[:, None]

    def factored(self) -> PureState:
        """A pure state carries its factor already."""
        return self


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over the joint basis of ``dims``.

    ``factor`` is V (d × r) with ρ = V V†, from ``density_matrix`` or
    ``mix``; ``factored`` supplies it for a matrix built without one
    (``werner``, ``partial_trace``).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    factor: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def factored(self) -> DensityMatrix:
        """This state with its factor V; a bare matrix gets it from one eigh
        by ``_eigen_factor``, the rule of ``density_matrix``."""
        if self.factor is not None:
            return self
        return replace(self, factor=_eigen_factor(*np.linalg.eigh(self.matrix)))


def _eigen_factor(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The factor V of a Hermitian matrix from its eigh (ascending
    ``values``): the eigenvectors of the eigenvalues λ > d·ε·λ_max, each
    scaled by √λ. That bound is eigh's backward error (LAPACK Users' Guide
    §4.7), so a dropped value cannot be told from zero; a negative one that
    validation accepted goes too. No rank tolerance enters, so one V serves
    every cutoff and the PPT."""
    keep = values > len(values) * np.finfo(values.dtype).eps * values[-1]
    return vectors[:, keep] * np.sqrt(values[keep])


State = Union[PureState, DensityMatrix]


def pure_state(
    dims: Sequence[int],
    amplitudes: np.ndarray,
    max_dim: int = DEFAULT_MAX_DIM,
) -> PureState:
    """Validated PureState constructor; the amplitudes are used as given."""
    dims = validate_dims(dims, max_dim)
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.shape[0] != prod(dims):
        raise ShapeError(
            f"amplitude vector length {amps.shape[0]} does not match dims {dims}"
        )
    if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
        raise ShapeError("amplitudes contain NaN or Inf")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_ATOL:
        raise NormalizationError(f"state vector norm {norm!r} is not 1")
    return PureState(dims=dims, amplitudes=amps)


def canonical_pure(dims: Sequence[int], vec: np.ndarray) -> PureState:
    """PureState along ``vec``: normalized, with the global phase fixed so
    that the largest-magnitude amplitude is real and positive."""
    k = int(np.argmax(np.abs(vec)))
    vec = vec * np.conj(vec[k] / abs(vec[k]))
    return PureState(dims=tuple(dims), amplitudes=vec / np.linalg.norm(vec))


def tensor_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor product of ``factors`` over their last axis, the first
    factor most significant; leading axes are a batch. It multiplies out
    from a seed of ones of the factors' dtype and batch shape, so each entry
    has the bits of the chain ((1 ⊗ a) ⊗ b) ⊗ … from [1], signed zeros too."""
    out = np.ones(factors[0].shape[:-1] + (1,), np.result_type(*factors))
    for factor in factors:
        out = (out[..., :, None] * factor[..., None, :]).reshape(*out.shape[:-1], -1)
    return out


def density_matrix(
    dims: Sequence[int],
    matrix: np.ndarray,
    max_dim: int = DEFAULT_MAX_DIM,
    atol: float = DENSITY_ATOL,
) -> DensityMatrix:
    """Validated DensityMatrix constructor, the one intake for a dense matrix.

    ‖M − M†‖_F must be at most atol·‖M‖_F and the trace within atol of 1. The
    Hermitian part (M + M†)/2 is stored, divided by its trace when that is off
    by more than 1e-12, and must have no eigenvalue below -atol. The eigh of
    that check gives the factor, by ``_eigen_factor``. Operations that
    preserve these invariants by construction build instances directly.
    """
    dims = validate_dims(dims, max_dim)
    mat = as_matrix(matrix)
    d = prod(dims)
    if mat.shape != (d, d):
        raise ShapeError(f"matrix shape {mat.shape} does not match dims {dims}")
    with np.errstate(over="ignore"):  # entries near the float limit give inf, rejected below
        norm = np.linalg.norm(mat)
        defect = np.linalg.norm(mat - mat.conj().T)
        tr = complex(np.trace(mat))
    if defect > atol * max(norm, 1e-300):
        raise NormalizationError("density matrix is not Hermitian within tolerance")
    if abs(tr - 1.0) > atol:
        raise NormalizationError(f"density matrix trace {tr!r} is not 1")
    # The diagonal of (M + M†)/2 is exactly Re M_ii, so its trace is tr.real.
    mat = (mat + mat.conj().T) / 2
    if abs(tr.real - 1.0) > RESCALE_GUARD:
        mat = mat / tr.real
    values, vectors = np.linalg.eigh(mat)
    low = float(values[0])
    if low < -atol:
        raise NormalizationError(f"density matrix has negative eigenvalue {low:.3e}")
    return DensityMatrix(dims=dims, matrix=mat, factor=_eigen_factor(values, vectors))


def mix(terms: Sequence[tuple[float, PureState]], weight_atol: float = 1e-9) -> DensityMatrix:
    """Convex mixture sum_j w_j |psi_j><psi_j| of pure states on shared dims,
    with the factor V = [√w_1·psi_1, ..., √w_r·psi_r]."""
    if not terms:
        raise ShapeError("mixture requires at least one term")
    dims = terms[0][1].dims
    total = 0.0
    for weight, psi in terms:
        if not weight > 0:  # NaN too
            raise NormalizationError(f"mixture weight {weight!r} is not positive")
        if psi.dims != dims:
            raise ShapeError(f"mixture terms disagree on dims: {psi.dims} vs {dims}")
        total += float(weight)
    if not abs(total - 1.0) <= weight_atol:  # an infinite sum too
        raise NormalizationError(f"mixture weights sum to {total!r}, expected 1")
    columns = np.stack([psi.amplitudes for _, psi in terms], axis=1)
    weights = np.array([float(weight) for weight, _ in terms])
    matrix = (columns * weights) @ columns.conj().T
    return DensityMatrix(dims=dims, matrix=matrix, factor=columns * np.sqrt(weights))


def _complement(subset: tuple[int, ...], n: int) -> tuple[int, ...]:
    chosen = set(subset)
    return tuple(i for i in range(n) if i not in chosen)


def partial_trace(rho: DensityMatrix, traced: SubsetLike) -> DensityMatrix:
    """Trace out the particles in ``traced``; survivors keep their order."""
    n = rho.n
    traced = normalize_subset(traced, n)
    if not traced:
        raise PartitionError("nothing to trace out")
    if len(traced) == n:
        raise PartitionError("tracing out every particle leaves no state")
    keep = _complement(traced, n)
    d_keep = prod(rho.dims[i] for i in keep)
    # Row and column axes each ordered kept | traced, then the traced pair summed.
    axes = keep + traced + tuple(n + i for i in keep + traced)
    tensor = rho.matrix.reshape(rho.dims + rho.dims).transpose(axes)
    tensor = tensor.reshape(d_keep, rho.dim // d_keep, d_keep, -1)
    reduced = np.trace(tensor, axis1=1, axis2=3)
    return DensityMatrix(dims=tuple(rho.dims[i] for i in keep), matrix=reduced)


def _transposed_part(part: SubsetLike, n: int) -> tuple[int, ...]:
    part = normalize_subset(part, n)
    if not part:
        raise PartitionError("partial transpose needs a nonempty particle set")
    if len(part) == n:
        raise PartitionError("partial transpose needs a proper subset of particles")
    return part


def _transposed(dims: tuple[int, ...], matrices: np.ndarray, part: tuple[int, ...]) -> np.ndarray:
    """The stack ``matrices`` (B, d, d) over ``dims``, each transposed on ``part``."""
    n, d = len(dims), prod(dims)
    perm = list(range(2 * n))
    for i in part:
        perm[i], perm[n + i] = perm[n + i], perm[i]
    stacked = matrices.reshape((len(matrices),) + dims + dims)
    return stacked.transpose([0] + [axis + 1 for axis in perm]).reshape(-1, d, d)


def ppt_minimum(state: State, part: SubsetLike) -> float:
    """Smallest eigenvalue of ρ transposed on ``part`` = A; negative proves
    entanglement across A | rest (the PPT baseline). It reads only the
    state's factor V (d × r, from ``factored``) and is the one-member case of
    ``ensemble_ppt``.

    When d_A > d_rest the rest is transposed instead: ρ^{T_A} = (ρ^{T_rest})^T
    has the same spectrum, and the smaller side is the one that compresses.
    The value then agrees with the transpose on A to rounding (≤ 1e-14).

    r = 1 needs no eigensolve: for ψ with Schmidt coefficients s_1 ≥ s_2 ≥
    ..., the eigenvalues of ρ^{T_A} are s_i² and ±s_i·s_j for i < j (Vidal &
    Werner, PRA 65, 032314 (2002)), so the value is −s_1·s_2 from one SVD of
    the cut's (d_A, d_rest) matrix, 0 at Schmidt rank 1.

    r > 1 regroups V as W (d_rest × d_A·r). Where d_A·r < d_rest, W = Q R
    compresses it: ρ = (1_A ⊗ Q) ρ′ (1_A ⊗ Q)† for the state ρ′ on A ⊗
    C^{d_A·r} whose factor is R regrouped, and a transpose on A commutes with
    the isometry on the rest. So ρ^{T_A} has the spectrum of ρ′^{T_A} (d_A²·r
    square) plus at least one exact zero, and the value is min(λ_min(ρ′^{T_A}),
    0). Elsewhere ρ′ is V V† itself, d × d. Either way one eigvalsh of the
    symmetrized transpose gives the value.

    Every path agrees with the transpose of V V† to rounding (≤ 1e-14 on
    unit-trace states). A dense matrix's V V† lacks the eigenpairs that
    ``_eigen_factor`` dropped; by Weyl and ‖X^{T_A}‖_op ≤ ‖X‖_F, the value is
    within their eigenvalues' 2-norm of the stored matrix's own.
    """
    return ensemble_ppt([state], part)[0]


def ensemble_ppt(states: Sequence[State], part: SubsetLike) -> list[float]:
    """``ppt_minimum`` of each of ``states`` on ``part``, in order. Each
    member is factored, and the members that share their dims, their
    transposed side and r are one stacked computation: one SVD for r = 1,
    else one eigvalsh, after one ``qr`` where the group compresses. A stacked
    decomposition gives each matrix the bits of its own, so every value is
    the member's own ``ppt_minimum``."""
    part = tuple(part)
    states = [state.factored() for state in states]
    groups: dict[tuple, list[int]] = {}
    for b, state in enumerate(states):
        side = _transposed_part(part, state.n)
        if prod(state.dims[i] for i in side) ** 2 > state.dim:
            side = _complement(side, state.n)
        groups.setdefault((state.dims, side, state.factor.shape[1]), []).append(b)
    out = [0.0] * len(states)
    for (dims, side, r), members in groups.items():
        factors = _stack([states[b].factor for b in members])
        if r == 1:
            s = np.linalg.svd(_cuts(dims, factors, side), compute_uv=False)
            values = (0.0 - s[:, 0] * s[:, 1]).tolist()
        else:
            d_a = prod(dims[i] for i in side)
            w = _cuts(dims, factors, _complement(side, len(dims)))
            compress = d_a * r < w.shape[1]
            core = np.linalg.qr(w, mode="r") if compress else w
            k = core.shape[1]
            core = core.reshape(len(members), k, d_a, r).transpose(0, 2, 1, 3)
            core = core.reshape(len(members), d_a * k, r)
            pt = _transposed((d_a, k), core @ core.conj().swapaxes(1, 2), (0,))
            values = np.linalg.eigvalsh((pt + pt.conj().swapaxes(1, 2)) / 2)[:, 0].tolist()
            if compress:
                values = [min(value, 0.0) for value in values]
        for b, value in zip(members, values):
            out[b] = value
    return out


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` as one stack; a single array is a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def bipartition_matrix(state: State, subset: SubsetLike) -> np.ndarray:
    """The factor V reshaped to (d_subset, d_rest · r) for the cut subset|rest.

    Its squared singular values are the nonzero eigenvalues of the reduced
    state of ``subset``; for the full particle set it is V itself. ``state``
    must carry its factor: a PureState, or the result of ``factored``.
    """
    subset = normalize_subset(subset, state.n)
    if not subset:
        raise PartitionError("subset must be nonempty")
    return _cuts(state.dims, state.factor[None], subset)[0]


def _cuts(dims: tuple[int, ...], factors: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """The stack ``factors`` (B, d, r) over ``dims``, each reshaped to
    (d_subset, d_rest · r) for the cut subset | rest."""
    n = len(dims)
    axes = subset + _complement(subset, n) + (n,)
    tensor = factors.reshape((len(factors),) + dims + factors.shape[-1:])
    d_s = prod(dims[i] for i in subset)
    return tensor.transpose((0,) + tuple(axis + 1 for axis in axes)).reshape(len(factors), d_s, -1)


def bipartition_spectrum(state: State, subset: SubsetLike) -> np.ndarray:
    """Descending eigenvalues of the reduced state of ``subset`` (all but
    zeros beyond min(d_subset, d_rest · r)); for a pure state the complement
    has the same spectrum."""
    s = np.linalg.svd(bipartition_matrix(state, subset), compute_uv=False)
    return s * s


def subset_ranks(
    state: State, masks: Iterable[int], tol: RankTolerance = DEFAULT_TOLERANCE
) -> list[int]:
    """Ranks of the reduced states of the subsets ``masks`` (each in 1..2^n −
    1), in input order; the full mask gives the rank of the state.

    Each rank counts the squared singular values of the factor V reshaped to
    (d_subset, d_rest · r) above tol.cutoff of the largest, as
    ``rank_from_values(bipartition_spectrum(state, subset), tol)`` does. The
    state is factored once. A repeated mask is computed once, and so are a
    pure state's subset and its complement: they are the same cut, keyed and
    built by ``pure_cut``, the side that holds particle 0, whichever side is
    listed, so a cut's rank does not depend on the call it comes from. Each
    cut then gets its plan (``_kernel``, which ``subset_spectra`` shares): the
    matrix that stands for it, its level and the small sides it can certify.
    One loop takes the levels in decreasing order: it gives full rank to each
    cut certified by a side found so far, decomposes the others in stacked
    SVDs (``_decompose``), and records the sides of those that certify. It is
    the one-member case of ``ensemble_ranks``, where the sides a member finds
    certify only that member's cuts.

    Support form. Let m be the number of nonzero rows of V. When m² < d,
    every cut is built from those rows alone: the dense (d_S, d_rest·r)
    matrix has nonzero entries only in the rows of the u ≤ m distinct
    S-digit patterns and the columns of the v ≤ m distinct rest-digit
    patterns (times r) of the support, and dropping all-zero rows and
    columns changes neither M M† on the remaining rows nor M† M on the
    remaining columns, so only exact zero singular values go. s_max, the
    cutoff max(atol, rtol·s_max²) and the count above any positive cutoff are
    therefore unchanged. The u × v·r block is zero-padded into an (m·r, m)
    matrix (transposed, the tall orientation), which m² < d keeps below the
    dense d·r entries, and its exact-zero padding adds no rounding noise, so
    even at a zero cutoff a rank stays within min(u, v·r). The call is one
    level that certifies nothing: full rank on the u-dimensional support of
    ρ_S says nothing about positive definiteness on the full d_S space.

    Rank inheritance. Otherwise each cut is V reshaped in its tall
    orientation (rows ≥ columns: (d_Y, d_S) when d_S < d_Y). Think of it as
    S | Y of the purification Σ_j V[:, j] ⊗ |j⟩, with Y the rest plus the
    r-dimensional ancilla (left out when r = 1); ρ_S and ρ_Y share their
    nonzero spectrum, and the rank is at most the bound min(d_S, d_Y), the
    dimension of the small side. If a cut is decomposed at full rank with
    its smallest kept s² at least ``CERTIFY_MARGIN`` (100) times the cutoff,
    its small side P is positive definite with that margin, and so is every
    reduced state ρ_X of a set X ⊆ P: with T = P ∖ X, ρ_P ⪰ λ·1 gives ρ_X =
    tr_T ρ_P ⪰ d_T·λ·1, and λ_max(ρ_X) ≤ d_T·λ_max(ρ_P), so λ_min(ρ_X) ≥
    100·d_T·max(atol, rtol·λ_max(ρ_P)) ≥ 100·max(atol, rtol·λ_max(ρ_X)). A
    cut with a side X inside such a P therefore takes the full rank dim X,
    its bound, without an SVD, and inherits the margin. A zero cutoff (atol =
    rtol = 0) certifies nothing. X ⊊ P makes the certifier's bound strictly
    larger (every dimension is at least 2), so the levels are the bounds,
    each certified from the levels before it.
    """
    return ensemble_ranks([state], masks, tol)[0]


def ensemble_ranks(
    states: Sequence[State], masks: Iterable[int], tol: RankTolerance = DEFAULT_TOLERANCE
) -> list[list[int]]:
    """``subset_ranks`` of each of ``states`` at the same ``masks``, in
    order: each member is factored, and the members of one (dims, r) run as
    one stack through one plan (``_ensemble``). A stacked SVD gives each
    matrix the bits of its own, and a member's certified sides certify only
    its own cuts, so every row is the member's own ``subset_ranks``."""
    return _ensemble([state.factored() for state in states], masks, partial(_counts, tol))


def subset_spectra(state: State, masks: Iterable[int]) -> list[np.ndarray]:
    """The descending singular values of each cut of ``masks``, in input
    order, from ``subset_ranks``'s plan and stacked SVDs with every cut
    decomposed: ``rank_from_values(s * s, tol)`` of a row is its rank at
    ``tol``. ``state`` must carry its factor. A row is the spectrum of the
    plan's matrix (min(d_S, d_rest·r) values, or m in the support form): the
    cut's nonzero singular values, then zeros to rounding."""
    return _ensemble([state], masks, lambda s: [(row, False) for row in s])[0]


def _ensemble(states: Sequence[State], masks: Iterable[int], reduce) -> list[list]:
    """``_kernel``'s results for each of ``states`` (each carrying its
    factor), in order. The members in the dense form that share their dims
    and rank r are one stack of factors (B, d, r) and one ``_kernel`` call; a
    member in the support form (m² < d) is a call of its own."""
    masks = list(map(index, masks))
    groups: dict[tuple, list[int]] = {}
    for b, state in enumerate(states):
        d, r = state.factor.shape
        m = np.count_nonzero(state.factor.any(axis=1))
        groups.setdefault((state.dims, r) if m * m >= d else (state.dims, r, b), []).append(b)
    out: list = [None] * len(states)
    for members in groups.values():
        factors = _stack([states[b].factor for b in members])
        for b, row in zip(members, _kernel(states[members[0]].dims, factors, masks, reduce)):
            out[b] = row
    return out


def _kernel(dims: tuple[int, ...], factors: np.ndarray, masks: list[int], reduce) -> list[list]:
    """``reduce``'s results (see ``_decompose``) for the cuts of ``masks`` in
    each member of the stack ``factors`` (B, d, r) over ``dims``, in input
    order, by the plan and level loop of ``subset_ranks``; a certified cut's
    result is its bound. One plan serves the stack: the member index is one
    more axis of ``fill``, and a side certified in one member certifies only
    that member's cuts. One member alone may take the support form."""
    n = len(dims)
    count, d, r = factors.shape
    full = (1 << n) - 1
    for mask in masks:
        if not 0 < mask <= full:
            raise PartitionError(f"subset mask {mask} lies outside 1..{full}")
    keys = masks if r > 1 else [pure_cut(mask, full) for mask in masks]
    cuts = list(dict.fromkeys(keys))  # the mask of the side each cut is built from
    slot = dict(zip(cuts, range(len(cuts))))

    # The plan: per cut ((rows, shape), fill item, level, small sides it
    # certifies), with sides as bit masks over the n particles and the
    # ancilla (bit n).
    support = np.flatnonzero(factors[0].any(axis=1))
    m = len(support)
    if count == 1 and m * m < d:
        fill, size = _support_fill(dims, factors[0], support), m * m * r
        plan = [((m * r, (m * r, m)), mask, 0, ()) for mask in cuts]
    else:
        # The ancilla axis n, which a pure state's tensor leaves out, so that
        # both sides of its cut give the same shape; axis 0 is the member.
        anc = (n,) if r > 1 else ()
        tensor = factors.reshape((count,) + dims + (r,) * len(anc))
        tensors = list(tensor)  # one per member

        def fill(stack: np.ndarray, batch: list) -> None:
            for j, (_, axes, b, _) in enumerate(batch):
                stack[j] = tensors[b].transpose(axes)

        size, plan = d * r, []
        ancilla = (1 << n) if r > 1 else 0
        for mask in cuts:
            subset, rest = particles_of(mask), particles_of(full ^ mask)
            d_s = prod(map(dims.__getitem__, subset))
            d_y = d // d_s * r
            axes, rows = (rest + anc + subset, d_y) if d_s < d_y else (subset + rest + anc, d_s)
            shape = tuple(map(tensors[0].shape.__getitem__, axes))
            other = (full ^ mask) | ancilla
            sides = (mask,) if d_s < d_y else (other,) if d_y < d_s else (mask, other)
            plan.append(((rows, shape), axes, min(d_s, d_y), sides))

    out = [[None] * len(plan) for _ in range(count)]
    step = min(len(plan) * count, max(1, CHUNK_BYTES // (size * factors.itemsize)))
    buffers = [np.empty(step * size, factors.dtype)]
    levels: dict[int, list[int]] = {}
    for k, entry in enumerate(plan):
        levels.setdefault(entry[2], []).append(k)
    # Per member, the small sides it has found positive definite with margin.
    definite: list[list[int]] = [[] for _ in range(count)]
    for bound in sorted(levels, reverse=True):
        todo = levels[bound]
        # The members that have found the same sides share one containment test.
        alike: dict[tuple, list[int]] = {}
        for b, found in enumerate(definite):
            alike.setdefault(tuple(found), []).append(b)
        batch = []  # ((rows, shape), fill item, member, cut) of each cut left to decompose
        for found, members in alike.items():
            left = todo
            if found:
                cut_sides = [(k, side) for k in todo for side in plan[k][3]]
                sides = np.array([side for _, side in cut_sides], np.uint64)
                inside = _contained(sides, np.array(found, np.uint64))
                certified = {k for (k, _), hit in zip(cut_sides, inside) if hit}
                left = [k for k in todo if k not in certified]
                for b in members:
                    for k in certified:
                        out[b][k] = bound
            for b in members:
                batch += [(plan[k][0], plan[k][1], b, k) for k in left]
        results = _decompose(batch, fill, step, buffers, reduce)
        for (_, _, b, k), (result, certifies) in zip(batch, results):
            out[b][k] = result
            if certifies:
                definite[b] += plan[k][3]
    return [[row[slot[key]] for key in keys] for row in out]


def _support_fill(dims: tuple[int, ...], v: np.ndarray, support: np.ndarray):
    """The support form's ``fill``: from the m nonzero rows ``support`` of
    the factor V over ``dims``, it writes the cut S | rest of each batch
    entry's subset mask (of the one member) as an (m·r, m) matrix. Column a holds the support rows with the a-th smallest
    distinct S-digit pattern, rows b·r .. b·r + r − 1 those with the b-th
    smallest distinct rest-digit pattern, and the rest is zero: the
    transpose of the dense (d_S, d_rest·r) cut with its all-zero rows and
    columns dropped and zeros padded on after the others.
    """
    v = v[support]
    m, r = v.shape
    n, d = len(dims), prod(dims)
    # place[i, k]: particle i's digit in support row k times its place value
    # in the joint index, so row k's S-pattern key is the sum over i in S and
    # its rest-pattern key the joint index minus that.
    place = np.array(np.unravel_index(support, dims)) * np.array(
        [d // prod(dims[: i + 1]) for i in range(n)]
    )[:, None]
    shifts = np.arange(n)
    ancilla = np.arange(r)

    def fill(stack: np.ndarray, batch: list) -> None:
        masks = np.array([entry[1] for entry in batch])
        keys = ((masks[:, None] >> shifts) & 1) @ place
        cols = _ordinals(keys, d)
        rows = _ordinals(support - keys, d) * r
        stack.fill(0)
        stack[np.arange(len(masks))[:, None, None], rows[:, :, None] + ancilla, cols[:, :, None]] = v

    return fill


def _ordinals(keys: np.ndarray, bound: int) -> np.ndarray:
    """For each row of ``keys`` (each in [0, bound)), the ordinal of each key
    among the row's distinct keys in increasing order."""
    c, m = keys.shape
    row = np.arange(c)[:, None]
    ordered = np.sort(keys, axis=1)
    ordinal = np.zeros((c, m), np.intp)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ordinal[:, 1:])
    first = np.searchsorted((ordered + row * bound).ravel(), (keys + row * bound).ravel())
    return ordinal.ravel()[first].reshape(c, m)


def _contained(masks: np.ndarray, supersets: np.ndarray) -> np.ndarray:
    """For each mask, whether it is a subset of one of ``supersets``; the
    comparison table is built in blocks of at most ``CHUNK_BYTES`` / 8."""
    out = np.zeros(len(masks), bool)
    if supersets.size:
        outside = ~supersets
        rows = max(1, CHUNK_BYTES // (64 * supersets.size))
        for lo in range(0, len(masks), rows):
            out[lo : lo + rows] = ((masks[lo : lo + rows, None] & outside) == 0).any(axis=1)
    return out


def _decompose(batch: list, fill, step: int, buffers: list, reduce) -> list:
    """The result of each cut of ``batch``, in order: entries whose first
    item is the cut's (rows, shape), the rest what ``fill`` reads.

    The cuts are grouped by (rows, shape) and stacked into chunks of at most
    ``step`` matrices with one SVD each; ``fill(stack, entries)`` writes a
    chunk's matrices into a stack of that shape, and ``reduce`` turns the
    chunk's singular values, one descending row per matrix, into a (result,
    certifies) pair per matrix: ``_counts`` for ranks, the rows for spectra.
    Work beyond one chunk is split into interleaved shares, one thread per
    core the process may use, while this thread waits (with it taking a
    share, two threads ran the stacked SVDs no faster than one). Each share
    reuses a stack buffer of ``step`` matrices from ``buffers``, which the
    caller seeds with one, keeps for all its batches, and which grows to one
    per thread: memory a worker thread allocated would stay in its own heap,
    which nothing else reuses, and add to the process's peak.
    """
    groups: dict[tuple, list] = {}
    for j, entry in enumerate(batch):
        groups.setdefault(entry[0], []).append((j, entry))
    chunks = [
        (key, members[lo : lo + step])
        for key, members in groups.items()
        for lo in range(0, len(members), step)
    ]
    workers = min(len(chunks), _workers()) if len(batch) > step else 1
    while len(buffers) < workers:
        buffers.append(np.empty_like(buffers[0]))
    shares: list = [None] * workers

    def share(k: int) -> None:
        try:
            shares[k] = [_decompose_chunk(c, fill, buffers[k], reduce) for c in chunks[k::workers]]
        except Exception as exc:  # raised below, after every thread has ended
            shares[k] = exc

    if workers == 1:
        share(0)
    else:
        threads = [threading.Thread(target=share, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    out: list = [None] * len(batch)
    for k, results in enumerate(shares):
        if isinstance(results, Exception):
            raise results
        for (_, members), chunk_results in zip(chunks[k::workers], results):
            for (j, _), result in zip(members, chunk_results):
                out[j] = result
    return out


def _decompose_chunk(chunk: tuple, fill, buffer: np.ndarray, reduce) -> list:
    """``reduce`` of one chunk's singular values: its cuts written by ``fill``
    into ``buffer`` as one stack of (rows, rest) matrices, and one SVD."""
    (rows, shape), members = chunk
    stack = buffer[: len(members) * prod(shape)].reshape((len(members),) + shape)
    fill(stack, [entry for _, entry in members])
    return reduce(np.linalg.svd(stack.reshape(len(members), rows, -1), compute_uv=False))


def _counts(tol: RankTolerance, s: np.ndarray) -> list[tuple[int, bool]]:
    """(rank, certifies) of each row of singular values ``s``: the count of
    s² above tol.cutoff of the largest, and whether the row is at full rank
    with its smallest s² at least ``CERTIFY_MARGIN`` times a positive cutoff."""
    s2 = s * s
    cutoff = tol.cutoff(s2[:, 0])
    counts = (s2 > cutoff[:, None]).sum(axis=1)
    certifies = (s2[:, -1] >= CERTIFY_MARGIN * cutoff) & (cutoff > 0)
    return list(zip(counts.tolist(), certifies.tolist()))


def subset_rank(
    state: State, subset: SubsetLike, tol: RankTolerance = DEFAULT_TOLERANCE
) -> int:
    """Rank of the reduced density matrix of the particles ``subset``
    (``subset_ranks`` of their mask)."""
    return subset_ranks(state, [mask_of(normalize_subset(subset, state.n))], tol)[0]


def _workers() -> int:
    """Cores this process may run on: its CPU affinity, which taskset limits."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
