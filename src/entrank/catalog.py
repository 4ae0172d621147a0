"""Named benchmark states and seeded random states.

Randomness comes from numpy's Philox bit generator, which is counter based
and fully specified, keyed as Philox(key=[seed, stream]). Stream splitting:
haar_pure draws from stream 0; product_pure draws particle i from stream i;
mixed_of_rank_r draws weights from stream 0 and component j from stream j
(1-based). The same seed therefore reproduces the same state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt
from typing import Sequence, Union

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_MAX_DIM
from .states import (
    DensityMatrix,
    PureState,
    State,
    mix,
    validate_dims,
)

RANDOM_KINDS = ("haar_pure", "product_pure", "mixed_of_rank_r")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ghz(n: int, d: int = 2, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Equal superposition (1/sqrt(d)) sum_k |k...k> on n particles of dimension d."""
    if n < 2:
        raise InputError(f"ghz needs at least 2 particles, got {n}")
    if d < 2:
        raise InputError(f"ghz needs local dimension >= 2, got {d}")
    dims = validate_dims((d,) * n, max_dim)
    amps = np.zeros(prod(dims), dtype=np.complex128)
    for k in range(d):
        amps[int(np.ravel_multi_index((k,) * n, dims))] = 1.0 / sqrt(d)
    return PureState(dims=dims, amplitudes=amps)


def w(n: int, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Single-excitation superposition (1/sqrt(n)) sum_i |0..1_i..0> on n qubits."""
    if n < 3:
        raise InputError(f"w needs at least 3 qubits, got {n}")
    dims = validate_dims((2,) * n, max_dim)
    amps = np.zeros(2**n, dtype=np.complex128)
    for i in range(n):
        amps[1 << (n - 1 - i)] = 1.0 / sqrt(n)
    return PureState(dims=dims, amplitudes=amps)


def bell() -> PureState:
    """Two-qubit maximally entangled state (|00> + |11>) / sqrt(2)."""
    return ghz(2, 2)


@dataclass(frozen=True)
class WernerSpec:
    """Mixing weight p of the maximally entangled component; F = (3p + 1) / 4."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"werner weight p must lie in [0, 1], got {self.p!r}")

    @property
    def fidelity(self) -> float:
        return (3.0 * self.p + 1.0) / 4.0


def werner(spec: Union[WernerSpec, float]) -> DensityMatrix:
    """Two-qubit mixture p |Phi+><Phi+| + (1 - p) I/4.

    The entangled component is fixed to (|00> + |11>) / sqrt(2); any other
    maximally entangled choice is locally equivalent and yields the same
    rank and partial-transpose behaviour. PPT goes negative exactly for
    p > 1/3 (fidelity above 1/2) while every rank inequality stays satisfied.
    """
    if not isinstance(spec, WernerSpec):
        spec = WernerSpec(float(spec))
    phi = bell()
    proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
    matrix = spec.p * proj + (1.0 - spec.p) * np.eye(4, dtype=np.complex128) / 4.0
    return DensityMatrix(dims=(2, 2), matrix=matrix)


def six_qubit_benchmark() -> PureState:
    """Six-qubit benchmark state with the known factorization {1} | {2,3} | {4,5,6}.

    Equal superposition of |000000>, |000111>, |011000>, |011111> with
    amplitude 1/2 each; identical to |0> x Bell x GHZ3.
    """
    dims = (2,) * 6
    amps = np.zeros(64, dtype=np.complex128)
    for ket in ("000000", "000111", "011000", "011111"):
        amps[int(ket, 2)] = 0.5
    return PureState(dims=dims, amplitudes=amps)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded random-state request.

    kind is one of haar_pure, product_pure, mixed_of_rank_r; rank is the
    number of pure components for the mixed kind.
    """

    dims: tuple[int, ...]
    seed: int
    kind: str = "haar_pure"
    rank: int = 1

    def __post_init__(self) -> None:
        if self.kind not in RANDOM_KINDS:
            raise InputError(f"unknown random kind {self.kind!r}; choose from {RANDOM_KINDS}")
        if self.kind == "mixed_of_rank_r":
            if self.rank < 1 or self.rank > prod(self.dims):
                raise InputError(
                    f"rank must lie in 1..{prod(self.dims)}, got {self.rank}"
                )


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_pure(dims: Sequence[int], seed: int, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Haar-random pure state on the joint space (stream 0)."""
    dims = validate_dims(dims, max_dim)
    return PureState(dims=dims, amplitudes=_haar_vector(prod(dims), generator(seed, 0)))


def product_pure(dims: Sequence[int], seed: int, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Tensor product of per-particle Haar states; particle i uses stream i."""
    dims = validate_dims(dims, max_dim)
    amps = np.array([1.0 + 0.0j])
    for i, d in enumerate(dims):
        amps = np.kron(amps, _haar_vector(d, generator(seed, i)))
    return PureState(dims=dims, amplitudes=amps)


def mixed_of_rank(
    dims: Sequence[int], seed: int, rank: int, max_dim: int = DEFAULT_MAX_DIM
) -> DensityMatrix:
    """Mixture of ``rank`` Haar pure states with random positive weights.

    Weights come from stream 0, component j from stream j; the result has
    numerical rank at most ``rank`` (equality for generic draws).
    """
    dims = validate_dims(dims, max_dim)
    d = prod(dims)
    if rank < 1 or rank > d:
        raise InputError(f"rank must lie in 1..{d}, got {rank}")
    weights = 1.0 - generator(seed, 0).random(rank)
    weights = weights / weights.sum()
    terms = [
        (float(weights[j - 1]), PureState(dims=dims, amplitudes=_haar_vector(d, generator(seed, j))))
        for j in range(1, rank + 1)
    ]
    return mix(terms)


def random_state(spec: RandomSpec, max_dim: int = DEFAULT_MAX_DIM) -> State:
    """Dispatch on spec.kind; deterministic for a fixed spec."""
    if spec.kind == "haar_pure":
        return haar_pure(spec.dims, spec.seed, max_dim)
    if spec.kind == "product_pure":
        return product_pure(spec.dims, spec.seed, max_dim)
    return mixed_of_rank(spec.dims, spec.seed, spec.rank, max_dim)


def separable_mixture(
    dims: Sequence[int], seed: int, max_terms: int = 4, max_dim: int = DEFAULT_MAX_DIM
) -> DensityMatrix:
    """Random convex mixture of 1..max_terms random product pure states.

    Separable by construction, so it must pass every rank inequality; used
    as the soundness workload for the criteria checks. Term j draws its
    particles from streams (j * n + i) of the given seed.
    """
    dims = validate_dims(dims, max_dim)
    if max_terms < 1:
        raise InputError(f"max_terms must be >= 1, got {max_terms}")
    head = generator(seed, 0)
    n_terms = int(head.integers(1, max_terms + 1))
    weights = 1.0 - head.random(n_terms)
    weights = weights / weights.sum()
    n = len(dims)
    terms = []
    for j in range(1, n_terms + 1):
        amps = np.array([1.0 + 0.0j])
        for i, d in enumerate(dims):
            amps = np.kron(amps, _haar_vector(d, generator(seed, j * n + i)))
        terms.append((float(weights[j - 1]), PureState(dims=dims, amplitudes=amps)))
    return mix(terms)
