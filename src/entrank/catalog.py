"""Named benchmark states and seeded random states.

Randomness comes from numpy's Philox bit generator, which is counter based
and fully specified, keyed as Philox(key=[seed, stream]). Stream splitting:
haar_pure draws from stream 0; product_pure draws particle i from stream i;
mixed_of_rank_r draws weights from stream 0 and component j from stream j
(1-based). The same seed therefore reproduces the same state bit for bit.
``generator`` is where every seed becomes a Philox key, so it is the one
check of a seed's range, 0..2^64 − 1. Each constructor checks its own
parameters: ``werner`` its weight, ``mixed_of_rank`` its rank. Product
states are laid out by ``states.tensor_product``.

A constructor call builds one Philox and rekeys it for every (seed, stream)
it draws from; the draws are those of a new generator per key. The ensemble
constructors ``haar_ensemble`` and ``separable_ensemble`` build a member
per seed from that one generator, and ``haar_pure`` and
``separable_mixture`` are their one-member case.
"""

from __future__ import annotations

from math import prod, sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_MAX_DIM
from .states import (
    DensityMatrix,
    PureState,
    mix,
    tensor_product,
    validate_dims,
)


def generator(
    seed: int, stream: int = 0, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair; the seed must lie
    in 0..2^64 − 1, the range of a key word. Given ``rng``, a generator an
    earlier call returned, it rekeys that one in place through the
    documented ``BitGenerator.state`` setter and returns it: the draws are
    those of a new generator, without the entropy-seeded construction of
    one (~12 µs) per key."""
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must lie in 0..{2**64 - 1}, got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    start = np.zeros(4, np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": start, "key": key},
        "buffer": start,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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


def werner(p: float) -> DensityMatrix:
    """Two-qubit mixture p |Phi+><Phi+| + (1 - p) I/4, p in [0, 1]; its
    fidelity with |Phi+> is (3p + 1) / 4.

    The entangled component is fixed to (|00> + |11>) / sqrt(2); any other
    maximally entangled choice is locally equivalent and yields the same
    rank and partial-transpose behaviour. PPT goes negative exactly for
    p > 1/3 (fidelity above 1/2) while every rank inequality stays satisfied.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"werner weight p must lie in [0, 1], got {p!r}")
    phi = bell()
    proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
    matrix = p * proj + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
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


def _haar_vectors(draws: Sequence[np.ndarray]) -> np.ndarray:
    """One Haar-random unit vector per draw x of 2·d standard normals (one
    draw of 2·d is two draws of d in a row): z / ‖z‖ for z = x[:d] + i·x[d:].
    Each row has the bits of a vector built alone; its norm is its own
    ``np.linalg.norm`` call."""
    x = np.array(draws)
    d = x.shape[1] // 2
    z = x[:, :d] + 1j * x[:, d:]
    return z / np.array([np.linalg.norm(row) for row in z])[:, None]


def haar_pure(dims: Sequence[int], seed: int, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Haar-random pure state on the joint space (stream 0)."""
    return haar_ensemble(dims, [seed], max_dim)[0]


def haar_ensemble(
    dims: Sequence[int], seeds: Iterable[int], max_dim: int = DEFAULT_MAX_DIM
) -> list[PureState]:
    """``haar_pure`` of each of ``seeds``, in order, from one Philox; a seed
    out of range raises when its member is reached."""
    dims = validate_dims(dims, max_dim)
    d = prod(dims)
    rng = None
    draws = []
    for seed in seeds:
        rng = generator(seed, 0, rng)
        draws.append(rng.standard_normal(2 * d))
    if not draws:
        return []
    return [PureState(dims=dims, amplitudes=row) for row in _haar_vectors(draws)]


def product_pure(dims: Sequence[int], seed: int, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Tensor product of per-particle Haar states; particle i uses stream i."""
    dims = validate_dims(dims, max_dim)
    rng = None
    vectors = []
    for i, d in enumerate(dims):
        rng = generator(seed, i, rng)
        vectors.append(_haar_vectors([rng.standard_normal(2 * d)])[0])
    return PureState(dims=dims, amplitudes=tensor_product(vectors))


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
    rng = generator(seed, 0)
    weights = 1.0 - rng.random(rank)
    weights = weights / weights.sum()
    draws = [generator(seed, j, rng).standard_normal(2 * d) for j in range(1, rank + 1)]
    return mix([
        (float(weight), PureState(dims=dims, amplitudes=row))
        for weight, row in zip(weights, _haar_vectors(draws))
    ])


def separable_mixture(
    dims: Sequence[int], seed: int, max_terms: int = 4, max_dim: int = DEFAULT_MAX_DIM
) -> DensityMatrix:
    """Random convex mixture of 1..max_terms random product pure states.

    Separable by construction, so it must pass every rank inequality; used
    as the soundness workload for the criteria checks. Term j draws its
    particles from streams (j * n + i) of the given seed.
    """
    return separable_ensemble(dims, [seed], max_terms, max_dim)[0]


def separable_ensemble(
    dims: Sequence[int], seeds: Iterable[int], max_terms: int = 4, max_dim: int = DEFAULT_MAX_DIM
) -> list[DensityMatrix]:
    """``separable_mixture`` of each of ``seeds``, in order, from one Philox;
    a seed out of range raises when its member is reached. Each particle's
    vectors in every term of every member are normalized together, and the
    product vectors are one ``tensor_product`` call; every row has the bits
    of a term built alone."""
    dims = validate_dims(dims, max_dim)
    if max_terms < 1:
        raise InputError(f"max_terms must be >= 1, got {max_terms}")
    n = len(dims)
    rng = None
    weights = []  # per member, the weights of its terms
    draws: list[list[np.ndarray]] = [[] for _ in dims]  # per particle, its draw in every term
    for seed in seeds:
        rng = generator(seed, 0, rng)
        n_terms = int(rng.integers(1, max_terms + 1))
        drawn = 1.0 - rng.random(n_terms)
        weights.append(drawn / drawn.sum())
        for j in range(1, n_terms + 1):
            for i, d in enumerate(dims):
                draws[i].append(generator(seed, j * n + i, rng).standard_normal(2 * d))
    if not weights:
        return []
    products = iter(tensor_product([_haar_vectors(particle) for particle in draws]))
    return [
        mix([(float(w), PureState(dims=dims, amplitudes=next(products))) for w in member])
        for member in weights
    ]
