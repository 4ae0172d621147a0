"""The stacked forms against their one-state cases.

``states.ensemble_ranks`` and ``ensemble_ppt``,
``criteria.ensemble_lattices`` and the catalog's ensemble constructors must
give every member what it gets alone, bit for bit: a stacked LAPACK call
gives each matrix the bits of its own call, the members of a stack keep
their own certified sides, and a rekeyed Philox draws what a new one does.
The one-state PPT reference below makes the 2-D calls that ``ppt_minimum``
made before it took stacks.
"""

from itertools import combinations
from math import prod

import numpy as np
import pytest

from entrank.catalog import (
    generator,
    haar_ensemble,
    haar_pure,
    mixed_of_rank,
    separable_ensemble,
    separable_mixture,
    werner,
)
from entrank.criteria import ensemble_lattices, rank_lattice
from entrank.errors import InputError, ShapeError
from entrank import states as states_module
from entrank.linalg import RankTolerance
from entrank.states import (
    DensityMatrix,
    PureState,
    bipartition_matrix,
    ensemble_ppt,
    ensemble_ranks,
    mix,
    ppt_minimum,
    subset_ranks,
)
from oracles import dense_matrix, haar_vector, partial_transpose

DIMS = [(2, 3, 2), (2, 2, 2, 2), (3, 3), (2,) * 5]
TOLERANCES = [RankTolerance(), RankTolerance(rtol=1e-6), RankTolerance(rtol=0.0, atol=0.0)]


def support_state(dims):
    """(|0…0⟩ + |last⟩)/√2: two nonzero amplitudes, so m² = 4 < d and its
    cuts take the support form."""
    amps = np.zeros(prod(dims), complex)
    amps[[0, -1]] = 1 / np.sqrt(2)
    return PureState(tuple(dims), amps)


def members(dims):
    """Members of rank r = 1..4 interleaved, a separable mixture, and a
    support-form state, all on ``dims``."""
    out = []
    for seed in range(3):
        out.append(haar_pure(dims, seed=40 + seed))
        out += [mixed_of_rank(dims, seed=50 + seed, rank=r) for r in (2, 3, 4)]
        out.append(separable_mixture(dims, seed=60 + seed))
    return out + [support_state(dims)]


def every_mask(n):
    return list(range(1, 1 << n))


def bits(values):
    return [float(value).hex() for value in values]


def ppt_alone(state, part):
    """The PPT value from one 2-D decomposition of the state's factor, as
    before stacking: −s_1·s_2 for r = 1, else the transposed ρ′ = R R†
    (compressed by ``qr`` where d_A·r < d_rest) or V V†."""
    state = state.factored()
    n, d = state.n, state.dim
    part = tuple(sorted(part))
    d_a = prod(state.dims[i] for i in part)
    if d_a * d_a > d:
        part = tuple(i for i in range(n) if i not in part)
        d_a = d // d_a
    r = state.factor.shape[1]
    if r == 1:
        s = np.linalg.svd(bipartition_matrix(state, part), compute_uv=False)
        return 0.0 - float(s[0] * s[1])
    rest = tuple(i for i in range(n) if i not in part)
    compress = d_a * r < d // d_a
    core = bipartition_matrix(state, rest)
    if compress:
        core = np.linalg.qr(core, mode="r")
    k = core.shape[0]
    core = core.reshape(k, d_a, r).transpose(1, 0, 2).reshape(-1, r)
    compressed = DensityMatrix(dims=(d_a, k), matrix=core @ core.conj().T)
    pt = partial_transpose(compressed, (0,))
    value = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
    return min(value, 0.0) if compress else value


@pytest.mark.parametrize("dims", DIMS, ids=lambda dims: "x".join(map(str, dims)))
@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"rtol{t.rtol}-atol{t.atol}")
def test_ensemble_ranks_are_each_members_own(dims, tol):
    """One call over members of r = 1..4: every row is the member's own
    ranks, at a zero cutoff too, where every rounding bit counts."""
    states = members(dims)
    masks = every_mask(len(dims))
    assert ensemble_ranks(states, masks, tol) == [subset_ranks(s, masks, tol) for s in states]


def werner_grid():
    return [werner(float(p)) for p in np.linspace(0.0, 1.0, 31)]


@pytest.mark.parametrize("dims", DIMS, ids=lambda dims: "x".join(map(str, dims)))
def test_ensemble_lattices_are_each_members_own(dims):
    states = members(dims)
    n = len(dims)
    for depth in range(1, n):
        for lattice, state in zip(ensemble_lattices(states, depth), states):
            assert lattice == rank_lattice(state, depth)
    if n >= 3:
        parts = [(0,), tuple(range(1, n))]
        for lattice, state in zip(ensemble_lattices(states, 1, parts=parts), states):
            assert lattice == rank_lattice(state, 1, parts=parts)


def test_werner_grid_lattices_and_ppt_are_each_members_own():
    """p = 0, 1/30, …, 1: rank 4 down to the rank-1 Bell state at p = 1."""
    states = werner_grid()
    assert [lattice.state_rank for lattice in ensemble_lattices(states)] == [4] * 30 + [1]
    assert ensemble_lattices(states) == [rank_lattice(state) for state in states]
    for part in [(0,), (1,)]:
        values = ensemble_ppt(states, part)
        assert bits(values) == bits(ppt_minimum(s, part) for s in states)
        assert bits(values) == bits(ppt_alone(s, part) for s in states)


@pytest.mark.parametrize("dims", DIMS, ids=lambda dims: "x".join(map(str, dims)))
def test_stacked_transpose_is_each_members_own_permutation(dims):
    """The stacked transpose behind the PPT eigensolve gives every member, on
    every proper part, exactly the entries of the oracle's index permutation."""
    states = members(dims)
    matrices = np.stack([dense_matrix(state) for state in states])
    n = len(dims)
    for k in range(1, n):
        for part in combinations(range(n), k):
            stacked = states_module._transposed(dims, matrices, part)
            for got, state in zip(stacked, states):
                assert np.array_equal(got, partial_transpose(state, part)), part


@pytest.mark.parametrize("dims", DIMS, ids=lambda dims: "x".join(map(str, dims)))
def test_ensemble_ppt_is_each_members_own_bit_for_bit(dims):
    """Pure members (one SVD), mixtures that compress (qr and eigvalsh),
    mixtures too wide to (the transposed V V†) and bare matrices (factored
    first), over every proper part, against one 2-D decomposition per
    member."""
    states = members(dims)
    states += [DensityMatrix(dims=s.dims, matrix=s.matrix) for s in states[1:4]]
    n = len(dims)
    for size in range(1, n):
        for part in combinations(range(n), size):
            values = ensemble_ppt(states, part)
            assert bits(values) == bits(ppt_alone(s, part) for s in states), part
            assert bits(values) == bits(ppt_minimum(s, part) for s in states), part


def test_uncompressed_members_of_every_r_share_one_eigvalsh(monkeypatch):
    """On 3x3, members of r = 2, 3, 4 do not compress (d_A·r ≥ d_rest), so
    every ρ′ is d × d whatever r: one stacked eigvalsh takes them all, and
    each value is still the member's own."""
    states = [mixed_of_rank((3, 3), seed=50 + k, rank=r) for k, r in enumerate((2, 3, 4, 2))]
    alone = [ppt_alone(state, (0,)) for state in states]
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    assert bits(ensemble_ppt(states, (0,))) == bits(alone)
    assert shapes == [(4, 9, 9)]


def certifying_stack():
    """Two rank-2 mixtures on three qubits: ``certifies`` is generic, so its
    two-qubit reduced state on {0, 1} has full rank 4 with margin and
    certifies the single particles inside it; ``deficient`` holds particle 0
    in |0⟩, so the same cut has rank 2 and particle 0 rank 1."""
    certifies = mixed_of_rank((2, 2, 2), seed=90, rank=2)
    zero = np.array([1.0, 0.0], complex)
    terms = [
        (w, PureState((2, 2, 2), np.kron(zero, haar_pure((2, 2), seed=91 + j).amplitudes)))
        for j, w in enumerate([0.7, 0.3])
    ]
    return certifies, mix(terms)


def test_a_side_certified_in_one_member_certifies_only_that_members_cuts(monkeypatch):
    certifies, deficient = certifying_stack()
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    masks = [0b011, 0b001]  # {0, 1}, then {0} inside it
    assert ensemble_ranks([certifies, deficient], masks) == [[4, 2], [2, 1]]
    # {0, 1} of both in one stack; then {0} of the deficient member alone.
    assert decomposed == [2, 1]
    assert ensemble_ranks([deficient, certifies], masks) == [[2, 1], [4, 2]]
    assert [subset_ranks(s, masks) for s in (certifies, deficient)] == [[4, 2], [2, 1]]


def test_an_ensemble_of_lattices_shares_its_particle_count():
    with pytest.raises(ShapeError):
        ensemble_lattices([haar_pure((2, 2), seed=1), haar_pure((2, 2, 2), seed=1)])
    assert ensemble_lattices([]) == []


@pytest.mark.parametrize("seed,stream", [(0, 0), (5, 3), (2**64 - 1, 17), (123456789, 0)])
def test_rekeyed_draws_are_those_of_a_new_generator(seed, stream):
    rng = generator(1, 2)
    rng.integers(0, 7, size=3, dtype=np.int32)  # leaves a buffered 32-bit half
    rng.standard_normal(5)
    for fresh, rekeyed in [(generator(seed, stream), generator(seed, stream, rng))]:
        assert rekeyed is rng
        assert fresh.integers(1, 5) == rekeyed.integers(1, 5)
        assert fresh.random(3).tobytes() == rekeyed.random(3).tobytes()
        assert fresh.standard_normal(7).tobytes() == rekeyed.standard_normal(7).tobytes()
        assert fresh.integers(0, 9, size=5, dtype=np.int32).tolist() == rekeyed.integers(
            0, 9, size=5, dtype=np.int32
        ).tolist()


@pytest.mark.parametrize("dims", [(2,), (2, 3, 2), (2,) * 5])
def test_ensemble_constructors_build_each_members_state_bit_for_bit(dims):
    seeds = [0, 7, 2024, 2**64 - 1]
    for psi, seed in zip(haar_ensemble(dims, seeds), seeds):
        assert psi.amplitudes.tobytes() == haar_pure(dims, seed).amplitudes.tobytes()
        want = haar_vector(prod(dims), generator(seed, 0))
        assert psi.amplitudes.tobytes() == want.tobytes()
    for max_terms in (1, 4, 7):
        for rho, seed in zip(separable_ensemble(dims, seeds, max_terms), seeds):
            alone = separable_mixture(dims, seed, max_terms)
            assert rho.factor.tobytes() == alone.factor.tobytes()
            assert rho.matrix.tobytes() == alone.matrix.tobytes()
    assert haar_ensemble(dims, []) == separable_ensemble(dims, []) == []


@pytest.mark.parametrize(
    "seeds,bad",
    [([5, 2**64, -1], 2**64), ([-3, 2**64], -3), ([2**64 - 2, 2**64 - 1, 2**64], 2**64)],
)
def test_an_out_of_range_seed_names_the_first_bad_member(seeds, bad):
    message = rf"^seed must lie in 0\.\.{2**64 - 1}, got {bad}$"
    with pytest.raises(InputError, match=message):
        haar_ensemble((2, 2), seeds)
    with pytest.raises(InputError, match=message):
        separable_ensemble((2, 2), seeds)
