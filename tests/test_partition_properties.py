"""Property tests: a mixture of products across the parts of a random
partition never gets a witness from the lattice over those parts; the
verdict lists a lattice's violations as a brute-force walk over its entries
and parts does, and the entries come in ``combinations`` order over the
parts; the rank kernel's support form, and its dense form in one level and
in levels, give the ranks of one dense SVD per subset; a pure state's reduced
states on S and on its complement have one rank; local unitaries leave every
lattice entry as it is; and factorize returns a planted block partition whose
factors rebuild the state."""

from itertools import combinations
from math import isqrt, prod
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entrank import states
from entrank.catalog import haar_pure
from entrank.criteria import SEPARABLE_PURE_PRODUCT, check_rank_monotonicity, rank_lattice, verdict
from entrank.factorize import factorize_pure
from entrank.linalg import RankTolerance, rank_from_values
from entrank.states import (
    DensityMatrix,
    bipartition_spectrum,
    mix,
    pure_state,
    subset_rank,
    subset_ranks,
)
from oracles import (
    apply_local_unitaries,
    masks,
    monotonicity_oracle,
    place_parts,
    random_unitary,
)


@st.composite
def separable_across_parts(draw):
    """(state, parts): up to three weighted terms, each a product of Haar
    states on the parts of a random partition into two or more parts."""
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    k = draw(st.integers(2, n))
    order = draw(st.permutations(range(n)))
    parts = [tuple(sorted(order[j::k])) for j in range(k)]
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    seed = draw(st.integers(0, 10**6))
    terms = []
    for t, weight in enumerate(weights):
        part_states = [
            haar_pure(tuple(dims[i] for i in part), seed=seed + t * k + j)
            for j, part in enumerate(parts)
        ]
        joint_dims, amplitudes = place_parts(
            [(s.dims, s.amplitudes) for s in part_states], parts
        )
        terms.append((weight / sum(weights), pure_state(joint_dims, amplitudes)))
    state = terms[0][1] if len(terms) == 1 else mix(terms)
    return state, parts


@settings(derandomize=True, deadline=None, max_examples=60)
@given(separable_across_parts())
def test_separable_across_parts_never_gets_a_witness(case):
    state, parts = case
    lattice = rank_lattice(state, len(parts) - 1, parts=parts)
    assert check_rank_monotonicity(lattice) == []
    if lattice.state_rank == 1:
        assert verdict(lattice).tag == SEPARABLE_PURE_PRODUCT


def random_partition(draw, n, least):
    """The particles 0..n − 1 dealt round-robin in a random order into
    ``least``..n parts, each sorted."""
    k = draw(st.integers(least, n))
    order = draw(st.permutations(range(n)))
    return [tuple(sorted(order[j::k])) for j in range(k)]


@st.composite
def small_lattices(draw):
    """The lattice of a pure state or a mixture of two or three Haar states
    on 1 to 5 particles of dimension 2 or 3, over the particles or over a
    random partition, at a random depth."""
    n = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 10**6))
    terms = [haar_pure(dims, seed=seed + j) for j in range(draw(st.integers(1, 3)))]
    state = terms[0] if len(terms) == 1 else mix([(1 / len(terms), t) for t in terms])
    parts = random_partition(draw, n, 2) if n > 2 and draw(st.booleans()) else None
    k = n if parts is None else len(parts)
    return rank_lattice(state, draw(st.integers(min(1, k - 1), k - 1)), parts=parts)


@st.composite
def wide_lattices(draw):
    """The lattice over the particles of a pure state on 9 or 10 qubits, Haar
    or a product of Haar blocks, at a depth of at least n/2: it comes from one
    kernel call, or from its blocks' spectra when a block is one qubit."""
    n = draw(st.integers(9, 10))
    blocks = random_partition(draw, n, 1)
    seed = draw(st.integers(0, 10**6))
    part_states = [haar_pure((2,) * len(b), seed=seed + j) for j, b in enumerate(blocks)]
    dims, amplitudes = place_parts([(s.dims, s.amplitudes) for s in part_states], blocks)
    return rank_lattice(pure_state(dims, amplitudes), draw(st.integers(n // 2, n - 1)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(small_lattices(), wide_lattices()))
def test_violations_are_those_of_the_brute_force_walk_in_its_order(lattice):
    assert check_rank_monotonicity(lattice) == monotonicity_oracle(lattice)
    parts = lattice.parts
    assert list(lattice.entries) == [
        tuple(sorted(i for part in combo for i in part))
        for size in range(1, lattice.max_depth + 1)
        for combo in combinations(parts, size)
    ]


def test_violations_of_one_particle_lattices():
    """Depth 0: the state rank alone and no violation, also for a state
    beyond one kernel chunk, whose empty lattice never reaches the product
    path."""
    rng = np.random.default_rng(7)
    wide = rng.normal(size=70000) + 1j * rng.normal(size=70000)
    for state in (haar_pure((3,), seed=8), pure_state((70000,), wide / np.linalg.norm(wide),
                                                      max_dim=100000)):
        lattice = rank_lattice(state)
        assert (lattice.state_rank, lattice.entries, lattice.max_depth) == (1, {}, 0)
        assert check_rank_monotonicity(lattice) == monotonicity_oracle(lattice) == []


@st.composite
def sparse_states(draw, max_terms=3):
    """A pure state, or a mixture of up to ``max_terms``, on 2 to 6 particles
    of dimension 2 or 3, whose amplitudes are nonzero only on one random pool
    of m basis states with m² < d, so the kernel takes its support form."""
    n = draw(st.integers(2, 6))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    d = prod(dims)
    m = draw(st.integers(1, isqrt(d - 1)))
    terms = draw(st.integers(1, max_terms))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    pool = rng.choice(d, m, replace=False)
    states = []
    for _ in range(terms):
        rows = pool[rng.random(m) < 0.7] if m > 1 else pool
        amps = np.zeros(d, dtype=complex)
        amps[rows] = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        if not amps.any():
            amps[pool[0]] = 1.0
        states.append(pure_state(dims, amps / np.linalg.norm(amps)))
    if terms == 1:
        return states[0]
    weights = rng.random(terms) + 0.1
    return mix([(w / weights.sum(), psi) for w, psi in zip(weights, states)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(sparse_states())
def test_support_form_ranks_are_those_of_one_svd_per_subset(state):
    subsets = [s for k in range(1, state.n + 1) for s in combinations(range(state.n), k)]
    for rtol in (1e-6, 1e-10, 1e-13):
        for atol in (RankTolerance().atol, 0.0):
            tol = RankTolerance(rtol=rtol, atol=atol)
            expected = [rank_from_values(bipartition_spectrum(state, s), tol) for s in subsets]
            assert subset_ranks(state, masks(subsets), tol) == expected, tol


@st.composite
def dense_mixtures(draw):
    """A mixture of 2 to 4 Haar states with random weights, on 2 to 5
    particles of dimension 2 or 3: every row of its factor is nonzero, so the
    kernel takes the dense form."""
    n = draw(st.integers(2, 5))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    rank = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10**6))
    weights = np.random.default_rng(seed).random(rank) + 0.1
    terms = [haar_pure(dims, seed=seed + j) for j in range(rank)]
    return mix([(w / weights.sum(), psi) for w, psi in zip(weights, terms)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dense_mixtures())
def test_dense_form_ranks_are_those_of_one_svd_per_subset(mixture):
    """The mixture with its factor, and the same matrix given bare, which
    gets its factor from one eigh. A 4 kB chunk sends the larger calls
    through levels with rank inheritance; at the default size each call is
    one level."""
    n = mixture.n
    subsets = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    for state in (mixture, DensityMatrix(mixture.dims, mixture.matrix)):
        for rtol in (1e-6, 1e-10, 1e-13):
            for atol in (RankTolerance().atol, 0.0):
                tol = RankTolerance(rtol=rtol, atol=atol)
                factored = state.factored(tol)
                expected = [
                    rank_from_values(bipartition_spectrum(factored, s), tol) for s in subsets
                ]
                for chunk_bytes in (states.CHUNK_BYTES, 4096):
                    with patch.object(states, "CHUNK_BYTES", chunk_bytes):
                        assert subset_ranks(state, masks(subsets), tol) == expected, (tol, chunk_bytes)


@st.composite
def block_products(draw):
    """(state, parts): the product of Haar states on the parts of a random
    partition of 2 to 8 particles, at most four of dimension 3 (d ≤ 1296),
    with the parts ordered by their smallest particle. Every part of two or
    more particles is fully entangled (almost surely)."""
    n = draw(st.integers(2, 8))
    threes = draw(st.sets(st.integers(0, n - 1), max_size=4))
    dims = tuple(3 if i in threes else 2 for i in range(n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    spans = zip([0, *cuts], [*cuts, n])
    parts = sorted((tuple(sorted(order[a:b])) for a, b in spans), key=lambda p: p[0])
    seed = draw(st.integers(0, 10**6))
    blocks = [haar_pure(tuple(dims[i] for i in part), seed=seed + j) for j, part in enumerate(parts)]
    joint_dims, amplitudes = place_parts([(b.dims, b.amplitudes) for b in blocks], parts)
    return pure_state(joint_dims, amplitudes), tuple(parts)


pure_states = st.one_of(block_products().map(lambda case: case[0]), sparse_states(max_terms=1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pure_states)
def test_pure_state_ranks_are_complement_symmetric(psi):
    """S and its complement are taken in two calls, so the kernel's sharing
    of a pure state's complement cuts cannot make them agree. A 4 kB chunk
    sends calls on the larger states through rank inheritance, and both
    calls must give the ranks of one call per subset, which infers nothing."""
    n = psi.n
    with_first = [s for k in range(1, n) for s in combinations(range(n), k) if s[0] == 0]
    complements = [tuple(i for i in range(n) if i not in s) for s in with_first]
    single = [subset_rank(psi, s) for s in with_first]
    for chunk_bytes in (states.CHUNK_BYTES, 4096):
        with patch.object(states, "CHUNK_BYTES", chunk_bytes):
            assert subset_ranks(psi, masks(with_first)) == subset_ranks(psi, masks(complements)) == single


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pure_states, st.integers(0, 10**6))
def test_local_unitaries_leave_lattice_entries_unchanged(psi, seed):
    rng = np.random.default_rng(seed)
    rotated = apply_local_unitaries(psi, [random_unitary(d, rng) for d in psi.dims])
    before = rank_lattice(psi, psi.n - 1)
    after = rank_lattice(rotated, psi.n - 1)
    assert (after.state_rank, after.entries) == (before.state_rank, before.entries)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(block_products())
def test_factorize_recovers_planted_blocks(case):
    psi, parts = case
    result = factorize_pure(psi)
    assert result.partition == parts
    _, amplitudes = place_parts([(f.dims, f.amplitudes) for f in result.factors], parts)
    assert abs(abs(np.vdot(amplitudes, psi.amplitudes)) - 1.0) <= 1e-8
