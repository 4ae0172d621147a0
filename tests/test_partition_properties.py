"""Property tests: a mixture of products across the parts of a random
partition never gets a witness from the lattice over those parts, and the
rank kernel's support form gives the ranks of one dense SVD per subset."""

from itertools import combinations
from math import isqrt, prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entrank.catalog import haar_pure
from entrank.criteria import SEPARABLE_PURE_PRODUCT, check_rank_monotonicity, rank_lattice, verdict
from entrank.linalg import RankTolerance, rank_from_values
from entrank.states import bipartition_spectrum, mix, pure_state, subset_ranks
from oracles import place_parts


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


@st.composite
def sparse_states(draw):
    """A pure state, or a mixture of up to three, on 2 to 6 particles of
    dimension 2 or 3, whose amplitudes are nonzero only on one random pool
    of m basis states with m² < d, so the kernel takes its support form."""
    n = draw(st.integers(2, 6))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    d = prod(dims)
    m = draw(st.integers(1, isqrt(d - 1)))
    terms = draw(st.integers(1, 3))
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
            assert subset_ranks(state, subsets, tol) == expected, tol
