"""Property test of the partition criterion: a mixture of products across
the parts of a random partition never gets a witness from the lattice over
those parts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from entrank.catalog import haar_pure
from entrank.criteria import SEPARABLE_PURE_PRODUCT, check_rank_monotonicity, rank_lattice, verdict
from entrank.states import mix, pure_state
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
