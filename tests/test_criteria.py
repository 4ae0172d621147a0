
import numpy as np
import pytest

from entrank.catalog import (
    bell,
    ghz,
    haar_pure,
    mixed_of_rank,
    product_pure,
    separable_mixture,
    six_qubit_benchmark,
    w,
    werner,
)
from entrank.criteria import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE_PURE_PRODUCT,
    Verdict,
    Violation,
    check_rank_monotonicity,
    entanglement_verdict,
    rank_lattice,
    verdict,
)
from entrank.errors import EnumerationLimitError, InputError, PartitionError
from entrank.factorize import factorize_pure
from entrank.states import (
    DensityMatrix,
    PureState,
    density_from_pure,
    density_matrix,
    mix,
    pure_state,
)
from oracles import partition_lattice_oracle, place_parts, tensor_pure


def pure_entangled(psi):
    """Some part of the pure state's finest product partition holds two or
    more particles."""
    return any(len(part) > 1 for part in factorize_pure(psi).partition)


def pure_fully_entangled(psi):
    """The finest product partition of a pure state of two or more particles
    is a single part."""
    return psi.n > 1 and len(factorize_pure(psi).partition) == 1



def qutrit_rank2_mixture():
    """Equal mixture of two orthogonal maximally entangled two-qutrit states."""
    omega = np.exp(2j * np.pi / 3)
    a = np.zeros(9, dtype=complex)
    b = np.zeros(9, dtype=complex)
    for k in range(3):
        a[k * 3 + k] = 1 / np.sqrt(3)
        b[k * 3 + k] = omega**k / np.sqrt(3)
    return mix([(0.5, pure_state((3, 3), a)), (0.5, pure_state((3, 3), b))])


# ----------------------------------------------------------- rank lattice


def test_lattice_product_state_all_ones():
    lattice = rank_lattice(product_pure((2, 2, 2), seed=1), 2)
    assert lattice.state_rank == 1
    assert set(lattice.entries.values()) == {1}
    assert len(lattice.entries) == 6


def test_lattice_ghz3_depth2():
    lattice = rank_lattice(ghz(3, 2), 2)
    assert lattice.state_rank == 1
    assert len(lattice.entries) == 6
    assert all(rank == 2 for rank in lattice.entries.values())


def test_lattice_werner_depth1():
    lattice = rank_lattice(werner(0.6), 1)
    assert lattice.state_rank == 4
    assert lattice.entries == {(0,): 2, (1,): 2}


def test_lattice_depth_bounds():
    with pytest.raises(InputError):
        rank_lattice(bell(), 2)
    with pytest.raises(InputError):
        rank_lattice(bell(), 0)


def test_one_particle_lattice_is_its_state_rank():
    """One part allows depth 0 alone, the default; two parts keep 1..1."""
    mixed = density_matrix((2,), np.eye(2) / 2)
    lattice = rank_lattice(mixed)
    assert (lattice.state_rank, lattice.entries, lattice.max_depth) == (2, {}, 0)
    assert verdict(lattice).tag == INCONCLUSIVE
    assert verdict(rank_lattice(haar_pure((3,), seed=5), 0)).tag == SEPARABLE_PURE_PRODUCT
    with pytest.raises(InputError, match=r"0\.\.0, got 1"):
        rank_lattice(mixed, 1)
    with pytest.raises(InputError, match=r"1\.\.1, got 0"):
        rank_lattice(bell(), 0)


def test_lattice_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        rank_lattice(haar_pure((2,) * 8, seed=2), 4, max_subsets=10)


def test_lattice_pure_and_density_paths_agree():
    psi = haar_pure((2, 3, 2), seed=3)
    via_psi = rank_lattice(psi, 2)
    via_rho = rank_lattice(density_from_pure(psi), 2)
    bare = DensityMatrix(dims=psi.dims, matrix=density_from_pure(psi).matrix)
    via_matrix = rank_lattice(bare, 2)
    assert via_psi.entries == via_rho.entries == via_matrix.entries
    assert via_psi.state_rank == via_rho.state_rank == via_matrix.state_rank == 1


# ---------------------------------------------------------- check_rank_monotonicity


def test_check_rank_monotonicity_product_state_empty():
    assert check_rank_monotonicity(rank_lattice(product_pure((2, 2, 2), seed=4), 2)) == []


def test_check_rank_monotonicity_ghz3_flags_single_trace():
    violations = check_rank_monotonicity(rank_lattice(ghz(3, 2), 2))
    assert any(
        v.child == (0,) and v.parent is None and v.child_rank == 2 and v.parent_rank == 1
        for v in violations
    )


def test_check_rank_monotonicity_werner_empty():
    assert check_rank_monotonicity(rank_lattice(werner(0.6), 1)) == []


# ----------------------------------------------------- entanglement_verdict


def test_verdict_qutrit_mixture_entangled():
    verdict = entanglement_verdict(qutrit_rank2_mixture(), 1)
    assert verdict.tag == ENTANGLED
    assert any(v.child_rank == 3 and v.parent_rank == 2 for v in verdict.witnesses)


def test_verdict_werner_inconclusive():
    assert entanglement_verdict(werner(0.6), 1).tag == INCONCLUSIVE


def test_verdict_maximally_mixed_inconclusive():
    rho = density_matrix((2, 2), np.eye(4) / 4)
    assert entanglement_verdict(rho, 1).tag == INCONCLUSIVE


# --------------------------------------------------------- partition checks


def singletons(n):
    return [(i,) for i in range(n)]


def test_partition_pair_product_state():
    psi = product_pure((2, 2), seed=5)
    result = verdict(rank_lattice(density_from_pure(psi), parts=singletons(2)))
    assert result.tag == SEPARABLE_PURE_PRODUCT
    assert result.witnesses == ()


def test_partition_pair_ghz3_is_weaker_than_the_lattice():
    """The pair check of {1} and {2} is the lattice's two edges into the
    traced set {3}: ranks 2, 2 against 2, no witness. The lattice over the
    parts still flags GHZ against its rank-1 state."""
    rho = density_from_pure(ghz(3, 2))
    lattice = rank_lattice(rho, 2, parts=singletons(3))
    assert (lattice.entries[(1, 2)], lattice.entries[(0, 2)], lattice.entries[(2,)]) == (2, 2, 2)
    result = verdict(lattice)
    assert result.tag == ENTANGLED
    assert all(v.parent != (2,) for v in result.witnesses)
    assert Violation((0,), None, 2, 1) in result.witnesses


def test_partition_pair_qutrit_mixture_entangled():
    result = verdict(rank_lattice(qutrit_rank2_mixture(), parts=singletons(2)))
    assert result.tag == ENTANGLED
    assert result.witnesses[0].child_rank == 3
    assert result.witnesses[0].parent_rank == 2


def test_partition_pair_rejects_overlap():
    with pytest.raises(PartitionError, match="overlap"):
        rank_lattice(werner(0.5), parts=[(0,), (0, 1)])


def test_check_partition_product_singletons():
    psi = product_pure((2, 2, 2, 2), seed=6)
    lattice = rank_lattice(density_from_pure(psi), 3, parts=singletons(4))
    assert len(lattice.entries) == 14
    assert check_rank_monotonicity(lattice) == []
    assert verdict(lattice).tag == SEPARABLE_PURE_PRODUCT


def test_check_partition_six_qubit_blocks_consistent():
    rho = density_from_pure(six_qubit_benchmark())
    result = verdict(rank_lattice(rho, 2, parts=[(0,), (1, 2), (3, 4, 5)]))
    assert result.tag == SEPARABLE_PURE_PRODUCT


def test_check_partition_qutrit_mixture():
    assert verdict(rank_lattice(qutrit_rank2_mixture(), parts=[(0,), (1,)])).tag == ENTANGLED


def test_check_partition_requires_cover():
    with pytest.raises(PartitionError, match="at least two parts"):
        rank_lattice(werner(0.5), parts=[(0,)])
    with pytest.raises(PartitionError, match="at least two parts"):
        rank_lattice(werner(0.5), parts=[(0, 1)])
    rho = density_from_pure(ghz(3, 2))
    with pytest.raises(PartitionError, match=r"does not cover particles \[2\]"):
        rank_lattice(rho, parts=[(0,), (1,)])
    with pytest.raises(PartitionError, match="overlap"):
        rank_lattice(rho, parts=[(0, 1), (1, 2)])
    with pytest.raises(PartitionError, match="nonempty"):
        rank_lattice(rho, parts=[(0, 1, 2), ()])


def test_lattice_over_parts_is_keyed_by_traced_particles():
    """Entries are unions of parts, listed by level; depth counts parts."""
    psi = ghz(6, 2)
    parts = [(4, 5), (0, 1), (2, 3)]
    lattice = rank_lattice(psi, parts=parts)
    assert lattice.parts == ((0, 1), (2, 3), (4, 5))
    assert lattice.max_depth == 1
    assert list(lattice.entries) == [(0, 1), (2, 3), (4, 5)]
    deep = rank_lattice(psi, 2, parts=parts)
    assert list(deep.entries) == [
        (0, 1), (2, 3), (4, 5), (0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)
    ]
    with pytest.raises(InputError):
        rank_lattice(psi, 3, parts=parts)
    with pytest.raises(EnumerationLimitError):
        rank_lattice(psi, 2, parts=parts, max_subsets=5)


def test_singleton_parts_are_the_particle_lattice():
    rho = mixed_of_rank((2, 3, 2), seed=21, rank=2)
    plain = rank_lattice(rho, 2)
    over_parts = rank_lattice(rho, 2, parts=[(2,), (0,), (1,)])
    assert plain == over_parts
    assert list(plain.entries) == list(over_parts.entries)
    assert plain.parts == ((0,), (1,), (2,))


def test_ghz6_in_pair_blocks_is_entangled():
    """Every pair check of {1,2}|{3,4}|{5,6} reads ranks (2, 2, 2); the
    lattice over the parts sees rank 2 after tracing out one part of a
    rank-1 state."""
    lattice = rank_lattice(ghz(6, 2), 2, parts=[(0, 1), (2, 3), (4, 5)])
    assert lattice.state_rank == 1
    assert set(lattice.entries.values()) == {2}
    result = verdict(lattice)
    assert result.tag == ENTANGLED
    assert result.witnesses[0] == Violation((0, 1), None, 2, 1)
    assert {v.parent for v in result.witnesses} == {None}


def _oracle_states(dims):
    psi = haar_pure(dims, seed=31)
    dense = mixed_of_rank(dims, seed=33, rank=3)
    return [
        ("pure", psi, density_from_pure(psi).matrix),
        ("mixture", mixed_of_rank(dims, seed=32, rank=2), None),
        ("dense", DensityMatrix(dims=dims, matrix=dense.matrix), dense.matrix),
    ]


@pytest.mark.parametrize(
    "dims,parts",
    [
        ((2, 3, 2), [(0,), (1,), (2,)]),
        ((2, 3, 2), [(0, 2), (1,)]),
        ((3, 2, 2, 2), [(0, 2), (1, 3)]),
        ((3, 2, 2, 2), [(0,), (1, 3), (2,)]),
        ((3, 2, 2, 2), [(0, 3), (1,), (2,)]),
        ((3, 2, 2, 2), [(0,), (1,), (2,), (3,)]),
    ],
)
def test_lattice_over_parts_matches_oracle(dims, parts):
    for name, state, matrix in _oracle_states(dims):
        matrix = state.matrix if matrix is None else matrix
        for depth in range(1, len(parts)):
            lattice = rank_lattice(state, depth, parts=parts)
            expected = partition_lattice_oracle(matrix, dims, parts, depth)
            assert (lattice.state_rank, lattice.entries) == expected, (name, depth)


def _product_across(part_states, parts):
    dims, amplitudes = place_parts([(s.dims, s.amplitudes) for s in part_states], parts)
    return pure_state(dims, amplitudes)


def test_products_across_parts_get_no_witness():
    """Products and mixtures of products of per-part states, each part
    entangled inside, pass the lattice over their parts at every depth; the
    particle lattice flags each of them."""
    parts_a = [(0, 2), (1, 3)]
    parts_b = [(0, 2, 4), (1, 3)]
    parts_c = [(0, 3), (1,), (2, 4)]
    cases = [
        (_product_across([bell(), bell()], parts_a), parts_a),
        (_product_across([ghz(3, 2), haar_pure((2, 3), seed=41)], parts_b), parts_b),
        (
            mix([
                (0.5, _product_across([bell(), haar_pure((2, 2), seed=42)], parts_a)),
                (0.5, _product_across([haar_pure((2, 2), seed=43), bell()], parts_a)),
            ]),
            parts_a,
        ),
        (
            mix([
                (w, _product_across(
                    [haar_pure((2, 3), seed=s), haar_pure((2,), seed=s + 1),
                     ghz(2, 3) if s == 50 else haar_pure((3, 3), seed=s + 2)],
                    [(0, 1), (2,), (3, 4)],
                ))
                for w, s in ((0.2, 50), (0.3, 53), (0.5, 56))
            ]),
            [(0, 1), (2,), (3, 4)],
        ),
        (
            mix([
                (0.25, _product_across([ghz(2, 2), haar_pure((2,), seed=60), bell()], parts_c)),
                (0.75, _product_across([haar_pure((2, 2), seed=61), haar_pure((2,), seed=62),
                                        haar_pure((2, 2), seed=63)], parts_c)),
            ]),
            parts_c,
        ),
    ]
    for state, parts in cases:
        for depth in range(1, len(parts)):
            assert check_rank_monotonicity(rank_lattice(state, depth, parts=parts)) == []
        assert verdict(rank_lattice(state, state.n - 1)).tag == ENTANGLED
        expected = SEPARABLE_PURE_PRODUCT if isinstance(state, PureState) else INCONCLUSIVE
        assert verdict(rank_lattice(state, parts=parts)).tag == expected


# -------------------------------------------------------- pure-state checks


def test_pure_entangled_examples():
    assert not pure_entangled(product_pure((2, 2, 2), seed=7))
    assert pure_entangled(bell())
    assert pure_entangled(ghz(4, 2))


def test_pure_fully_entangled_examples():
    assert pure_fully_entangled(ghz(3, 2))
    zero = pure_state((2,), np.array([1.0, 0.0]))
    assert not pure_fully_entangled(tensor_pure(bell(), zero))
    assert pure_fully_entangled(w(4))


# -------------------------------------------------------------- properties


def test_soundness_on_random_separable_mixtures():
    """Necessary condition: separable inputs can never produce a violation."""
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        rho = separable_mixture(dims, seed=1000 + trial)
        for depth in range(1, n):
            assert check_rank_monotonicity(rank_lattice(rho, depth)) == []


def test_violations_monotone_in_depth():
    states = [density_from_pure(ghz(4, 2)), density_from_pure(haar_pure((2, 2, 2, 2), seed=12))]
    for rho in states:
        found: set = set()
        for depth in range(1, 4):
            current = {
                (v.child, v.parent) for v in check_rank_monotonicity(rank_lattice(rho, depth))
            }
            assert found <= current
            found = current


def test_fully_entangled_implies_entangled():
    """A fully entangled pure state gets witnesses from the rank lattice."""
    for psi in (ghz(3, 2), w(4), haar_pure((2, 2, 2), seed=13)):
        assert pure_fully_entangled(psi)
        assert entanglement_verdict(psi).tag == ENTANGLED


def test_verdict_matches_pure_predicate():
    """For a pure state the lattice verdict and the direct predicate agree."""
    states = [
        product_pure((2, 2, 2), seed=14),
        haar_pure((2, 2, 2), seed=15),
        tensor_pure(bell(), haar_pure((2,), seed=16)),
        six_qubit_benchmark(),
    ]
    for psi in states:
        result = entanglement_verdict(density_from_pure(psi))
        assert (result.tag == ENTANGLED) == pure_entangled(psi)


def test_factorization_partition_never_flags():
    for psi in (six_qubit_benchmark(), tensor_pure(bell(), bell())):
        result = factorize_pure(psi)
        lattice = rank_lattice(density_from_pure(psi), parts=result.partition)
        assert verdict(lattice).tag != ENTANGLED


def test_verdict_dataclass_shape():
    verdict = Verdict(tag=INCONCLUSIVE)
    assert verdict.witnesses == ()
