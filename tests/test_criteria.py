
import numpy as np
import pytest

from entrank.catalog import (
    bell,
    ghz,
    haar_pure,
    product_pure,
    separable_mixture,
    six_qubit_benchmark,
    w,
    werner,
)
from entrank.criteria import (
    ENTANGLED,
    INCONCLUSIVE,
    Verdict,
    check_partition,
    check_partition_pair,
    check_rank_monotonicity,
    entanglement_verdict,
    overall_verdict,
    pure_entangled,
    pure_fully_entangled,
    rank_lattice,
)
from entrank.errors import EnumerationLimitError, InputError, PartitionError
from entrank.factorize import factorize_pure
from entrank.states import (
    DensityMatrix,
    density_from_pure,
    density_matrix,
    mix,
    pure_state,
    tensor_pure,
)


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


def test_partition_pair_product_state():
    psi = product_pure((2, 2), seed=5)
    verdict = check_partition_pair(density_from_pure(psi), (0,), (1,))
    assert verdict.tag == INCONCLUSIVE
    assert verdict.witnesses == ()


def test_partition_pair_ghz3_is_weaker_than_the_lattice():
    """Pairwise ranks of GHZ are all 2, so the pair check alone cannot see
    the entanglement that the full lattice flags against the rank-1 state."""
    rho = density_from_pure(ghz(3, 2))
    assert check_partition_pair(rho, (0,), (1,)).tag == INCONCLUSIVE
    assert entanglement_verdict(rho, 1).tag == ENTANGLED


def test_partition_pair_qutrit_mixture_entangled():
    verdict = check_partition_pair(qutrit_rank2_mixture(), (0,), (1,))
    assert verdict.tag == ENTANGLED
    assert verdict.witnesses[0].child_rank == 3
    assert verdict.witnesses[0].parent_rank == 2


def test_partition_pair_rejects_overlap():
    with pytest.raises(PartitionError):
        check_partition_pair(werner(0.5), (0,), (0, 1))


def test_check_partition_product_singletons():
    psi = product_pure((2, 2, 2, 2), seed=6)
    results = check_partition(density_from_pure(psi), [(0,), (1,), (2,), (3,)])
    assert len(results) == 6
    assert all(v.tag == INCONCLUSIVE for v in results.values())
    assert overall_verdict(results).tag == INCONCLUSIVE


def test_check_partition_six_qubit_blocks_consistent():
    rho = density_from_pure(six_qubit_benchmark())
    results = check_partition(rho, [(0,), (1, 2), (3, 4, 5)])
    assert all(v.tag == INCONCLUSIVE for v in results.values())


def test_check_partition_qutrit_mixture():
    results = check_partition(qutrit_rank2_mixture(), [(0,), (1,)])
    assert overall_verdict(results).tag == ENTANGLED


def test_check_partition_requires_cover():
    with pytest.raises(PartitionError):
        check_partition(werner(0.5), [(0,)])
    rho = density_from_pure(ghz(3, 2))
    with pytest.raises(PartitionError):
        check_partition(rho, [(0,), (1,)])
    with pytest.raises(PartitionError):
        check_partition(rho, [(0, 1), (1, 2)])


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
    for psi in (ghz(3, 2), w(4), haar_pure((2, 2, 2), seed=13)):
        if pure_fully_entangled(psi):
            assert pure_entangled(psi)


def test_verdict_matches_pure_predicate():
    """For a pure state the lattice verdict and the direct predicate agree."""
    states = [
        product_pure((2, 2, 2), seed=14),
        haar_pure((2, 2, 2), seed=15),
        tensor_pure(bell(), haar_pure((2,), seed=16)),
        six_qubit_benchmark(),
    ]
    for psi in states:
        verdict = entanglement_verdict(density_from_pure(psi))
        assert (verdict.tag == ENTANGLED) == pure_entangled(psi)


def test_factorization_partition_never_flags():
    for psi in (six_qubit_benchmark(), tensor_pure(bell(), bell())):
        result = factorize_pure(psi)
        results = check_partition(density_from_pure(psi), result.partition)
        assert overall_verdict(results).tag == INCONCLUSIVE


def test_verdict_dataclass_shape():
    verdict = Verdict(tag=INCONCLUSIVE)
    assert verdict.witnesses == ()
