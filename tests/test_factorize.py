from itertools import combinations

import numpy as np
import pytest

from entrank.catalog import (
    bell,
    ghz,
    haar_pure,
    product_pure,
    six_qubit_benchmark,
)
from entrank.errors import PartitionError
from entrank.factorize import FactorizationResult, _reconstruction_residual, factorize_pure
from entrank.linalg import numerical_rank
from entrank.states import (
    PureState,
    density_from_pure,
    partial_trace,
    pure_state,
    subset_rank,
    subset_ranks,
)
from oracles import (
    apply_local_unitaries,
    frobenius_sum,
    place_parts,
    random_unitary,
    tensor_pure,
)


def dominant_factor(psi, part):
    """Factor candidate for a part: top eigenvector of its reduced state."""
    keep_rho = partial_trace(density_from_pure(psi), traced=tuple(
        i for i in range(psi.n) if i not in set(part)
    ))
    _, vectors = np.linalg.eigh(keep_rho.matrix)
    vec = vectors[:, -1]
    return PureState(dims=keep_rho.dims, amplitudes=vec / np.linalg.norm(vec))


def test_six_qubit_benchmark_partition_and_log():
    result = factorize_pure(six_qubit_benchmark())
    assert result.partition == ((0,), (1, 2), (3, 4, 5))
    assert result.residual <= 1e-8
    assert result.fully_entangled_parts == ((1, 2), (3, 4, 5))

    step1, step2 = result.trace_log[0], result.trace_log[1]
    assert step1.step == 1
    assert dict(step1.tested)[(0,)] == 1
    assert step1.accepted == ((0,),)
    assert step2.step == 2
    assert dict(step2.tested)[(1, 2)] == 1
    assert step2.accepted == ((1, 2),)
    assert len(step2.tested) == 10  # all pairs of the remaining five qubits


def test_fully_product_state_gives_singletons():
    result = factorize_pure(product_pure((2, 2, 2, 2), seed=1))
    assert result.partition == ((0,), (1,), (2,), (3,))
    assert result.fully_entangled_parts == ()
    assert result.residual <= 1e-8


def test_ghz5_is_one_fully_entangled_part():
    result = factorize_pure(ghz(5, 2))
    assert result.partition == ((0, 1, 2, 3, 4),)
    assert result.fully_entangled_parts == ((0, 1, 2, 3, 4),)
    assert result.residual <= 1e-8


def test_bell_pair_blocks():
    result = factorize_pure(tensor_pure(bell(), bell()))
    assert result.partition == ((0, 1), (2, 3))


def test_single_particle_state():
    result = factorize_pure(pure_state((2,), np.array([0.6, 0.8])))
    assert result.partition == ((0,),)
    assert result.residual == 0.0


def test_factors_are_normalized_and_pure():
    result = factorize_pure(six_qubit_benchmark())
    for part, factor in zip(result.partition, result.factors):
        assert factor.dims == tuple((2,) * len(part))
        assert np.linalg.norm(factor.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert numerical_rank(density_from_pure(factor).matrix) == 1


def test_factor_phase_canonical():
    result = factorize_pure(six_qubit_benchmark())
    for factor in result.factors:
        top = factor.amplitudes[int(np.argmax(np.abs(factor.amplitudes)))]
        assert top.imag == pytest.approx(0.0, abs=1e-12)
        assert top.real > 0


# -------------------------------------------------------------- verification


def test_verify_factorization_on_catalog_states():
    """The factors, placed back on their parts, rebuild ψ up to a phase."""
    for psi in (six_qubit_benchmark(), ghz(4, 2), tensor_pure(bell(), bell())):
        result = factorize_pure(psi)
        factors = [(f.dims, f.amplitudes) for f in result.factors]
        _, rebuilt = place_parts(factors, result.partition)
        assert abs(np.vdot(rebuilt, psi.amplitudes)) == pytest.approx(1.0, abs=1e-8)


def test_verify_wrong_partition_has_large_residual():
    psi = ghz(3, 2)
    wrong = FactorizationResult(
        partition=((0, 1), (2,)),
        factors=(dominant_factor(psi, (0, 1)), dominant_factor(psi, (2,))),
        fully_entangled_parts=(),
        residual=0.0,
        trace_log=(),
    )
    assert _reconstruction_residual(psi, wrong.partition, wrong.factors) > 0.1


def test_verify_trivial_single_part_is_exact():
    psi = ghz(3, 2)
    trivial = FactorizationResult(
        partition=((0, 1, 2),),
        factors=(psi,),
        fully_entangled_parts=((0, 1, 2),),
        residual=0.0,
        trace_log=(),
    )
    assert _reconstruction_residual(psi, trivial.partition, trivial.factors) == 0.0


def test_residual_matches_projector_distance():
    psi = haar_pure((3, 2, 3, 2, 3, 2, 3, 2), seed=70)
    result = factorize_pure(psi)
    (factor,) = result.factors
    projector = np.outer(factor.amplitudes, factor.amplitudes.conj())
    reference = frobenius_sum(density_from_pure(psi).matrix, projector)
    assert result.residual <= 1e-12
    assert abs(result.residual - reference) <= 1e-14


def test_factorize_memory_is_linear_in_dimension():
    """No d x d matrix: a d = 4096 projector alone would take 268 MB."""
    import tracemalloc

    psi = ghz(12, 2)
    tracemalloc.start()
    try:
        factorize_pure(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_verify_rejects_non_covering_partition():
    psi = ghz(3, 2)
    broken = FactorizationResult(
        partition=((0, 1),),
        factors=(dominant_factor(psi, (0, 1)),),
        fully_entangled_parts=(),
        residual=0.0,
        trace_log=(),
    )
    with pytest.raises(PartitionError):
        _reconstruction_residual(psi, broken.partition, broken.factors)


# ---------------------------------------------------------------- invariants


def test_remainder_reduced_state_is_pure_after_each_acceptance():
    psi = six_qubit_benchmark()
    result = factorize_pure(psi)
    tested = [subset for record in result.trace_log for subset, _ in record.tested]
    assert len(tested) == len(set(tested))
    remainder = list(range(6))
    for record in result.trace_log:
        for accepted in record.accepted:
            remainder = [i for i in remainder if i not in set(accepted)]
            if remainder:
                assert subset_rank(psi, tuple(remainder)) == 1


def test_idempotence_on_extracted_factors():
    result = factorize_pure(six_qubit_benchmark())
    for part, factor in zip(result.partition, result.factors):
        if len(part) >= 2:
            again = factorize_pure(factor)
            assert again.partition == (tuple(range(len(part))),)


def test_complement_consistency():
    """A subset is accepted iff its complement within the remainder is also
    a pure factor; both sides of the cut share a Schmidt spectrum."""
    psi = six_qubit_benchmark()
    # after the first step the remainder is {2..6}; {2,3} is accepted there
    assert subset_rank(psi, (1, 2)) == 1
    assert subset_rank(psi, (3, 4, 5)) == 1


def test_agreement_with_predicates():
    """The partition agrees with the rank predicates: entangled iff some
    one-particle reduced state is mixed, fully entangled iff every reduced
    state up to half the particles is."""
    cases = [
        haar_pure((2, 2, 2), seed=2),
        product_pure((2, 2, 2), seed=3),
        tensor_pure(bell(), haar_pure((2,), seed=4)),
    ]
    for psi in cases:
        result = factorize_pure(psi)
        halves = [s for k in range(1, psi.n // 2 + 1) for s in combinations(range(psi.n), k)]
        assert (len(result.partition) == 1) == (min(subset_ranks(psi, halves)) > 1)
        singles = subset_ranks(psi, [(i,) for i in range(psi.n)])
        assert all(len(p) == 1 for p in result.partition) == (max(singles) == 1)


def test_local_unitary_invariance_of_partition():
    rng = np.random.default_rng(5)
    psi = tensor_pure(bell(), tensor_pure(haar_pure((2,), seed=6), ghz(3, 2)))
    rotated = apply_local_unitaries(psi, [random_unitary(2, rng) for _ in range(psi.n)])
    assert factorize_pure(psi).partition == factorize_pure(rotated).partition


def test_every_multiparticle_part_is_fully_entangled():
    result = factorize_pure(tensor_pure(haar_pure((2, 2), seed=7), haar_pure((2,), seed=8)))
    for part, factor in zip(result.partition, result.factors):
        if len(part) >= 2:
            assert part in result.fully_entangled_parts
            subsets = [s for k in range(1, factor.n) for s in combinations(range(factor.n), k)]
            assert min(subset_ranks(factor, subsets)) > 1


def test_accepted_subsets_disjoint_in_log():
    result = factorize_pure(tensor_pure(bell(), bell()))
    for record in result.trace_log:
        taken: set = set()
        for accepted in record.accepted:
            assert not (taken & set(accepted))
            taken |= set(accepted)


def test_enumeration_limit():
    from entrank.errors import EnumerationLimitError

    with pytest.raises(EnumerationLimitError):
        factorize_pure(ghz(10, 2), max_subsets=10)


def test_loose_tolerance_caught_by_residual_check():
    """A sloppy rank tolerance accepts a non-product cut of a weakly
    entangled pair; the reconstruction residual catches the mistake."""
    from entrank.errors import InternalInconsistencyError
    from entrank.linalg import RankTolerance

    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.99)
    amps[3] = np.sqrt(0.01)
    weakly = pure_state((2, 2), amps)
    assert factorize_pure(weakly).partition == ((0, 1),)
    with pytest.raises(InternalInconsistencyError, match="residual"):
        factorize_pure(weakly, tol=RankTolerance(rtol=0.3))
