import numpy as np
import pytest

from entrank.catalog import (
    bell,
    generator,
    ghz,
    haar_pure,
    mixed_of_rank,
    product_pure,
    separable_mixture,
    six_qubit_benchmark,
    w,
    werner,
)
from entrank.criteria import check_rank_monotonicity, rank_lattice
from entrank.errors import InputError, SizeLimitError
from entrank.factorize import factorize_pure
from entrank.linalg import numerical_rank
from entrank.states import partial_trace, subset_rank
from oracles import density_from_pure, product_pure_by_kron, separable_mixture_by_kron


def test_ghz_2_2_is_bell():
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(ghz(2, 2).amplitudes, expected)
    np.testing.assert_allclose(bell().amplitudes, expected)


def test_ghz3_single_particle_ranks():
    psi = ghz(3, 2)
    for i in range(3):
        assert subset_rank(psi, (i,)) == 2


def test_ghz_qutrit_schmidt_rank():
    assert subset_rank(ghz(2, 3), (0,)) == 3


def test_ghz_reduced_rank_equals_local_dimension():
    from itertools import combinations

    psi = ghz(4, 3)
    for size in (1, 2):
        for subset in combinations(range(4), size):
            assert subset_rank(psi, subset) == 3


def test_ghz_size_limit():
    with pytest.raises(SizeLimitError):
        ghz(13, 2)
    with pytest.raises(InputError):
        ghz(1, 2)


def test_w_norm_and_reduced_spectrum():
    psi = w(3)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    reduced = partial_trace(density_from_pure(psi), traced=(1, 2))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(reduced.matrix)[::-1], [2 / 3, 1 / 3], atol=1e-12
    )


def test_w_is_fully_entangled():
    assert factorize_pure(w(3)).partition == ((0, 1, 2),)


def test_w_rejects_small_n():
    with pytest.raises(InputError):
        w(2)


# ------------------------------------------------------------------ werner


def test_werner_extremes():
    flat = werner(0.0)
    np.testing.assert_allclose(flat.matrix, np.eye(4) / 4)
    lattice = rank_lattice(flat, 1)
    assert lattice.state_rank == 4
    assert set(lattice.entries.values()) == {2}

    proj = werner(1.0)
    assert numerical_rank(proj.matrix) == 1


def test_werner_eigenvalues_formula():
    for p in (0.0, 0.3, 0.6, 1.0):
        values = np.linalg.eigvalsh(werner(p).matrix)[::-1]
        expected = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, reverse=True)
        np.testing.assert_allclose(values, expected, atol=1e-12)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)


def test_werner_rank_criteria_pass_but_ppt_fails():
    """The rank inequalities hold at p = 0.6 even though the partial
    transpose is negative, so the rank checks alone cannot decide."""
    from entrank.linalg import hermitian_eigenvalues
    from oracles import partial_transpose

    rho = werner(0.6)
    assert len(check_rank_monotonicity(rank_lattice(rho, 1))) == 0
    low = hermitian_eigenvalues(partial_transpose(rho, (0,)))[-1]
    assert low == pytest.approx((1 - 3 * 0.6) / 4, abs=1e-12)
    assert low < -1e-9


def test_werner_checks_its_weight():
    with pytest.raises(InputError, match=r"^werner weight p must lie in \[0, 1\], got 1\.1$"):
        werner(1.1)


# ------------------------------------------------------- six-qubit benchmark


def test_six_qubit_benchmark_amplitudes():
    psi = six_qubit_benchmark()
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    nonzero = np.flatnonzero(psi.amplitudes)
    assert list(nonzero) == [0b000000, 0b000111, 0b011000, 0b011111]
    np.testing.assert_allclose(psi.amplitudes[nonzero], [0.5] * 4)


def test_six_qubit_benchmark_reported_ranks():
    psi = six_qubit_benchmark()
    # tracing out particle 1 leaves a pure state; same for the pair {2,3}
    assert subset_rank(psi, (1, 2, 3, 4, 5)) == 1
    assert subset_rank(psi, (0, 3, 4, 5)) == 1
    # no other single particle separates
    for i in range(1, 6):
        assert subset_rank(psi, tuple(j for j in range(6) if j != i)) == 2


# ------------------------------------------------------------ random states


def test_random_states_are_deterministic():
    for make in (
        lambda: haar_pure((2, 2), seed=99),
        lambda: product_pure((2, 2), seed=99),
        lambda: mixed_of_rank((2, 2), seed=99, rank=2),
    ):
        a, b = make(), make()
        payload_a = a.amplitudes if hasattr(a, "amplitudes") else a.matrix
        payload_b = b.amplitudes if hasattr(b, "amplitudes") else b.matrix
        assert np.array_equal(payload_a, payload_b)


def test_product_pure_reduced_ranks_are_one():
    psi = product_pure((2, 3, 2), seed=7)
    for i in range(3):
        assert subset_rank(psi, (i,)) == 1


def test_mixed_of_rank_two_qutrits():
    rho = mixed_of_rank((3, 3), seed=31, rank=2)
    assert numerical_rank(rho.matrix) == 2
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_mixed_of_rank_checks_its_rank():
    with pytest.raises(InputError, match=r"^rank must lie in 1\.\.4, got 5$"):
        mixed_of_rank((2, 2), 0, 5)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_the_key_range_is_an_input_error(seed):
    with pytest.raises(InputError, match=rf"^seed must lie in 0\.\.{2**64 - 1}, got {seed}$"):
        haar_pure((2, 2), seed=seed)


def test_the_top_seed_is_a_key():
    key = generator(2**64 - 1, 3).bit_generator.state["state"]["key"]
    assert key.tolist() == [2**64 - 1, 3]
    haar_pure((2, 2), seed=2**64 - 1)


def test_separable_mixture_is_separable_for_the_criteria():
    for seed in range(5):
        rho = separable_mixture((2, 3), seed=seed)
        assert len(check_rank_monotonicity(rank_lattice(rho, 1))) == 0


@pytest.mark.parametrize("dims", [(3,), (2, 3, 2), (2, 2, 2, 2), (4, 2, 3)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_product_states_are_their_kron_chain_bit_for_bit(dims, seed):
    """product_pure and every term of separable_mixture lay their particles
    out as chained np.kron from [1 + 0j] does, to the last bit; the mixture's
    factor and matrix follow."""
    psi = product_pure(dims, seed)
    assert psi.amplitudes.tobytes() == product_pure_by_kron(dims, seed).tobytes()
    rho, want = separable_mixture(dims, seed), separable_mixture_by_kron(dims, seed)
    assert rho.factor.shape == want.factor.shape
    assert rho.factor.tobytes() == want.factor.tobytes()
    assert rho.matrix.tobytes() == want.matrix.tobytes()


def test_haar_pure_seed_changes_state():
    a = haar_pure((2, 2), seed=1)
    b = haar_pure((2, 2), seed=2)
    assert not np.allclose(a.amplitudes, b.amplitudes)
