import numpy as np
import pytest

from entrank.errors import ShapeError, SymmetryError
from entrank.linalg import (
    RankTolerance,
    hermitian_eigenvalues,
    numerical_rank,
    rank_from_values,
)
from oracles import charpoly_roots, random_unitary, rational_rank


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_psd_of_rank(rng, dim, rank):
    vs = rand_complex(rng, dim, rank)
    return vs @ vs.conj().T


# ------------------------------------------------------------- eigenvalues


def test_hermitian_eigenvalues_diagonal():
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([0.25, 0.75])), [0.75, 0.25]
    )


def test_hermitian_eigenvalues_bell_projector():
    """The projector onto (|00> + |11>) / sqrt(2) has spectrum {1, 0, 0, 0}."""
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.outer(psi, psi)), [1.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_hermitian_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(5)
    a = rand_complex(rng, 4, 4)
    a = (a + a.conj().T) / 2
    got = hermitian_eigenvalues(a)
    expected = np.sort(charpoly_roots(a).real)[::-1]
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_hermitian_eigenvalues_rejects_non_square():
    with pytest.raises(ShapeError):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(SymmetryError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -------------------------------------------------------------------- rank


def test_numerical_rank_trivial_cases():
    assert numerical_rank(np.diag([1.0, 0.0, 0.0])) == 1
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_singular_values_zero_rectangular():
    """A zero 2x3 matrix has two zero singular values and rank 0."""
    assert rank_from_values(np.zeros(2)) == 0
    assert numerical_rank(np.zeros((2, 3))) == 0
    assert numerical_rank(np.zeros((3, 2))) == 0


def test_numerical_rank_matches_rational_elimination():
    """Rows r, 2r, r + s span a 2-dimensional space; check against exact
    Gaussian elimination over the rationals."""
    rng = np.random.default_rng(23)
    while True:
        r = rng.integers(-5, 6, size=4)
        s = rng.integers(-5, 6, size=4)
        rows = [list(r), list(2 * r), list(r + s)]
        if rational_rank(rows) == 2:
            break
    assert numerical_rank(np.array(rows, dtype=complex)) == 2


def test_rank_tolerance_validation():
    with pytest.raises(ValueError):
        RankTolerance(rtol=-1e-3)
    with pytest.raises(ValueError):
        RankTolerance(atol=float("nan"))


def test_rank_tolerance_cutoff_override():
    a = np.diag([1.0, 1e-6])
    assert numerical_rank(a) == 2
    assert numerical_rank(a, RankTolerance(rtol=1e-3)) == 1


# ------------------------------------------------------------- properties


def test_rank_of_kron_is_product_of_ranks():
    rng = np.random.default_rng(41)
    for _ in range(10):
        ra, rb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rand_psd_of_rank(rng, 4, ra)
        b = rand_psd_of_rank(rng, 4, rb)
        assert numerical_rank(np.kron(a, b)) == numerical_rank(a) * numerical_rank(b) == ra * rb


def test_psd_singular_values_equal_eigenvalues():
    rng = np.random.default_rng(43)
    a = rand_psd_of_rank(rng, 5, 5)
    s = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(s, hermitian_eigenvalues(a), atol=1e-9)


def test_rank_invariant_under_unitaries():
    rng = np.random.default_rng(47)
    a = rand_psd_of_rank(rng, 5, 3)
    u = random_unitary(5, rng)
    assert numerical_rank(u @ a) == numerical_rank(a @ u) == numerical_rank(a) == 3


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(53)
    a = rand_complex(rng, 6, 6)
    a = (a + a.conj().T) / 2
    assert hermitian_eigenvalues(a).sum() == pytest.approx(np.trace(a).real, abs=1e-9)


def test_nan_entries_rejected():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        numerical_rank(bad)
