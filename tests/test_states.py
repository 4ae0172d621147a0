from itertools import combinations

import numpy as np
import pytest

from entrank.catalog import (
    bell,
    ghz,
    haar_pure,
    mixed_of_rank,
    product_pure,
    separable_mixture,
)
from entrank.cli import PPT_NEG_TOL
from entrank.errors import (
    NormalizationError,
    PartitionError,
    ShapeError,
    SizeLimitError,
)
from entrank.linalg import RankTolerance, hermitian_eigenvalues, numerical_rank, rank_from_values
from entrank.states import (
    DensityMatrix,
    PureState,
    bipartition_matrix,
    bipartition_spectrum,
    density_from_pure,
    density_matrix,
    mix,
    partial_trace,
    partial_transpose,
    ppt_minimum,
    pure_state,
    subset_rank,
    subset_ranks,
)
from oracles import (
    apply_local_unitaries,
    masks,
    ptrace_loop,
    random_unitary,
    rank_by_eigvalsh,
    tensor_pure,
)


def kron_state(a, b):
    """The joint state a ⊗ b of two density matrices."""
    return DensityMatrix(dims=a.dims + b.dims, matrix=np.kron(a.matrix, b.matrix))


def ket(dims, index):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[int(np.ravel_multi_index(index, dims))] = 1.0
    return pure_state(dims, amps)


# ----------------------------------------------------------- construction


def test_pure_state_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        pure_state((2,), np.array([1.0, 1.0]))


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ShapeError):
        pure_state((2, 2), np.array([1.0, 0.0]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(NormalizationError):
        density_matrix((2,), np.diag([1.5, -0.5]))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(NormalizationError):
        density_matrix((2,), np.diag([0.6, 0.6]))


def test_dims_size_limit():
    with pytest.raises(SizeLimitError):
        pure_state((2,) * 13, np.zeros(2**13))


# -------------------------------------------------------- density_from_pure


def test_density_from_pure_basis_state():
    rho = density_from_pure(ket((2,), (0,)))
    assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]))


def test_density_from_pure_bell_corners():
    rho = density_from_pure(bell())
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
    assert numerical_rank(rho.matrix) == 1


def test_density_from_pure_matches_outer_loop():
    psi = haar_pure((2, 3), seed=8)
    rho = density_from_pure(psi)
    for i in range(6):
        for j in range(6):
            expected = psi.amplitudes[i] * np.conj(psi.amplitudes[j])
            assert abs(rho.matrix[i, j] - expected) < 1e-15


# --------------------------------------------------------------------- mix


def test_mix_single_term_is_projector():
    psi = haar_pure((2, 2), seed=1)
    np.testing.assert_allclose(
        mix([(1.0, psi)]).matrix, density_from_pure(psi).matrix, atol=1e-15
    )


def test_mix_of_basis_states_is_diagonal():
    rho = mix([(0.5, ket((2, 2), (0, 0))), (0.5, ket((2, 2), (1, 1)))])
    assert np.array_equal(rho.matrix, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_mix_eigenvalues_sum_to_one():
    rng = np.random.default_rng(2)
    weights = rng.random(3)
    weights /= weights.sum()
    terms = [(float(w), haar_pure((2, 2), seed=10 + i)) for i, w in enumerate(weights)]
    rho = mix(terms)
    assert np.linalg.eigvalsh(rho.matrix).sum() == pytest.approx(1.0, abs=1e-9)


def test_mix_rejects_bad_weights():
    psi = haar_pure((2,), seed=0)
    with pytest.raises(NormalizationError):
        mix([(0.5, psi), (0.4, psi)])
    with pytest.raises(NormalizationError):
        mix([(1.2, psi), (-0.2, psi)])


def test_mix_rejects_a_nan_weight_and_an_infinite_sum():
    """A NaN weight fails every comparison, so ``weight <= 0`` and
    ``|Σ − 1| > atol`` both let it through; the checks are written to fail on
    it, with the same messages."""
    psi = haar_pure((2,), seed=0)
    with pytest.raises(NormalizationError, match="^mixture weight nan is not positive$"):
        mix([(float("nan"), psi), (0.5, psi)])
    with pytest.raises(NormalizationError, match="^mixture weights sum to inf, expected 1$"):
        mix([(float("inf"), psi)])


def test_mix_rejects_mismatched_dims():
    with pytest.raises(ShapeError):
        mix([(0.5, haar_pure((2,), seed=0)), (0.5, haar_pure((3,), seed=0))])


# ------------------------------------------------------------ tensor product


def test_tensor_product_bell_with_qubit_has_rank_one():
    out = kron_state(density_from_pure(bell()), density_matrix((2,), np.diag([1.0, 0.0])))
    assert out.matrix.shape == (8, 8)
    assert numerical_rank(out.matrix) == subset_rank(out, range(3)) == 1


# ------------------------------------------------------------ partial trace


def test_partial_trace_recovers_product_factor():
    sigma = density_from_pure(haar_pure((2,), seed=6))
    joint = kron_state(density_matrix((2,), np.diag([1.0, 0.0])), sigma)
    out = partial_trace(joint, traced=(0,))
    np.testing.assert_allclose(out.matrix, sigma.matrix, atol=1e-12)


def test_partial_trace_bell():
    out = partial_trace(density_from_pure(bell()), traced=(1,))
    np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_ghz3():
    out = partial_trace(density_from_pure(ghz(3, 2)), traced=(2,))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


@pytest.mark.parametrize("traced", [(0,), (2,), (0, 2), (1, 2)])
def test_partial_trace_matches_loop_oracle(traced):
    rho = density_from_pure(haar_pure((2, 3, 2), seed=9))
    got = partial_trace(rho, traced)
    expected = ptrace_loop(rho.matrix, rho.dims, list(traced))
    np.testing.assert_allclose(got.matrix, expected, atol=1e-12)


def test_partial_trace_order_independence():
    rho = density_from_pure(haar_pure((2, 2, 3), seed=12))
    stepwise = partial_trace(partial_trace(rho, (2,)), (0,))
    direct = partial_trace(rho, (0, 2))
    np.testing.assert_allclose(stepwise.matrix, direct.matrix, atol=1e-12)


def test_partial_trace_rejects_everything():
    rho = density_from_pure(bell())
    with pytest.raises(PartitionError):
        partial_trace(rho, (0, 1))
    with pytest.raises(PartitionError):
        partial_trace(rho, (5,))


# -------------------------------------------------------- partial transpose


def test_partial_transpose_product_state_unchanged():
    rho = kron_state(
        density_matrix((2,), np.diag([1.0, 0.0])), density_matrix((2,), np.diag([1.0, 0.0]))
    )
    np.testing.assert_allclose(partial_transpose(rho, (0,)), rho.matrix)


def test_partial_transpose_bell_minimum_eigenvalue():
    pt = partial_transpose(density_from_pure(bell()), (0,))
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_is_involution():
    from entrank.states import DensityMatrix

    rho = density_from_pure(haar_pure((2, 2, 2), seed=14))
    once = partial_transpose(rho, (1,))
    again = partial_transpose(DensityMatrix(dims=rho.dims, matrix=once), (1,))
    np.testing.assert_allclose(again, rho.matrix, atol=1e-15)


def _ppt_state(name, tmp_path):
    from entrank.catalog import werner
    from entrank.statefile import density_payload, load_state, write_state_file

    if name == "mixed_of_rank":
        return mixed_of_rank((2, 2, 2), seed=22, rank=3)
    if name == "werner":
        return werner(0.6)
    mixture = mixed_of_rank((2, 3, 2), seed=23, rank=2)
    dense = DensityMatrix(dims=mixture.dims, matrix=mixture.matrix)
    path = tmp_path / "dense.json"
    write_state_file(path, density_payload(dense))
    return load_state(path)


@pytest.mark.parametrize("name", ["mixed_of_rank", "werner", "dense_file"])
def test_ppt_minimum_equals_checked_eigenvalues_exactly(name, tmp_path):
    state = _ppt_state(name, tmp_path)
    parts = [(i,) for i in range(state.n)] + ([(0, 2)] if state.n > 2 else [])
    for part in parts:
        expected = hermitian_eigenvalues(partial_transpose(state, part))[-1]
        assert ppt_minimum(state, part) == expected


factor_path_dims = pytest.mark.parametrize(
    "dims", [(2, 3, 2), (3, 2, 2, 2), (2,) * 6], ids=lambda dims: "x".join(map(str, dims))
)


def _all_parts(n):
    return [part for k in range(1, n) for part in combinations(range(n), k)]


def _eigvalsh_sizes(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


@factor_path_dims
@pytest.mark.parametrize("kind", ["pure", "mix1", "mix2", "mix3", "mix4"])
def test_ppt_factor_path_agrees_with_dense_reference(dims, kind, monkeypatch):
    """A state with an exact factor V (d × r) of one column takes −s_1·s_2 of
    the cut's Schmidt coefficients, with no eigensolve; one of more columns
    is compressed to ρ's support on the rest when d_A·r < d_rest, A being
    the smaller side of the cut. Over every proper part the value agrees
    with the full d × d transpose and gives the same flag."""
    state = (
        haar_pure(dims, seed=21)
        if kind == "pure"
        else mixed_of_rank(dims, seed=30 + len(dims), rank=int(kind[-1]))
    )
    r = state.factor.shape[1]
    d = int(np.prod(dims))
    sizes = _eigvalsh_sizes(monkeypatch)
    for part in _all_parts(len(dims)):
        reference = hermitian_eigenvalues(partial_transpose(state, part))[-1]
        del sizes[:]
        value = ppt_minimum(state, part)
        d_a = int(np.prod([dims[i] for i in part]))
        d_a = min(d_a, d // d_a)
        compressed = d_a * r < d // d_a
        assert sizes == ([] if r == 1 else [d_a * d_a * r if compressed else d]), part
        assert abs(value - reference) <= 1e-14, part
        # The discarded directions carry exact zeros of ρ^{T_A}.
        assert value <= 0.0 or not compressed, part
        assert (value < -PPT_NEG_TOL) == (reference < -PPT_NEG_TOL), part


@factor_path_dims
def test_ppt_factor_path_never_flags_separable_mixtures(dims):
    compressed = 0
    for seed in range(20):
        state = separable_mixture(dims, seed=seed)
        r = state.factor.shape[1]
        for part in _all_parts(len(dims)):
            value = ppt_minimum(state, part)
            assert value >= -PPT_NEG_TOL, (seed, part)
            d_a = int(np.prod([dims[i] for i in part]))
            if d_a * r < state.dim // d_a:
                compressed += 1
                assert value <= 0.0, (seed, part)
    assert compressed > 0


@pytest.mark.parametrize(
    "state",
    [
        ghz(6, 2),
        haar_pure((2, 3, 2), seed=25),
        mixed_of_rank((3, 2, 2, 2), seed=26, rank=2),
        "dense_file",
    ],
    ids=["ghz6", "pure-2x3x2", "mix2-3x2x2x2", "dense-2x3x2"],
)
def test_ppt_of_a_part_larger_than_its_complement(state, monkeypatch, tmp_path):
    """A part with d_A > d_rest is answered by transposing the rest: the
    value agrees with the transpose on the part itself, and a pure state
    needs no eigensolve."""
    if state == "dense_file":
        state = _ppt_state("dense_file", tmp_path)
    dims, d = state.dims, state.dim
    sizes = _eigvalsh_sizes(monkeypatch)
    larger = [p for p in _all_parts(len(dims)) if np.prod([dims[i] for i in p]) ** 2 > d]
    for part in larger[-10:]:  # the largest parts
        reference = hermitian_eigenvalues(partial_transpose(state, part))[-1]
        del sizes[:]
        value = ppt_minimum(state, part)
        assert abs(value - reference) <= 1e-14, part
        assert (value < -PPT_NEG_TOL) == (reference < -PPT_NEG_TOL), part
        if isinstance(state, PureState):
            assert sizes == [], part
    assert larger


def test_pure_state_matrix_is_the_projector():
    psi = haar_pure((2, 3), seed=24)
    assert np.array_equal(psi.matrix, density_from_pure(psi).matrix)
    assert "matrix" not in vars(psi)


def test_density_matrix_stores_hermitian_part():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.diag([0.5, 0.3, 0.2]) + 1e-11 * (g - g.conj().T)
    rho = density_matrix((3,), m)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)


def test_density_matrix_one_tolerance():
    skewed = np.array([[0.5, 1e-7], [0.0, 0.5]])
    with pytest.raises(NormalizationError, match="Hermitian"):
        density_matrix((2,), skewed)
    assert density_matrix((2,), skewed, atol=1e-6).matrix[0, 1] == 0.5e-7
    with pytest.raises(NormalizationError, match="trace"):
        density_matrix((2,), np.diag([0.5, 0.5 + 1e-7]))
    rescaled = density_matrix((2,), np.diag([0.5, 0.5 + 1e-7]), atol=1e-6).matrix
    assert np.trace(rescaled).real == pytest.approx(1.0, abs=1e-15)


def test_dense_matrix_is_decomposed_once(monkeypatch):
    """The eigh of the PSD check is the one ``factored`` uses, and the factor
    is bit-identical to that of a matrix factored from its own eigh."""
    rho = mixed_of_rank((2, 3, 2), seed=5, rank=3)
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    loaded = density_matrix(rho.dims, rho.matrix)
    factor = loaded.factored().factor
    assert calls == ["eigh"]
    bare = DensityMatrix(dims=loaded.dims, matrix=loaded.matrix)
    assert np.array_equal(factor, bare.factored().factor)
    assert np.array_equal(loaded.factored().factor, factor)  # a second call solves again


# ------------------------------------------------------------------- purity


def test_purity_check():
    """A state is pure iff the rank of the full particle set is 1."""
    assert subset_rank(density_from_pure(haar_pure((2, 2), seed=15)), (0, 1)) == 1
    assert subset_rank(density_matrix((2,), np.diag([0.5, 0.5])), (0,)) == 2


def test_purity_check_werner():
    from entrank.catalog import werner

    assert subset_rank(werner(0.9), (0, 1)) == 4


# ------------------------------------------------------------- schmidt rank


# The Schmidt rank of a pure state across S | rest is the rank of ρ_S, and its
# Schmidt coefficients are the spectrum of ρ_S.


def test_schmidt_rank_product_state():
    psi = product_pure((2, 2, 2), seed=16)
    assert subset_ranks(psi, masks([(0,), (1,), (0, 2)])) == [1, 1, 1]


def test_schmidt_rank_bell():
    assert subset_rank(bell(), (0,)) == 2
    np.testing.assert_allclose(bipartition_spectrum(bell(), (0,)), [0.5, 0.5], atol=1e-12)


def test_schmidt_rank_ghz3_pair_cut():
    assert subset_rank(ghz(3, 2), (0, 1)) == 2


def test_schmidt_rank_equal_from_complement():
    psi = haar_pure((2, 3, 2), seed=17)
    assert subset_rank(psi, (0,)) == subset_rank(psi, (1, 2)) == 2
    np.testing.assert_allclose(
        bipartition_spectrum(psi, (0,)), bipartition_spectrum(psi, (1, 2)), atol=1e-12
    )


def test_schmidt_coefficients_sum_to_one():
    psi = haar_pure((2, 2, 3), seed=18)
    assert bipartition_spectrum(psi, (0, 1)).sum() == pytest.approx(1.0, abs=1e-9)


def test_schmidt_rank_rejects_improper_subsets():
    with pytest.raises(PartitionError):
        subset_rank(bell(), ())
    with pytest.raises(PartitionError):
        subset_rank(bell(), (0, 2))


# -------------------------------------------------------------- properties


def test_pure_product_rank_is_multiplicative():
    """rank(rho_U x rho_V) = rank(rho_U) * rank(rho_V)."""
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = density_from_pure(haar_pure((2, 2), seed=int(rng.integers(1e6))))
        b = density_from_pure(haar_pure((2,), seed=int(rng.integers(1e6))))
        joint = kron_state(a, b)
        assert (
            numerical_rank(joint.matrix)
            == numerical_rank(a.matrix) * numerical_rank(b.matrix)
            == 1
        )


def test_local_unitaries_preserve_reduced_ranks():
    rng = np.random.default_rng(20)
    psi = tensor_pure(bell(), haar_pure((2,), seed=21))
    rotated = apply_local_unitaries(psi, [random_unitary(2, rng) for _ in range(3)])
    for size in (1,):
        from itertools import combinations

        for subset in combinations(range(3), size):
            assert subset_rank(psi, subset) == subset_rank(rotated, subset)


def test_partial_trace_of_tensor_product_returns_factor():
    a = density_from_pure(haar_pure((2, 2), seed=22))
    b = density_from_pure(haar_pure((3,), seed=23))
    joint = kron_state(a, b)
    back = partial_trace(joint, traced=(2,))
    assert np.linalg.norm(back.matrix - a.matrix) < 1e-9


def test_subset_rank_tolerance_is_shared():
    psi = haar_pure((2, 2), seed=24)
    loose = RankTolerance(rtol=0.9)
    assert subset_rank(psi, (0,), loose) == 1


# -------------------------------------------------- one kernel vs reference


def reference_ranks(state, rtol, atol):
    """{traced set: rank} for every traced set of 0..n-1 particles, from an
    index-loop partial trace and eigenvalues (no factor, no SVD)."""
    n = state.n
    out = {}
    for size in range(n):
        for traced in combinations(range(n), size):
            reduced = ptrace_loop(state.matrix, state.dims, traced) if traced else state.matrix
            out[traced] = rank_by_eigvalsh(reduced, rtol, atol)
    return out


def kernel_ranks(state, tol):
    n = state.n
    factored = state.factored(tol)
    return {
        traced: subset_rank(factored, tuple(i for i in range(n) if i not in traced), tol)
        for size in range(n)
        for traced in combinations(range(n), size)
    }


def bare(rho):
    """The same matrix without its factor, as a dense file would load it."""
    return DensityMatrix(dims=rho.dims, matrix=rho.matrix)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
def test_subset_rank_matches_partial_trace_reference(dims):
    states = [mixed_of_rank(dims, seed=30 + r, rank=r) for r in (1, 2, 5)]
    states.append(separable_mixture(dims, seed=35))
    states += [bare(rho) for rho in states]
    for rho in states:
        assert kernel_ranks(rho, RankTolerance()) == reference_ranks(rho, 1e-10, 1e-12)


def planted(base, eps, seed):
    """base plus a component at eps * lambda_max, orthogonal to base's support,
    renormalized: its eigenvalue ratio to lambda_max is exactly eps."""
    values, vectors = np.linalg.eigh(base.matrix)
    support = vectors[:, values > 1e-12]
    phi = haar_pure(base.dims, seed=seed).amplitudes
    phi = phi - support @ (support.conj().T @ phi)
    phi /= np.linalg.norm(phi)
    matrix = base.matrix + eps * values[-1] * np.outer(phi, phi.conj())
    return DensityMatrix(dims=base.dims, matrix=matrix / np.trace(matrix).real)


def structured(dims, eps):
    """(|00> + |11>)/sqrt(2) on particles 0, 1 times |0...0> on the rest, plus
    |0...01> at eps * lambda_max. Tracing out particle 1 halves lambda_max, so
    at eps = 0.9 * rtol the component still counts in that reduced state."""
    n = len(dims)
    bell_part = np.zeros(int(np.prod(dims)), dtype=complex)
    for k in (0, 1):
        bell_part[np.ravel_multi_index((k, k) + (0,) * (n - 2), dims)] = 1 / np.sqrt(2)
    extra = np.zeros_like(bell_part)
    extra[np.ravel_multi_index((0,) * (n - 1) + (1,), dims)] = 1.0
    matrix = np.outer(bell_part, bell_part) + eps * np.outer(extra, extra)
    return DensityMatrix(dims=tuple(dims), matrix=matrix / (1 + eps))


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
@pytest.mark.parametrize("eps", [1e-12, 9e-11, 1.1e-10, 1e-9])
def test_subset_rank_near_threshold_components(dims, eps):
    states = [planted(bare(mixed_of_rank(dims, seed=40, rank=2)), eps, seed=50),
              structured(dims, eps)]
    for k, rho in enumerate(states):
        for rtol in (1e-10, 1e-6, 1e-13):
            tol = RankTolerance(rtol=rtol, atol=0.0)
            assert kernel_ranks(rho, tol) == reference_ranks(rho, rtol, 0.0), (k, rtol)


def test_structured_component_counts_in_a_reduced_state():
    """The case a truncation at tol.cutoff(lambda_max) would get wrong."""
    rho = structured((2, 2, 2), 9e-11)
    assert subset_rank(rho, range(3)) == 1
    assert subset_rank(rho, (0, 2)) == reference_ranks(rho, 1e-10, 1e-12)[(1,)] == 3


# ---------------------------------------------------------- stacked kernel


def per_subset_ranks(state, subsets, tol):
    """The kernel's contract: one SVD of the reshaped factor per subset."""
    factored = state.factored(tol)
    return [rank_from_values(bipartition_spectrum(factored, s), tol) for s in subsets]


def every_subset_twice(n):
    subsets = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    return subsets + subsets[::-3]


@pytest.mark.parametrize(
    "dims", [(2, 3, 2), (3, 2, 2, 2), (3, 2) * 4], ids=lambda d: "x".join(map(str, d))
)
def test_subset_ranks_equal_one_svd_per_subset(dims):
    states = [haar_pure(dims, seed=60), product_pure(dims, seed=61)]
    states += [mixed_of_rank(dims, seed=62 + r, rank=r) for r in (1, 2, 3)]
    states.append(separable_mixture(dims, seed=66))
    subsets = every_subset_twice(len(dims))
    for k, state in enumerate(states):
        tol = RankTolerance()
        assert subset_ranks(state, masks(subsets), tol) == per_subset_ranks(state, subsets, tol), k


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
@pytest.mark.parametrize("eps", [1e-12, 9e-11, 1.1e-10, 1e-9])
def test_subset_ranks_near_threshold_components(dims, eps):
    states = [planted(bare(mixed_of_rank(dims, seed=40, rank=2)), eps, seed=50),
              structured(dims, eps)]
    subsets = every_subset_twice(len(dims))
    for k, rho in enumerate(states):
        for rtol in (1e-10, 1e-6, 1e-13):
            tol = RankTolerance(rtol=rtol, atol=0.0)
            expected = per_subset_ranks(rho, subsets, tol)
            assert subset_ranks(rho, masks(subsets), tol) == expected, (k, rtol)


def test_subset_ranks_of_no_subsets_and_of_bad_subsets():
    psi = ghz(3, 2)
    assert subset_ranks(psi, []) == []
    with pytest.raises(PartitionError):
        subset_ranks(psi, masks([(0,), ()]))
    with pytest.raises(PartitionError):
        subset_ranks(psi, masks([(0,), (3,)]))


def test_subset_ranks_takes_masks_and_subset_rank_takes_particles(monkeypatch):
    """The kernel reads int masks 1..2^n − 1, numpy integers too, and builds
    a pure state's cut from the side that holds particle 0 whichever side is
    listed; ``subset_rank`` still takes a particle list."""
    psi = haar_pure((2, 3, 2), seed=5)
    for bad in (0, 2**3, -1):
        with pytest.raises(PartitionError):
            subset_ranks(psi, [1, bad])
    assert subset_ranks(psi, [np.int64(1), np.uint8(6), np.intp(7)]) == [2, 2, 1]
    stacks = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        stacks.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for order in ([0b011, 0b100], [0b100, 0b011]):
        del stacks[:]
        assert subset_ranks(psi, order) == [2, 2]
        assert [stack.shape[0] for stack in stacks] == [1]
        assert np.array_equal(stacks[0], bipartition_matrix(psi, (0, 1))[None])
    monkeypatch.undo()
    assert subset_rank(psi, [2, 0]) == subset_ranks(psi, [0b101])[0] == 3
    for subset in ((), (3,), (-1,), (0, 0)):
        with pytest.raises(PartitionError):
            subset_rank(psi, subset)


def test_subset_ranks_decomposes_each_cut_once(monkeypatch):
    """A pure state's subset and its complement are one cut, and a repeated
    subset is taken once: a 6-qubit lattice at depth 3 lists 42 subsets, of
    which 20 form 10 complementary pairs, so there are 32 cuts. The 10
    balanced ones are decomposed and certify the other 22. A rank-2 mixture
    keeps all 42 cuts; its 35 of bound 8 certify the 6 five-qubit ones and
    the state rank."""
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    kept = [tuple(range(6))] + [
        tuple(i for i in range(6) if i not in traced)
        for k in range(1, 4)
        for traced in combinations(range(6), k)
    ]
    psi = haar_pure((2,) * 6, seed=69)
    subsets = kept + kept[:5]
    expected = per_subset_ranks(psi, subsets, RankTolerance())
    del decomposed[:]
    assert subset_ranks(psi, masks(subsets)) == expected
    assert decomposed == [10]
    rho = mixed_of_rank((2,) * 6, seed=69, rank=2)
    expected = per_subset_ranks(rho, subsets, RankTolerance())
    del decomposed[:]
    assert subset_ranks(rho, masks(subsets)) == expected
    assert decomposed == [35]


def depth5_kept():
    """The kept sets of a 10-particle lattice at depth 5."""
    return [
        tuple(i for i in range(10) if i not in traced)
        for k in range(1, 6)
        for traced in combinations(range(10), k)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_subset_ranks_threaded_and_inline_paths_agree(workers, monkeypatch):
    """Haar 2^10 at depth 5: 637 cuts of 16 kB, more than one chunk. With two
    allowed cores the chunks run on two worker threads, with one they run in
    the calling thread."""
    import threading

    from entrank import states

    ran_on = set()
    chunk_ranks = states._chunk_ranks

    def recording(*args):
        ran_on.add(threading.current_thread())
        return chunk_ranks(*args)

    monkeypatch.setattr(states, "_workers", lambda: workers)
    monkeypatch.setattr(states, "_chunk_ranks", recording)
    psi = haar_pure((2,) * 10, seed=67)
    kept = depth5_kept()
    assert len(kept) == 637
    tol = RankTolerance()
    assert subset_ranks(psi, masks(kept), tol) == per_subset_ranks(psi, kept, tol)
    if workers == 1:
        assert ran_on == {threading.current_thread()}
    else:
        assert len(ran_on) == 2 and threading.current_thread() not in ran_on


def test_subset_ranks_raises_a_worker_error_after_joining(monkeypatch):
    import threading

    from entrank import states

    def failing(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(states, "_workers", lambda: 2)
    monkeypatch.setattr(states, "_chunk_ranks", failing)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError):
        subset_ranks(haar_pure((2,) * 10, seed=67), masks(depth5_kept()))
    assert threading.active_count() == before


def test_subset_ranks_from_more_caller_threads_than_cores(monkeypatch):
    """Concurrent callers, each with its own worker threads, get their own ranks."""
    import sys
    import threading

    from entrank import states

    monkeypatch.setattr(states, "_workers", lambda: 2)
    tol = RankTolerance()
    cases = [haar_pure((2,) * 10, seed=71 + k) for k in range(2)] + [ghz(10, 2)]
    subsets = [s for k in range(5, 10) for s in combinations(range(10), k)]
    expected = [per_subset_ranks(psi, subsets, tol) for psi in cases]
    results = {}

    def call(k):
        results[k] = subset_ranks(cases[k % 3], masks(subsets), tol)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == {k: expected[k % 3] for k in range(6)}


def _run_python(code):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_small_lattice_starts_no_thread_and_cli_skips_concurrent_futures():
    """Work within one chunk runs inline: a bench-sized lattice starts no
    thread, and neither it nor importing the CLI loads concurrent.futures."""
    _run_python(
        "import sys, threading\n"
        "import entrank.cli\n"
        "from entrank.catalog import haar_pure\n"
        "from entrank.criteria import rank_lattice\n"
        "before = threading.active_count()\n"
        "rank_lattice(haar_pure((2,) * 5, seed=68), 2)\n"
        "assert threading.active_count() == before, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )


# ------------------------------------------------------- rank inheritance


def lattice_kept(n, depth):
    """The full set and the kept sets of an n-particle lattice to ``depth``."""
    return [tuple(range(n))] + [
        tuple(i for i in range(n) if i not in traced)
        for k in range(1, depth + 1)
        for traced in combinations(range(n), k)
    ]


def count_decomposed(monkeypatch):
    """A list that collects the number of matrices of every SVD call."""
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return decomposed


@pytest.mark.parametrize("depth", [5, 9])
@pytest.mark.parametrize("name", ["haar", "ghz", "w"])
def test_inferred_ranks_equal_one_svd_per_subset_on_pure_lattices(name, depth):
    from entrank.catalog import w

    psi = {"haar": haar_pure((2,) * 10, seed=80), "ghz": ghz(10, 2), "w": w(10)}[name]
    kept = lattice_kept(10, depth)
    tol = RankTolerance()
    assert subset_ranks(psi, masks(kept), tol) == per_subset_ranks(psi, kept, tol)


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_inferred_ranks_equal_one_svd_per_subset_on_mixtures(n, rank):
    rho = mixed_of_rank((2,) * n, seed=81 + rank, rank=rank)
    kept = lattice_kept(n, n - 1)
    tol = RankTolerance()
    assert subset_ranks(rho, masks(kept), tol) == per_subset_ranks(rho, kept, tol)


def test_inferred_ranks_keep_the_ancilla():
    """A pure state held with two equal columns: the ancilla of its
    purification is a product factor, so ρ of the rest plus the ancilla has
    the rank of ρ_rest, below its dimension 2·d_rest, and no positive-definite
    side without the ancilla may certify it."""
    psi = haar_pure((2,) * 10, seed=84)
    doubled = mix([(0.5, psi), (0.5, psi)])
    kept = lattice_kept(10, 9)
    tol = RankTolerance()
    ranks = subset_ranks(doubled, masks(kept), tol)
    assert ranks == per_subset_ranks(doubled, kept, tol)
    assert ranks == per_subset_ranks(psi, kept, tol)


def test_inferred_ranks_equal_one_svd_per_subset_on_qudits_and_blocks():
    from oracles import place_parts

    qudits = haar_pure((3, 2) * 4, seed=85)
    parts = ((0, 5), (1, 2, 7), (3,), (4, 6, 8, 9))
    blocks = PureState(*place_parts(
        [((2,) * len(p), haar_pure((2,) * len(p), seed=86 + j).amplitudes)
         for j, p in enumerate(parts)], parts))
    tol = RankTolerance()
    for state, depth in ((qudits, 7), (blocks, 9), (blocks, 5)):
        kept = lattice_kept(state.n, depth)
        assert subset_ranks(state, masks(kept), tol) == per_subset_ranks(state, kept, tol)


@pytest.mark.parametrize("rank", [1, 3])
def test_inferred_ranks_of_a_lattice_over_parts(rank):
    """rank_lattice over non-singleton parts (one kernel call of more than one
    chunk) against one SVD per entry."""
    from entrank.criteria import rank_lattice

    state = mixed_of_rank((2,) * 10, seed=87, rank=rank)
    parts = [(0, 7), (1,), (2, 3), (4,), (5, 9), (6,), (8,)]
    lattice = rank_lattice(state, 6, parts=parts)
    traced = list(lattice.entries)
    kept = [tuple(i for i in range(10) if i not in t) for t in traced]
    tol = RankTolerance()
    assert lattice.state_rank == per_subset_ranks(state, [tuple(range(10))], tol)[0]
    assert list(lattice.entries.values()) == per_subset_ranks(state, kept, tol)


@pytest.mark.parametrize(
    "state, depth, decomposed",
    [
        (haar_pure((2,) * 10, seed=88), 5, 126),
        (mixed_of_rank((2,) * 10, seed=89, rank=4), 9, 210),
        (ghz(10, 2), 5, 512),
    ],
    ids=["haar", "rank4", "ghz"],
)
def test_inferred_ranks_decompose_only_what_no_cut_certifies(
    state, depth, decomposed, monkeypatch
):
    """Haar 2^10 to depth 5 decomposes its 126 balanced cuts, which certify
    every smaller one and the state rank; a rank-4 mixture to depth 9 its 210
    cuts with d_S = 4·d_rest. GHZ(10) has two nonzero amplitudes (2² < 2^10),
    so its 511 proper cuts and the state rank are one support-form stack of
    512 matrices, with nothing inferred."""
    kept = lattice_kept(10, depth)
    tol = RankTolerance()
    expected = per_subset_ranks(state, kept, tol)
    counts = count_decomposed(monkeypatch)
    assert subset_ranks(state, masks(kept), tol) == expected
    assert sum(counts) == decomposed


def paired_state(margin, rtol, seed):
    """Ten qubits in five locally rotated pairs (k, k + 5), each
    sqrt(p)|00> + sqrt(1 - p)|11> with ((1 - p)/p)^5 = margin * rtol: a
    balanced cut that splits every pair has its smallest eigenvalue at
    ``margin`` times the cutoff rtol * lambda_max, and every other balanced
    cut is rank-deficient."""
    from oracles import place_parts

    q = (margin * rtol) ** 0.2
    pair = np.zeros(4, dtype=complex)
    pair[0], pair[3] = np.sqrt(1 / (1 + q)), np.sqrt(q / (1 + q))
    rng = np.random.default_rng(seed)
    states = [((2, 2), np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ pair)
              for _ in range(5)]
    return PureState(*place_parts(states, [(k, k + 5) for k in range(5)]))


@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("margin, inferred", [(50, 0), (200, 80)])
def test_inference_margin_boundary(margin, inferred, rtol, monkeypatch):
    """The 16 balanced cuts that split every pair certify their 80 four-qubit
    subsets at 200x the cutoff, and nothing at 50x, where the 126 balanced and
    210 four-qubit cuts are all decomposed; the ranks are those of one SVD
    per cut either way."""
    psi = paired_state(margin, rtol, seed=90)
    subsets = [s for k in (5, 4) for s in combinations(range(10), k)]
    tol = RankTolerance(rtol=rtol, atol=0.0)
    expected = per_subset_ranks(psi, subsets, tol)
    counts = count_decomposed(monkeypatch)
    assert subset_ranks(psi, masks(subsets), tol) == expected
    assert sum(counts) == 126 + 210 - inferred


def test_a_zero_cutoff_certifies_nothing():
    """At atol = rtol = 0 every nonzero s² counts, and a GHZ cut's exact
    zeros sit at the cutoff: no cut is positive definite with a margin, so
    every rank stays that of one SVD per cut."""
    tol = RankTolerance(rtol=0.0, atol=0.0)
    kept = lattice_kept(10, 5)
    ranks = subset_ranks(ghz(10, 2), masks(kept), tol)
    assert ranks == per_subset_ranks(ghz(10, 2), kept, tol)
    assert set(ranks[1:]) == {2}


# ---------------------------------------------------------- support form


def svd_inputs(monkeypatch):
    """A list that collects the shape and byte size of every SVD input."""
    inputs = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        inputs.append((a.shape, a.nbytes))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return inputs


def sparse_state(name):
    from entrank.catalog import six_qubit_benchmark, w

    return {
        "ghz10": lambda: ghz(10, 2),
        "ghz5x3": lambda: ghz(5, 3),
        "w10": lambda: w(10),
        "bell": bell,
        "paper6": six_qubit_benchmark,
        "ghz_w_mixture": lambda: mix([(0.3, ghz(10, 2)), (0.7, w(10))]),
    }[name]()


CUTOFFS = [
    RankTolerance(rtol=rtol, atol=atol)
    for rtol in (1e-6, 1e-10, 1e-13)
    for atol in (RankTolerance().atol, 0.0)
]


@pytest.mark.parametrize("name", ["ghz10", "ghz5x3", "w10", "bell", "paper6", "ghz_w_mixture"])
def test_support_form_equals_one_svd_per_subset(name, monkeypatch):
    """Every subset, at three rtols with and without atol. A state with m
    nonzero rows of V, m² < d, is decomposed as (m·r, m) support matrices
    built by ``_support_fill`` only; Bell (2² = 4) stays dense, its one 2×2
    cut of the same shape as a support matrix."""
    from entrank import states

    state = sparse_state(name)
    v = state.factor
    m, r = np.count_nonzero(v.any(axis=1)), v.shape[1]
    subsets = every_subset_twice(state.n)
    support_fill = states._support_fill
    for tol in CUTOFFS:
        expected = per_subset_ranks(state, subsets, tol)
        inputs = svd_inputs(monkeypatch)
        forms = []
        monkeypatch.setattr(
            states, "_support_fill", lambda *args: forms.append("support") or support_fill(*args)
        )
        assert subset_ranks(state, masks(subsets), tol) == expected, tol
        monkeypatch.undo()
        shapes = {shape[1:] for shape, _ in inputs}
        assert bool(forms) == (m * m < state.dim), forms
        if forms:
            assert shapes == {(m * r, m)}, shapes


def test_the_support_form_rule_reads_m_and_d(monkeypatch):
    """GHZ(3) has m = 2 nonzero amplitudes, 2² < 8: its three cuts and the
    state rank are one stack of 2×2 support matrices. W(3) has m = 3, 3² ≥ 8:
    its three cuts stay dense, d_S · d_rest = 8 entries each, in one stack,
    and certify the state rank."""
    from entrank.catalog import w

    subsets = every_subset_twice(3)
    expected = [2 if len(s) < 3 else 1 for s in subsets]
    inputs = svd_inputs(monkeypatch)
    assert subset_ranks(ghz(3, 2), masks(subsets)) == expected
    assert [shape for shape, _ in inputs] == [(4, 2, 2)]
    del inputs[:]
    assert subset_ranks(w(3), masks(subsets)) == expected
    assert [shape for shape, _ in inputs] == [(3, 4, 2)]


@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("factor, rank", [(0.5, 1), (2.0, 2)])
def test_a_tilted_ghz_state_at_the_cutoff(factor, rank, rtol):
    """sqrt(1 - eps²)|0…0> + eps|1…1> with eps² at 0.5 or 2 times the cutoff
    rtol·(1 - eps²): every proper cut has rank 1 or 2, in the support form
    and in one dense SVD per subset."""
    eps2 = factor * rtol / (1 + factor * rtol)
    amps = np.zeros(2**10, dtype=complex)
    amps[0], amps[-1] = np.sqrt(1 - eps2), np.sqrt(eps2)
    psi = pure_state((2,) * 10, amps)
    tol = RankTolerance(rtol=rtol, atol=0.0)
    subsets = lattice_kept(10, 9)[1:]
    assert subset_ranks(psi, masks(subsets), tol) == per_subset_ranks(psi, subsets, tol)
    assert set(subset_ranks(psi, masks(subsets), tol)) == {rank}


def test_no_stack_exceeds_a_chunk(monkeypatch):
    """W(12) to depth 6 is 2048 support matrices of 12×12 (4.7 MB), a GHZ/W
    mixture to depth 9 1023 of 22×11, and Haar 2^10 to depth 5 126 dense
    cuts of 16 kB: every SVD input of more than one matrix fits in
    ``CHUNK_BYTES``."""
    from entrank.catalog import w
    from entrank.states import CHUNK_BYTES

    cases = [(w(12), 6, 2048), (sparse_state("ghz_w_mixture"), 9, 1023),
             (haar_pure((2,) * 10, seed=91), 5, 126)]
    inputs = svd_inputs(monkeypatch)
    for state, depth, matrices in cases:
        del inputs[:]
        subset_ranks(state, masks(lattice_kept(state.n, depth)))
        assert len(inputs) > 1 and sum(shape[0] for shape, _ in inputs) == matrices
        assert all(nbytes <= CHUNK_BYTES or shape[0] == 1 for shape, nbytes in inputs)


@pytest.mark.parametrize("name, cuts", [("ghz10", 512), ("w10", 512), ("ghz_w_mixture", 1023)])
def test_no_support_form_cut_certifies_another(name, cuts, monkeypatch):
    """A support matrix at full rank says nothing about ρ_S on the full d_S
    space: every 2×2 cut of GHZ(10) is at full rank with a wide margin, yet
    its reduced states of 2 to 9 qubits have rank 2. So a support-form call
    decomposes every distinct cut of a lattice to depth n − 1, and its
    ranks are those of one dense SVD per subset."""
    state = sparse_state(name)
    kept = lattice_kept(10, 9)
    tol = RankTolerance()
    expected = per_subset_ranks(state, kept, tol)
    counts = count_decomposed(monkeypatch)
    assert subset_ranks(state, masks(kept), tol) == expected
    assert sum(counts) == cuts


def support_bound(state, subset):
    """min(u, v·r) for the u distinct subset-digit patterns and v distinct
    rest-digit patterns among the nonzero rows of the factor."""
    v = state.factor
    digits = np.array(np.unravel_index(np.flatnonzero(v.any(axis=1)), state.dims)).T
    rest = [i for i in range(state.n) if i not in subset]
    u = len({tuple(row[list(subset)]) for row in digits})
    return min(u, len({tuple(row[rest]) for row in digits}) * v.shape[1])


def random_sparse(dims, m, seed):
    rng = np.random.default_rng(seed)
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[rng.choice(amps.size, m, replace=False)] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return pure_state(dims, amps / np.linalg.norm(amps))


def test_zero_cutoff_ranks_of_sparse_states_stay_within_their_support():
    """At atol = rtol = 0 every nonzero s² counts, rounding noise included,
    so no method reads exact ranks there. The support form's padding is
    exact zeros and adds none: each rank lies between the rank at a positive
    cutoff and min(u, v·r) of its support matrix. W(10) reads its true rank
    2 at every cut whose bound is 2, the single particles; five random
    states with 7 nonzero amplitudes on (2, 3, 2, 2, 3, 2) read at most 7."""
    from entrank.catalog import w

    zero = RankTolerance(rtol=0.0, atol=0.0)
    cases = [w(10)] + [random_sparse((2, 3, 2, 2, 3, 2), 7, seed=92 + k) for k in range(5)]
    for state in cases:
        subsets = every_subset_twice(state.n)[: 2**state.n - 2]
        ranks = subset_ranks(state, masks(subsets), zero)
        floor = subset_ranks(state, masks(subsets), RankTolerance())
        bounds = [support_bound(state, s) for s in subsets]
        assert all(f <= k <= b for f, k, b in zip(floor, ranks, bounds))
        assert max(ranks) <= 7
    w_ranks = subset_ranks(cases[0], masks([(i,) for i in range(10)]), zero)
    assert w_ranks == [2] * 10
