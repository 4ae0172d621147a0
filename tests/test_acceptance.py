"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Tolerances are pinned here, not configurable.
"""

import time
from itertools import combinations

import numpy as np

from entrank.catalog import (
    ghz,
    haar_pure,
    product_pure,
    separable_mixture,
    six_qubit_benchmark,
    werner,
)
from entrank import criteria
from entrank.criteria import (
    ENTANGLED,
    INCONCLUSIVE,
    check_rank_monotonicity,
    rank_lattice,
)
from entrank.factorize import factorize_pure
from entrank.linalg import hermitian_eigenvalues
from entrank.states import (
    PureState,
    mix,
    pure_state,
    subset_rank,
)
from oracles import (
    apply_local_unitaries,
    partial_transpose,
    place_parts,
    random_unitary,
    rank_by_eigvalsh,
    reduced_by_axis_trace,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_six_qubit_regression():
    """Factorization of the six-qubit benchmark state."""
    psi = six_qubit_benchmark()
    started = time.perf_counter()
    result = factorize_pure(psi)
    elapsed = time.perf_counter() - started

    ok = result.partition == ((0,), (1, 2), (3, 4, 5))
    ok &= result.residual <= 1e-8
    step1, step2 = result.trace_log[0], result.trace_log[1]
    ok &= step1.step == 1 and dict(step1.tested).get((0,)) == 1
    ok &= step1.accepted == ((0,),)
    ok &= step2.step == 2 and dict(step2.tested).get((1, 2)) == 1
    ok &= step2.accepted == ((1, 2),)
    ok &= elapsed < 1.0
    report(
        "criterion 1 (six-qubit factorization)",
        bool(ok),
        f"partition {{1}}|{{2,3}}|{{4,5,6}}, residual {result.residual:.2e}, {elapsed:.3f} s",
    )


def test_criterion_2_werner_insufficiency():
    """Rank checks stay silent on Werner states while PPT detects p > 1/3."""
    ok = True
    worst = 0.0
    for p in (0.4, 0.5, 0.6, 0.8):
        rho = werner(p)
        ok &= len(check_rank_monotonicity(rank_lattice(rho, 1))) == 0  # only depth for N=2
        ok &= criteria.verdict(rank_lattice(rho, 1)).tag == INCONCLUSIVE
        low = hermitian_eigenvalues(partial_transpose(rho, (0,)))[-1]
        ok &= low < -1e-9
        expected = (1 - 3 * p) / 4
        worst = max(worst, abs(low - expected))
        ok &= abs(low - expected) <= 1e-9
    # boundary sanity: at and below p = 1/3 the transpose stays nonnegative
    for p in (0.2, 1 / 3):
        low = hermitian_eigenvalues(partial_transpose(werner(p), (0,)))[-1]
        ok &= not low < -1e-9
    report(
        "criterion 2 (werner insufficiency)",
        bool(ok),
        f"4 weights inconclusive by rank, PPT negative, oracle gap {worst:.1e}",
    )


def test_criterion_3_necessity_property_suite():
    """1000 random separable mixtures never violate a rank inequality."""
    rng = np.random.default_rng(20260809)
    started = time.perf_counter()
    checked = 0
    ok = True
    for trial in range(1000):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        rho = separable_mixture(dims, seed=trial)
        for depth in range(1, n):
            violations = check_rank_monotonicity(rank_lattice(rho, depth))
            ok &= len(violations) == 0
            checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(
        "criterion 3 (necessity on separable mixtures)",
        bool(ok),
        f"1000 states, {checked} lattice scans, zero violations, {elapsed:.1f} s",
    )


def _random_block_pure(rng: np.random.Generator, n_max: int, seed: int) -> PureState:
    """Tensor product of 1..3 haar blocks covering up to n_max qubits."""
    n_blocks = int(rng.integers(1, 4))
    sizes = []
    remaining = n_max
    for b in range(n_blocks):
        slack = remaining - 2 * (n_blocks - b - 1)
        sizes.append(int(rng.integers(2, max(2, slack) + 1)) if slack > 2 else 2)
        remaining -= sizes[-1]
    amps = np.array([1.0 + 0.0j])
    for b, size in enumerate(sizes):
        amps = np.kron(amps, haar_pure((2,) * size, seed=seed * 17 + b).amplitudes)
    return PureState(dims=(2,) * sum(sizes), amplitudes=amps)


def test_criterion_4_pure_state_oracle_equivalence():
    """Factorize's partition matches a brute-force scan of every bipartition:
    entangled iff some part holds two or more particles, fully entangled iff
    the one part holds them all."""
    rng = np.random.default_rng(4)
    ok = True
    states = 0
    for trial in range(500):
        n = int(rng.integers(2, 6))
        kind = trial % 3
        if kind == 0:
            psi = haar_pure((2,) * n, seed=trial)
        elif kind == 1:
            psi = product_pure((2,) * n, seed=trial)
        else:
            psi = _random_block_pure(rng, n_max=5, seed=trial)
            n = psi.n
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())

        oracle_ranks = {}
        for size in range(1, n):
            for keep in combinations(range(n), size):
                reduced = reduced_by_axis_trace(rho, psi.dims, keep)
                oracle_ranks[keep] = rank_by_eigvalsh(reduced)

        oracle_entangled = any(rank > 1 for rank in oracle_ranks.values())
        oracle_fully = all(rank > 1 for rank in oracle_ranks.values())
        partition = factorize_pure(psi).partition
        ok &= any(len(part) > 1 for part in partition) == oracle_entangled
        ok &= (len(partition) == 1) == oracle_fully

        for keep, rank in oracle_ranks.items():
            complement = tuple(i for i in range(n) if i not in keep)
            ok &= rank == oracle_ranks[complement]  # complement symmetry, exact
            ok &= subset_rank(psi, keep) == rank
        states += 1
        if not ok:
            break
    report(
        "criterion 4 (pure-state oracle equivalence)",
        bool(ok),
        f"{states} states, partition readings and complement symmetry exact",
    )


def test_criterion_5_two_qutrit_detection():
    """Rank-2 two-qutrit mixture is flagged with witness 3 > 2."""
    omega = np.exp(2j * np.pi / 3)
    a = np.zeros(9, dtype=complex)
    b = np.zeros(9, dtype=complex)
    for k in range(3):
        a[k * 3 + k] = 1 / np.sqrt(3)
        b[k * 3 + k] = omega**k / np.sqrt(3)
    rho = mix([(0.5, pure_state((3, 3), a)), (0.5, pure_state((3, 3), b))])

    verdict = criteria.verdict(rank_lattice(rho, 1))
    ok = verdict.tag == ENTANGLED
    ok &= any(v.child_rank == 3 and v.parent_rank == 2 for v in verdict.witnesses)

    # eigendecomposition oracle: state spectrum {1/2, 1/2, 0...}, each
    # single-particle reduced state is maximally mixed
    spectrum = np.linalg.eigvalsh(rho.matrix)[::-1]
    ok &= np.allclose(spectrum[:2], [0.5, 0.5], atol=1e-9)
    ok &= np.allclose(spectrum[2:], 0.0, atol=1e-9)
    reduced = reduced_by_axis_trace(rho.matrix, (3, 3), (0,))
    ok &= np.allclose(np.linalg.eigvalsh(reduced), [1 / 3] * 3, atol=1e-9)
    report(
        "criterion 5 (two-qutrit rank witness)",
        bool(ok),
        "ENTANGLED with reduced rank 3 > state rank 2, spectra within 1e-9",
    )


def test_criterion_6_factorization_round_trip():
    """Factorization recovers 200 constructed block partitions exactly."""
    rng = np.random.default_rng(6)
    ok = True
    done = 0
    worst = 0.0
    for trial in range(200):
        n_blocks = int(rng.integers(1, 4))
        sizes = []
        remaining = 8
        for b in range(n_blocks):
            slack = remaining - 2 * (n_blocks - b - 1)
            sizes.append(int(rng.integers(2, slack + 1)) if slack > 2 else 2)
            remaining -= sizes[-1]
        n = sum(sizes)

        amps = np.array([1.0 + 0.0j])
        for b, size in enumerate(sizes):
            amps = np.kron(amps, haar_pure((2,) * size, seed=trial * 31 + b).amplitudes)
        block_state = PureState(dims=(2,) * n, amplitudes=amps)

        # scatter the particles with a random permutation: new label of old
        # particle i is perm[i]
        perm = [int(x) for x in rng.permutation(n)]
        inverse = np.argsort(perm)
        tensor = block_state.amplitudes.reshape(block_state.dims)
        scattered = PureState(
            dims=(2,) * n, amplitudes=tensor.transpose(inverse).reshape(-1)
        )

        expected = []
        offset = 0
        for size in sizes:
            expected.append(tuple(sorted(perm[offset + k] for k in range(size))))
            offset += size
        expected.sort(key=lambda part: part[0])

        result = factorize_pure(scattered)
        ok &= result.partition == tuple(expected)
        _, amplitudes = place_parts(
            [(f.dims, f.amplitudes) for f in result.factors], result.partition
        )
        residual = np.linalg.norm(
            np.outer(scattered.amplitudes, scattered.amplitudes.conj())
            - np.outer(amplitudes, amplitudes.conj())
        )
        worst = max(worst, residual)
        ok &= residual <= 1e-8
        done += 1
        if not ok:
            break
    report(
        "criterion 6 (block factorization round trip)",
        bool(ok),
        f"{done} states, partitions exact, worst residual {worst:.1e}",
    )


def test_criterion_7_ghz_scaling():
    """GHZ(n) ranks are exactly 2 everywhere; n = 10 stays inside budget."""
    ok = True
    for n in range(2, 9):
        lattice = rank_lattice(ghz(n, 2), n - 1)
        ok &= lattice.state_rank == 1
        ok &= set(lattice.entries.values()) == {2}
        ok &= factorize_pure(ghz(n, 2)).partition == (tuple(range(n)),)

    started = time.perf_counter()
    for n in (9, 10):
        lattice = rank_lattice(ghz(n, 2), 2)
        ok &= lattice.state_rank == 1
        ok &= set(lattice.entries.values()) == {2}
        ok &= factorize_pure(ghz(n, 2)).partition == (tuple(range(n)),)
    analyze_elapsed = time.perf_counter() - started
    ok &= analyze_elapsed < 60.0

    started = time.perf_counter()
    result = factorize_pure(ghz(10, 2))
    factorize_elapsed = time.perf_counter() - started
    ok &= result.partition == (tuple(range(10)),)
    ok &= result.fully_entangled_parts == (tuple(range(10)),)
    ok &= factorize_elapsed < 120.0
    report(
        "criterion 7 (ghz rank-lattice scaling)",
        bool(ok),
        f"n=2..10 ranks all 2, n=10 analysis {analyze_elapsed:.2f} s,"
        f" factorization {factorize_elapsed:.2f} s",
    )


def test_criterion_8_local_unitary_invariance():
    """Rank lattices and partitions survive per-particle rotations."""
    rng = np.random.default_rng(8)
    ok = True
    pairs = 0
    for trial in range(100):
        if trial % 2 == 0:
            psi = _random_block_pure(rng, n_max=6, seed=trial + 900)
        else:
            n = int(rng.integers(3, 7))
            psi = haar_pure((2,) * n, seed=trial + 900)
        unitaries = [random_unitary(d, rng) for d in psi.dims]
        rotated = apply_local_unitaries(psi, unitaries)

        before = rank_lattice(psi, psi.n - 1)
        after = rank_lattice(rotated, psi.n - 1)
        ok &= before.state_rank == after.state_rank
        ok &= before.entries == after.entries
        ok &= factorize_pure(psi).partition == factorize_pure(rotated).partition
        pairs += 1
        if not ok:
            break
    report(
        "criterion 8 (local-unitary invariance)",
        bool(ok),
        f"{pairs} state/unitary pairs, lattices and partitions identical",
    )
