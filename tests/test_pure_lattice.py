"""A pure product's lattice counted from its blocks, the kernel's spectra
form that gives the blocks' spectra, and factorize's one inherited kernel
call.

``criteria.rank_lattice`` takes the entries of a large lattice, over
particles or over the parts of a partition, of a state with a one-column
factor from ``factorize.product_ranks`` when a probe over the single
particles finds one of rank 1: the product's entries are counted from its
blocks' spectra where that count is certain. Every other entry, and every
entry of any other lattice, comes from one kernel call. Each test compares
the lattice with one direct ``subset_ranks`` call over every kept set, or
with the lattice that the kernel alone gives.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrank import cli, criteria, factorize
from entrank.catalog import ghz, haar_pure, mixed_of_rank, w
from entrank.factorize import factorize_pure
from entrank.linalg import DEFAULT_TOLERANCE, RankTolerance, rank_from_values
from entrank.statefile import pure_payload, write_state_file
from entrank.states import (
    CHUNK_BYTES,
    bipartition_matrix,
    canonical_pure,
    particles_of,
    pure_state,
    subset_ranks,
    subset_spectra,
)
from oracles import masks, place_parts, random_unitary

TOLERANCES = [
    RankTolerance(rtol=1e-10),
    RankTolerance(rtol=1e-6),
    RankTolerance(rtol=0.0),
    RankTolerance(rtol=0.0, atol=0.0),
]


def direct_entries(state, lattice, tol):
    """The lattice's entries from one kernel call over every kept set."""
    kept = [tuple(i for i in range(state.n) if i not in t) for t in lattice.entries]
    return dict(zip(lattice.entries, subset_ranks(state, masks(kept), tol)))


def spy(monkeypatch):
    """Sizes of the lattice's kernel calls (``kernel``, made by ``criteria``)
    and of ``factorize``'s (``factorize``: the probe and the sweeps), the
    calls of the sweeps and the reconstruction (``factorize._split``);
    ``product`` is set once a lattice takes a block's spectra to count
    entries from."""
    calls = {"kernel": [], "factorize": [], "sweeps": 0, "product": False}
    split, product = factorize._split, factorize._block_spectra

    def counting_kernel(key, kernel):
        def counting(state, subsets, tol):
            subsets = list(subsets)
            calls[key].append(len(subsets))
            return kernel(state, subsets, tol)

        return counting

    def counting_sweeps(psi, tol):
        calls["sweeps"] += 1
        return split(psi, tol)

    def counting_product(*args):
        calls["product"] = True
        return product(*args)

    monkeypatch.setattr(
        criteria, "ensemble_ranks", counting_kernel("kernel", criteria.ensemble_ranks)
    )
    monkeypatch.setattr(
        factorize, "subset_ranks", counting_kernel("factorize", factorize.subset_ranks)
    )
    monkeypatch.setattr(factorize, "_split", counting_sweeps)
    monkeypatch.setattr(factorize, "_block_spectra", counting_product)
    return calls


def schmidt_block(d1, d2, spectrum, seed):
    """Amplitudes on C^d1 ⊗ C^d2 with the given Schmidt spectrum (eigenvalues
    of either reduced state), in random local bases."""
    rng = np.random.default_rng(seed)
    k = len(spectrum)
    u = random_unitary(d1, rng)[:, :k]
    w = random_unitary(d2, rng)[:, :k]
    return ((u * np.sqrt(spectrum)) @ w.T).reshape(-1)


# A product qubit, which the probe finds, splits off in the first sweep, and
# the entries are counted from the blocks' spectra.
PARTS = ((0,), (1, 3, 5, 7), (2, 4, 6, 8))


def tailed_product():
    """Nine qubits: one alone and two interleaved blocks of four. Across its
    first two qubits each block has eigenvalue 1e-6, so the cut through both
    has the product eigenvalue 1e-12, which rtol 1e-10 drops although each
    block's tail alone is kept."""
    a = schmidt_block(4, 4, [0.6, 0.3, 0.1 - 1e-6, 1e-6], seed=1)
    b = schmidt_block(4, 4, [0.5, 0.3, 0.2 - 1e-6, 1e-6], seed=2)
    one = haar_pure((2,), seed=3).amplitudes
    dims, amplitudes = place_parts([((2,), one), ((2,) * 4, a), ((2,) * 4, b)], PARTS)
    return pure_state(dims, amplitudes / np.linalg.norm(amplitudes))


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"rtol{t.rtol}-atol{t.atol}")
def test_product_with_schmidt_tails_matches_the_direct_lattice(tol, monkeypatch):
    psi = tailed_product()
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi, psi.n - 1, tol)
    # At a zero cutoff rounding noise gives the lone qubit rank 2 in the
    # probe, so that lattice is one direct call.
    assert calls["sweeps"] == (1 if tol.rtol or tol.atol else 0)
    assert lattice.entries == direct_entries(psi, lattice, tol)
    if tol == TOLERANCES[0]:
        # Tracing out the second halves of both blocks keeps 4 × 4 product
        # eigenvalues; the 1e-6 · 1e-6 one is below the cutoff.
        assert lattice.entries[(5, 6, 7, 8)] == 15
        assert calls["product"] and calls["kernel"] == [1]  # the state rank alone
        assert calls["factorize"][0] == 9  # the probe


SPECTRA_STATES = {
    "haar": haar_pure((2,) * 8, seed=90),
    "ghz": ghz(8, 2),
    "w": w(8),
    "qudit": haar_pure((3, 2, 3, 2, 2), seed=91),
    "mix": mixed_of_rank((2,) * 6, seed=92, rank=2),
    "tailed": tailed_product(),
}


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"rtol{t.rtol}-atol{t.atol}")
@pytest.mark.parametrize("name", SPECTRA_STATES)
def test_ranks_counted_from_the_spectra_are_the_kernel_ranks(name, tol):
    """Cut for cut, over every subset and repeats, including those whose
    rank the kernel infers without an SVD."""
    state = SPECTRA_STATES[name].factored()
    full = (1 << state.n) - 1
    subsets = list(range(1, full + 1)) + list(range(full, 0, -5))
    counted = [rank_from_values(s * s, tol) for s in subset_spectra(state, subsets)]
    assert counted == subset_ranks(state, subsets, tol)


@pytest.mark.parametrize(
    "factor",
    [
        haar_pure((2,) * 6, seed=93),
        haar_pure((3, 2, 2), seed=94),
        ghz(5, 2),
        haar_pure((2,), seed=95),
    ],
    ids=["haar", "qudit", "ghz", "one-qubit"],
)
def test_block_spectra_rows_are_both_sides_schmidt_coefficients(factor):
    """Row x and row full ^ x: one SVD of the cut's amplitude matrix, then
    zeros; rows 0 and full: 1. A dense factor's padding is exact zeros; GHZ's
    support-form rows are two long, and the SVD's zeros beyond them."""
    table = factorize._block_spectra(factor)
    full = (1 << factor.n) - 1
    assert table.shape[0] == full + 1
    assert table[0].tolist() == table[full].tolist() == [1.0] + [0.0] * (table.shape[1] - 1)
    dense = np.count_nonzero(factor.amplitudes) ** 2 >= factor.dim
    for x in range(1, full):
        want = np.linalg.svd(bipartition_matrix(factor, particles_of(x)), compute_uv=False)
        assert np.array_equal(table[x], table[full ^ x])
        width = max(len(want), table.shape[1])
        row, want = (np.pad(a, (0, width - len(a))) for a in (table[x], want))
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
        assert not dense or not row[np.count_nonzero(want) :].any()


def near_product(eps):
    """φ + εχ normalized: φ a product of Haar blocks on ``PARTS``, χ Haar."""
    blocks = [haar_pure((2,) * len(p), seed=40 + j) for j, p in enumerate(PARTS)]
    dims, phi = place_parts([(b.dims, b.amplitudes) for b in blocks], PARTS)
    v = phi + eps * haar_pure(dims, seed=50).amplitudes
    return pure_state(dims, v / np.linalg.norm(v))


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 5e-9, 6e-9, 7e-9, 1e-8, 1e-6])
def test_near_product_across_the_residual_band_matches_the_direct_lattice(eps, monkeypatch):
    """With rtol 1e-16 and no atol the cutoff's √ is about 1e-8·s_1, so a
    perturbation ε of a few 1e-9 leaves ψ's near-zero singular values, and
    the residual, within reach of the threshold: part of the entries go to
    the kernel. Larger ε exceeds the residual threshold or keeps ψ fully
    entangled; the lattice matches the direct one throughout."""
    psi = near_product(eps)
    calls = spy(monkeypatch)
    deferred = {}
    for tol in TOLERANCES + [RankTolerance(rtol=1e-16, atol=0.0)]:
        del calls["kernel"][:]
        lattice = criteria.rank_lattice(psi, psi.n - 1, tol)
        assert lattice.entries == direct_entries(psi, lattice, tol), tol
        deferred[tol.rtol, tol.atol] = calls["kernel"][0] - 1
    if eps in (5e-9, 6e-9, 7e-9):
        assert calls["product"]
        assert 0 < deferred[1e-16, 0.0] < len(lattice.entries)


@pytest.mark.parametrize("psi", [w(10), haar_pure((2,) * 8, seed=8)], ids=["w10", "haar8"])
def test_zero_cutoff_ranks_do_not_depend_on_the_listed_side(psi):
    """At a zero cutoff rounding noise counts as rank, so a cut's rank is
    that of the one matrix the kernel builds for it: from the side holding
    particle 0, in the support form (W) and for the balanced cuts of a dense
    factor alike, whichever side a call lists and whatever else it holds."""
    zero = RankTolerance(rtol=0.0, atol=0.0)
    n = psi.n
    with_first = [s for k in range(1, n) for s in combinations(range(n), k) if s[0] == 0]
    complements = [tuple(i for i in range(n) if i not in s) for s in with_first]
    alone = [subset_ranks(psi, masks([s]), zero)[0] for s in complements]
    assert subset_ranks(psi, masks(with_first), zero) == subset_ranks(psi, masks(complements), zero) == alone
    lattice = criteria.rank_lattice(psi, n - 1, zero)
    assert lattice.entries == direct_entries(psi, lattice, zero)


def reference_log(psi, tol):
    """factorize's sweeps with one kernel call per size, as (step, remainder,
    tested, accepted) tuples."""
    log, remainder, size = [], list(range(psi.n)), 1
    while 2 * size <= len(remainder):
        subsets = list(combinations(remainder, size))
        tested = tuple(zip(subsets, subset_ranks(psi, masks(subsets), tol)))
        accepted = tuple(s for s, rank in tested if rank == 1)
        log.append((size, tuple(remainder), tested, accepted))
        remainder = [i for i in remainder if not any(i in s for s in accepted)]
        size += 1
    return log


def late_split(n, block, seed):
    """A Haar state of the qubits ``block`` times a Haar state of the rest."""
    rest = tuple(i for i in range(n) if i not in block)
    parts = sorted([block, rest], key=lambda p: p[0])
    states = [haar_pure((2,) * len(p), seed=seed + j) for j, p in enumerate(parts)]
    dims, amplitudes = place_parts([(s.dims, s.amplitudes) for s in states], parts)
    return pure_state(dims, amplitudes)


@st.composite
def late_splits(draw):
    """A Haar block of 2 or 3 qubits at random positions, times a Haar state
    of the rest: the first sweep accepts nothing, so the rest come from one
    inherited call, and a later sweep splits the block off."""
    n = draw(st.integers(9, 10))
    block = tuple(sorted(draw(st.permutations(range(n)))[: draw(st.integers(2, 3))]))
    return late_split(n, block, draw(st.integers(0, 10**6)))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(late_splits())
def test_inherited_sweeps_log_what_one_call_per_size_logs(psi):
    result = factorize_pure(psi)
    expected = reference_log(canonical_pure(psi.dims, psi.amplitudes), DEFAULT_TOLERANCE)
    assert [(r.step, r.remainder, r.tested, r.accepted) for r in result.trace_log] == expected
    assert len(result.partition) == 2
    # No particle has rank 1, so the lattice is one direct call.
    lattice = criteria.rank_lattice(psi, psi.n - 1)
    assert lattice.entries == direct_entries(psi, lattice, DEFAULT_TOLERANCE)


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"rtol{t.rtol}-atol{t.atol}")
def test_qudit_block_product_matches_the_direct_lattice(tol, monkeypatch):
    """A qutrit alone and two interleaved blocks over qubits and qutrits:
    the blocks' spectra have unequal lengths, padded to one width."""
    dims = (3, 2, 3, 2, 3, 2, 2, 2)
    parts = ((0,), (1, 3, 5), (2, 4, 6, 7))
    blocks = [haar_pure(tuple(dims[i] for i in p), seed=60 + j) for j, p in enumerate(parts)]
    psi = pure_state(*place_parts([(b.dims, b.amplitudes) for b in blocks], parts))
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi, psi.n - 1, tol)
    assert lattice.entries == direct_entries(psi, lattice, tol)
    if tol.rtol or tol.atol:  # at a zero cutoff rounding noise keeps every rank above 1
        assert calls["product"]


def test_haar_factorize_makes_two_kernel_calls(monkeypatch):
    """Size 1 accepts nothing, so sizes 2..4 share the second call."""
    calls = []
    kernel = factorize.subset_ranks
    monkeypatch.setattr(
        factorize,
        "subset_ranks",
        lambda state, subsets, tol: calls.append(len(subsets)) or kernel(state, subsets, tol),
    )
    result = factorize_pure(haar_pure((2,) * 8, seed=3))
    assert calls == [8, 28 + 56 + 70]
    assert result.partition == (tuple(range(8)),)


def test_small_lattice_makes_one_kernel_call_and_no_sweep(monkeypatch):
    psi = haar_pure((2,) * 5, seed=4)
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi)
    assert calls == {"kernel": [1 + 15], "factorize": [], "sweeps": 0, "product": False}
    assert lattice.entries == direct_entries(psi, lattice, DEFAULT_TOLERANCE)


def test_fully_entangled_lattice_is_the_probe_and_one_kernel_call(monkeypatch):
    """A 9-qubit Haar lattice at depths 4 and 8 spans more than one chunk, so
    the probe ranks its single particles; none has rank 1, so one kernel call
    takes the state rank and every entry, and neither the sweeps nor the
    traced ``factorize_pure`` is entered."""
    psi = haar_pure((2,) * 9, seed=5)
    calls = spy(monkeypatch)
    monkeypatch.setattr(factorize, "factorize_pure", None)
    for depth in (4, 8):
        lattice = criteria.rank_lattice(psi, depth)
        assert lattice.entries == direct_entries(psi, lattice, DEFAULT_TOLERANCE)
    assert calls == {
        "kernel": [1 + 255, 1 + 510], "factorize": [9, 9], "sweeps": 0, "product": False
    }


def test_late_split_lattice_is_the_probe_and_one_kernel_call(monkeypatch):
    """A Haar pair times a Haar state of the other eight qubits first splits
    at size 2, so the probe finds no rank-1 particle and the lattice is one
    direct call."""
    psi = late_split(10, (2, 7), seed=12)
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi, psi.n - 1)
    assert lattice.entries == direct_entries(psi, lattice, DEFAULT_TOLERANCE)
    assert calls == {"kernel": [1 + 1022], "factorize": [10], "sweeps": 0, "product": False}


def test_shallow_lattice_of_a_block_product_is_counted_from_its_blocks(monkeypatch):
    """A 12-qubit product of Haar blocks on the benchmark's block12 parts at
    depth 2: its 78 traced sets span more than one chunk and qubit 0 has rank
    1, so the sweeps split the product and every entry is counted from the
    blocks; the lattice's kernel call holds the state rank alone."""
    parts = ((0,), (1, 2), (3, 4, 5), tuple(range(6, 12)))
    blocks = [haar_pure((2,) * len(p), seed=70 + j) for j, p in enumerate(parts)]
    psi = pure_state(*place_parts([(b.dims, b.amplitudes) for b in blocks], parts))
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi, 2)
    assert lattice.entries == direct_entries(psi, lattice, DEFAULT_TOLERANCE)
    assert len(lattice.entries) == 12 + 66
    assert calls["kernel"] == [1] and calls["factorize"][0] == 12
    assert calls["sweeps"] == 1 and calls["product"]


def block_product(dims, parts, seed):
    """A product of Haar blocks on ``parts``, block j drawn with seed + j."""
    blocks = [haar_pure(tuple(dims[i] for i in p), seed=seed + j) for j, p in enumerate(parts)]
    return pure_state(*place_parts([(b.dims, b.amplitudes) for b in blocks], parts))


BLOCK12 = block_product((2,) * 12, ((0,), (1, 2), (3, 4, 5), tuple(range(6, 12))), seed=70)
QUDIT_BLOCKS = block_product((3, 2, 3, 2, 3, 2, 2, 2), ((0,), (1, 3, 5), (2, 4, 6, 7)), seed=60)

# (state, partition, whether its traced sets span more than one chunk)
PARTITIONS = {
    "singletons": (BLOCK12, [(i,) for i in range(12)], True),
    "pairs": (BLOCK12, [(2 * k, 2 * k + 1) for k in range(6)], True),
    "mixed": (BLOCK12, [(0,), (1, 2, 3), (4, 5), tuple(range(6, 12))], False),
    "qudit": (QUDIT_BLOCKS, [(i,) for i in range(8)], True),
    "qudit-mixed": (QUDIT_BLOCKS, [(0, 1), (2, 3, 4), (5, 6, 7)], False),
}


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"rtol{t.rtol}-atol{t.atol}")
@pytest.mark.parametrize("name", PARTITIONS)
def test_partition_lattice_of_a_block_product_is_the_kernel_lattice(name, tol, monkeypatch):
    """A lattice over parts reads a pure product's blocks as one over
    particles does, since a union of parts is a traced mask like any other.
    Above the chunk guard, at a positive cutoff, every entry comes from the
    blocks and the lattice's kernel call holds the state rank alone; below
    it, or at a zero cutoff, where rounding noise leaves no particle at rank
    1, the kernel takes them. Either way the lattice is the one the kernel
    alone gives."""
    psi, parts, above = PARTITIONS[name]
    depth = len(parts) - 1
    calls = spy(monkeypatch)
    lattice = criteria.rank_lattice(psi, depth, tol, parts=parts)
    assert (len(lattice.entries) * psi.amplitudes.nbytes > CHUNK_BYTES) == above
    from_blocks = above and bool(tol.rtol or tol.atol)
    assert calls["product"] == from_blocks
    assert calls["kernel"] == [1 if from_blocks else 1 + len(lattice.entries)]
    monkeypatch.setattr(factorize, "CHUNK_BYTES", 1 << 40)
    assert criteria.rank_lattice(psi, depth, tol, parts=parts) == lattice


def analyze_bytes(capsys, path, *flags):
    """analyze --json's exit code and report, without its timing line."""
    code = cli.main(["analyze", "--json", *flags, str(path)])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    return code, "".join(line for line in lines if '"timing_seconds"' not in line)


@pytest.mark.parametrize(
    "name, flags",
    [("weak_pair", ("--rtol", "0.3")), ("blocks", ("--depth", "1")), ("blocks", ())],
)
def test_reports_match_the_direct_lattice(name, flags, tmp_path, monkeypatch, capsys):
    """A weakly entangled pair (eigenvalues 0.9, 0.1) times a Haar state: at
    rtol 0.3 the sweeps split the pair, the residual exceeds its threshold,
    and the lattice falls back to the direct call. A product of Haar blocks
    at depth 1 fits in one chunk and never reaches the sweeps. Either report,
    and that of the blocks at the default depth, has the bytes of the direct
    lattice, which a chunk too large for the product path gives."""
    if name == "weak_pair":
        pair = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        psi = pure_state((2,) * 10, np.kron(pair, haar_pure((2,) * 8, seed=6).amplitudes))
    else:
        parts = ((0,), (1, 2), (3, 4, 5), tuple(range(6, 10)))
        blocks = [haar_pure((2,) * len(p), seed=7 + j) for j, p in enumerate(parts)]
        psi = pure_state(*place_parts([(b.dims, b.amplitudes) for b in blocks], parts))
    path = tmp_path / "state.json"
    write_state_file(path, pure_payload(psi))
    calls = spy(monkeypatch)
    code, report = analyze_bytes(capsys, path, *flags)
    assert code == 0
    assert calls["sweeps"] == (0 if flags == ("--depth", "1") else 1)
    monkeypatch.setattr(factorize, "CHUNK_BYTES", 1 << 40)
    assert analyze_bytes(capsys, path, *flags) == (code, report)
    assert calls["sweeps"] == (0 if flags == ("--depth", "1") else 1)
