
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrank import cli, criteria
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
    RankLattice,
    Verdict,
    Violation,
    check_rank_monotonicity,
    rank_lattice,
    verdict,
)
from entrank import states
from entrank.errors import EnumerationLimitError, InputError, PartitionError
from entrank.factorize import factorize_pure
from entrank.states import (
    DensityMatrix,
    PureState,
    density_matrix,
    mix,
    pure_state,
)
from oracles import (
    density_from_pure,
    dicke,
    dicke_rank,
    graph_rank,
    graph_state,
    monotonicity_oracle,
    partition_lattice_oracle,
    place_parts,
    tensor_pure,
)


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


def test_lattice_enumeration_limit(monkeypatch):
    monkeypatch.setattr(states, "DEFAULT_MAX_SUBSETS", 10)
    with pytest.raises(EnumerationLimitError):
        rank_lattice(haar_pure((2,) * 8, seed=2), 4)


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
    assert len(check_rank_monotonicity(rank_lattice(product_pure((2, 2, 2), seed=4), 2))) == 0


def test_check_rank_monotonicity_ghz3_flags_single_trace():
    violations = verdict(rank_lattice(ghz(3, 2), 2)).witnesses
    assert any(
        v.child == (0,) and v.parent is None and v.child_rank == 2 and v.parent_rank == 1
        for v in violations
    )


def test_check_rank_monotonicity_werner_empty():
    assert len(check_rank_monotonicity(rank_lattice(werner(0.6), 1))) == 0


@st.composite
def synthetic_lattices(draw):
    """A lattice over a random partition of 2..7 particles into 2..n parts,
    at depth 1..k − 1, with every rank drawn from 1..4: equal ranks across
    an edge and full-state parents are common."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 1)))
    parts = sorted(sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
    part_masks = tuple(sum(1 << i for i in part) for part in parts)
    depth = draw(st.integers(1, len(parts) - 1))
    traced = [0, *states.unions(part_masks, depth)]
    ranks = draw(st.lists(st.integers(1, 4), min_size=len(traced), max_size=len(traced)))
    return RankLattice(np.array(traced), np.array(ranks), depth, part_masks)


@settings(max_examples=300, deadline=None)
@given(synthetic_lattices())
def test_array_verdict_is_the_brute_force_walk(lattice):
    """The array verdict finds the oracle's violations in its order (entry
    order, then part order), and the tag follows the one rule."""
    found = verdict(lattice)
    expected = monotonicity_oracle(lattice)
    assert found.witnesses == expected
    assert len(check_rank_monotonicity(lattice)) == len(expected)
    if expected:
        assert found.tag == ENTANGLED
    else:
        assert found.tag == (SEPARABLE_PURE_PRODUCT if lattice.state_rank == 1 else INCONCLUSIVE)


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "werner", "--count", "31"],
        ["--kind", "haar_pure", "--dims", "2,2,2", "--count", "40", "--seed", "5"],
        ["--kind", "product_mixture", "--dims", "2,2,2", "--count", "40", "--seed", "5"],
    ],
)
def test_bench_rank_detect_count_is_the_oracle_count(argv, capsys, monkeypatch):
    """Member by member, bench's rank verdict is the brute-force walk's, and
    its rank_detect column counts the members the walk flags."""
    tags = []

    def recording(lattice):
        result = verdict(lattice)
        tags.append((result.tag, bool(monotonicity_oracle(lattice))))
        return result

    monkeypatch.setattr(criteria, "verdict", recording)
    assert cli.main(["bench", *argv]) == 0
    row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
    assert len(tags) == int(argv[argv.index("--count") + 1])
    assert all((tag == ENTANGLED) == flagged for tag, flagged in tags)
    assert int(row["rank_detect"]) == sum(flagged for _, flagged in tags)


def test_graph_state_lattices_are_the_gf2_ranks():
    """Every default-depth entry of seeded random graph states on 4..10
    qubits is 2 to the GF(2) rank of the adjacency block between the traced
    set and the rest, at the default tolerance."""
    checked = 0
    for seed in range(12):
        rng = np.random.default_rng(900 + seed)
        n = 4 + seed % 7
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        adjacency = (upper | upper.T).astype(int)
        lattice = rank_lattice(graph_state(adjacency))
        assert lattice.state_rank == 1
        assert lattice.entries == {t: graph_rank(adjacency, t) for t in lattice.entries}
        checked += len(lattice.entries)
    assert checked > 1000


def test_dicke_state_lattices_are_the_closed_form():
    """Every default-depth entry of the Dicke states D(n, k), n = 3..10 and
    k = 0..n (11958 entries), is min(k, m) − max(0, k − n + m) + 1 with m
    qubits kept, at the default tolerance."""
    checked = 0
    for n in range(3, 11):
        for k in range(n + 1):
            lattice = rank_lattice(dicke(n, k))
            assert lattice.state_rank == 1
            assert lattice.entries == {t: dicke_rank(n, k, n - len(t)) for t in lattice.entries}
            checked += len(lattice.entries)
    assert checked == 11958


# ---------------------------------------------------------------- verdict


def test_verdict_qutrit_mixture_entangled():
    result = verdict(rank_lattice(qutrit_rank2_mixture(), 1))
    assert result.tag == ENTANGLED
    assert any(v.child_rank == 3 and v.parent_rank == 2 for v in result.witnesses)


def test_verdict_werner_inconclusive():
    assert verdict(rank_lattice(werner(0.6), 1)).tag == INCONCLUSIVE


def test_verdict_maximally_mixed_inconclusive():
    rho = density_matrix((2, 2), np.eye(4) / 4)
    assert verdict(rank_lattice(rho, 1)).tag == INCONCLUSIVE


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
    assert len(check_rank_monotonicity(lattice)) == 0
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


def test_lattice_over_parts_is_keyed_by_traced_particles(monkeypatch):
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
    monkeypatch.setattr(states, "DEFAULT_MAX_SUBSETS", 5)
    with pytest.raises(EnumerationLimitError):
        rank_lattice(psi, 2, parts=parts)


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
            assert len(check_rank_monotonicity(rank_lattice(state, depth, parts=parts))) == 0
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
            assert len(check_rank_monotonicity(rank_lattice(rho, depth))) == 0


def test_violations_monotone_in_depth():
    states = [density_from_pure(ghz(4, 2)), density_from_pure(haar_pure((2, 2, 2, 2), seed=12))]
    for rho in states:
        found: set = set()
        for depth in range(1, 4):
            current = {
                (v.child, v.parent) for v in verdict(rank_lattice(rho, depth)).witnesses
            }
            assert found <= current
            found = current


def test_fully_entangled_implies_entangled():
    """A fully entangled pure state gets witnesses from the rank lattice."""
    for psi in (ghz(3, 2), w(4), haar_pure((2, 2, 2), seed=13)):
        assert pure_fully_entangled(psi)
        assert verdict(rank_lattice(psi)).tag == ENTANGLED


def test_verdict_matches_pure_predicate():
    """For a pure state the lattice verdict and the direct predicate agree."""
    states = [
        product_pure((2, 2, 2), seed=14),
        haar_pure((2, 2, 2), seed=15),
        tensor_pure(bell(), haar_pure((2,), seed=16)),
        six_qubit_benchmark(),
    ]
    for psi in states:
        result = verdict(rank_lattice(density_from_pure(psi)))
        assert (result.tag == ENTANGLED) == pure_entangled(psi)


def test_factorization_partition_never_flags():
    for psi in (six_qubit_benchmark(), tensor_pure(bell(), bell())):
        result = factorize_pure(psi)
        lattice = rank_lattice(density_from_pure(psi), parts=result.partition)
        assert verdict(lattice).tag != ENTANGLED


def test_verdict_dataclass_shape():
    verdict = Verdict(tag=INCONCLUSIVE)
    assert verdict.witnesses == ()


def test_lattice_holds_read_only_slot_arrays_and_builds_records_on_read():
    """Slot 0 is the full state and the entries follow in entry order; the
    arrays cannot be written, and the particle-tuple entries and Violation
    records are built only when first read."""
    lattice = rank_lattice(ghz(3, 2), 2)
    assert lattice.traced.tolist() == [0, 1, 2, 4, 3, 5, 6]
    assert lattice.ranks.tolist() == [1, 2, 2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        lattice.ranks[1] = 1
    result = verdict(lattice)
    assert result.pairs.tolist() == [[1, 0], [2, 0], [3, 0]]
    assert "entries" not in vars(lattice) and "witnesses" not in vars(result)
    assert result.witnesses == tuple(Violation((i,), None, 2, 1) for i in range(3))
    assert lattice.entries == {(0,): 2, (1,): 2, (2,): 2, (0, 1): 2, (0, 2): 2, (1, 2): 2}


def test_lattice_depth_default_and_limits(monkeypatch):
    """The one budget helper: half the parts by default, a depth outside
    min(1, k - 1)..k - 1 is an input error (exit 2), and too many traced
    sets an enumeration limit (exit 3)."""
    from entrank.criteria import lattice_depth

    assert [lattice_depth(k) for k in (1, 2, 5, 12)] == [0, 1, 2, 6]
    assert lattice_depth(4, 3) == 3
    with pytest.raises(InputError) as exc:
        lattice_depth(4, 4)
    assert (str(exc.value), exc.value.exit_code) == ("max_depth must lie in 1..3, got 4", 2)
    with pytest.raises(InputError, match=r"^max_depth must lie in 0\.\.0, got 1$"):
        lattice_depth(1, 1)
    with pytest.raises(EnumerationLimitError) as exc:
        lattice_depth(18, 9)
    assert (str(exc.value), exc.value.exit_code) == (
        "155381 subsets at depth 9 exceed the cap 100000", 3
    )
    monkeypatch.setattr(states, "DEFAULT_MAX_SUBSETS", 21)
    assert lattice_depth(6, 2) == 2
    monkeypatch.setattr(states, "DEFAULT_MAX_SUBSETS", 20)
    with pytest.raises(EnumerationLimitError, match="^21 subsets at depth 2 exceed the cap 20$"):
        lattice_depth(6, 2)
