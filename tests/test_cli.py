import errno
import hashlib
import json
import os
import re

import numpy as np
import pytest

from entrank import catalog
from entrank.catalog import bell, ghz
from entrank.cli import main
from entrank.statefile import (
    density_payload,
    mixture_payload,
    pure_payload,
    write_state_file,
)
from entrank.states import density_matrix, pure_state
from oracles import density_from_pure, tensor_pure


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qutrit_mixture_terms():
    omega = np.exp(2j * np.pi / 3)
    a = np.zeros(9, dtype=complex)
    b = np.zeros(9, dtype=complex)
    for k in range(3):
        a[k * 3 + k] = 1 / np.sqrt(3)
        b[k * 3 + k] = omega**k / np.sqrt(3)
    return [(0.5, pure_state((3, 3), a)), (0.5, pure_state((3, 3), b))]


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.json"
    write_state_file(path, pure_payload(ghz(3, 2)))
    return path


@pytest.fixture
def werner06_file(tmp_path):
    from entrank.catalog import werner

    path = tmp_path / "werner06.json"
    write_state_file(path, density_payload(werner(0.6)))
    return path


@pytest.fixture
def product_file(tmp_path):
    from entrank.catalog import product_pure

    path = tmp_path / "product.json"
    write_state_file(path, pure_payload(product_pure((2, 2), seed=7)))
    return path


# ----------------------------------------------------------------- analyze


def test_analyze_ghz3_entangled(capsys, ghz3_file):
    code, out, _ = run(capsys, "analyze", ghz3_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "ENTANGLED"
    assert report["state_rank"] == 1
    assert {"child": [1], "parent": None, "child_rank": 2, "parent_rank": 1} in report[
        "violations"
    ]


def test_analyze_werner_inconclusive(capsys, werner06_file):
    code, out, _ = run(capsys, "analyze", werner06_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["violations"] == []
    assert report["state_rank"] == 4


def test_analyze_product_separable(capsys, product_file):
    code, out, _ = run(capsys, "analyze", product_file, "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "SEPARABLE_PURE_PRODUCT"


def test_analyze_human_output(capsys, ghz3_file):
    code, out, _ = run(capsys, "analyze", ghz3_file)
    assert code == 0
    assert "verdict: ENTANGLED" in out
    assert "rank lattice" in out


def test_analyze_reports_are_reproducible(capsys, ghz3_file):
    _, first, _ = run(capsys, "analyze", ghz3_file, "--json", "--ppt")
    _, second, _ = run(capsys, "analyze", ghz3_file, "--json", "--ppt")
    a = json.loads(first)
    b = json.loads(second)
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_analyze_report_round_trips_numeric_fields(capsys, werner06_file):
    _, out, _ = run(capsys, "analyze", werner06_file, "--json", "--ppt")
    report = json.loads(out)
    again = json.loads(json.dumps(report))
    assert again == report
    assert again["ppt"][0]["min_eigenvalue"] == report["ppt"][0]["min_eigenvalue"]


def test_analyze_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", tmp_path / "missing.json")
    assert code == 2
    assert "error:" in err


def test_analyze_size_limit_exit_code(capsys, ghz3_file):
    code, _, err = run(capsys, "analyze", ghz3_file, "--max-dim", "4")
    assert code == 3
    assert "error:" in err


def test_analyze_bad_depth(capsys, ghz3_file):
    code, _, err = run(capsys, "analyze", ghz3_file, "--depth", "9")
    assert code == 2


@pytest.mark.parametrize(
    "command,flag",
    [("analyze", "--rtol"), ("factorize", "--rtol"), ("factorize", "--atol"),
     ("check-partition", "--atol"), ("bench", "--rtol")],
)
def test_a_rank_cutoff_of_one_exits_2(command, flag, capsys, ghz3_file):
    """No eigenvalue of a unit-trace state exceeds 1, so a cutoff of 1 or
    more reads no meaningful rank."""
    base = {
        "analyze": ["analyze", ghz3_file],
        "factorize": ["factorize", ghz3_file],
        "check-partition": ["check-partition", ghz3_file, "1|2|3"],
        "bench": ["bench", "--kind", "werner", "--count", "2"],
    }[command]
    line = f"error: {flag[2:]} must lie in [0, 1), got 1.0\n"
    assert run(capsys, *base, flag, "1") == (2, "", line)


def test_analyze_one_particle_reports(capsys, tmp_path):
    """A one-particle state has the depth-0 lattice, its state rank alone;
    both reports keep the bytes they had before that lattice came from
    ``rank_lattice``."""
    path = tmp_path / "q1.json"
    write_state_file(path, pure_payload(pure_state((3,), [0.6, 0, 0.8j])))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert out == (
        f"input: {path}\ndims: 3   particles: 1\nstate rank: 1\n"
        "verdict: SEPARABLE_PURE_PRODUCT\n"
    )
    code, out, _ = run(capsys, "analyze", path, "--json")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    assert code == 0
    assert re.sub(r'"timing_seconds": [^,]*,', '"timing_seconds": T,', out) == (
        '{\n  "command": "analyze",\n  "depth": 0,\n  "dims": [\n    3\n  ],\n'
        '  "format_version": "1",\n  "input": {\n'
        f'    "path": {json.dumps(str(path))},\n    "sha256": "{sha}"\n  }},\n'
        '  "lattice": [],\n  "state_rank": 1,\n  "timing_seconds": T,\n'
        '  "tolerance": {\n    "atol": 1e-12,\n    "rtol": 1e-10\n  },\n'
        '  "verdict": "SEPARABLE_PURE_PRODUCT",\n  "violations": []\n}\n'
    )


def test_analyze_one_particle_depth_and_rank_two(capsys, tmp_path):
    """A rank-2 one-particle state reads INCONCLUSIVE; --depth 1 exceeds its
    only depth, 0."""
    path = tmp_path / "m1.json"
    write_state_file(path, density_payload(density_matrix((2,), np.eye(2) / 2)))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert out.endswith("state rank: 2\nverdict: INCONCLUSIVE\n")
    code, out, err = run(capsys, "analyze", path, "--json", "--depth", "1")
    assert (code, out) == (2, "")
    assert "max_depth must lie in 0..0, got 1" in err


# --------------------------------------------------------------- factorize


def test_factorize_paper6(capsys, tmp_path):
    path = tmp_path / "p6.json"
    assert run(capsys, "gen", "paper6", "--out", path)[0] == 0
    code, out, _ = run(capsys, "factorize", path)
    assert code == 0
    assert "partition: {1} | {2,3} | {4,5,6}" in out


def test_factorize_bell_bell(capsys, tmp_path):
    path = tmp_path / "bb.json"
    write_state_file(path, pure_payload(tensor_pure(bell(), bell())))
    code, out, _ = run(capsys, "factorize", path)
    assert code == 0
    assert "partition: {1,2} | {3,4}" in out


def test_factorize_single_qubit(capsys, tmp_path):
    path = tmp_path / "one.json"
    write_state_file(path, pure_payload(pure_state((2,), np.array([0.6, 0.8]))))
    code, out, _ = run(capsys, "factorize", path)
    assert code == 0
    assert "partition: {1}" in out


def test_factorize_accepts_rank1_density(capsys, tmp_path):
    path = tmp_path / "dense_pure.json"
    write_state_file(path, density_payload(density_from_pure(bell())))
    code, out, _ = run(capsys, "factorize", path)
    assert code == 0
    assert "partition: {1,2}" in out


def test_factorize_accepts_rank1_mixture(capsys, tmp_path):
    """A mixture file whose terms are one state up to phase has rank 1 and
    factorizes as the same state given densely does."""
    psi = tensor_pure(bell(), pure_state((2,), np.array([1.0, 1.0]) / np.sqrt(2)))
    turned = pure_state(psi.dims, np.exp(0.7j) * psi.amplitudes)
    mixture, dense = tmp_path / "mixture.json", tmp_path / "dense.json"
    write_state_file(mixture, mixture_payload([(0.5, psi), (0.5, psi)]))
    write_state_file(dense, density_payload(density_from_pure(psi)))
    partitions = []
    for path in (mixture, dense):
        code, out, _ = run(capsys, "factorize", "--json", path)
        assert code == 0
        partitions.append(json.loads(out)["partition"])
    assert partitions == [[[1, 2], [3]], [[1, 2], [3]]]
    write_state_file(mixture, mixture_payload([(0.3, psi), (0.7, turned)]))
    code, out, _ = run(capsys, "factorize", "--json", mixture)
    assert code == 0 and json.loads(out)["partition"] == [[1, 2], [3]]


def test_factorize_rejects_rank2_mixture(capsys, tmp_path):
    minus = pure_state((2, 2), np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2))
    path = tmp_path / "rank2.json"
    write_state_file(path, mixture_payload([(0.5, bell()), (0.25, minus), (0.25, bell())]))
    code, _, err = run(capsys, "factorize", path)
    assert code == 2
    assert "pure states only; this state is a mixture of 2 components" in err


def test_factorize_rejects_mixed_state(capsys, werner06_file):
    code, _, err = run(capsys, "factorize", werner06_file)
    assert code == 2
    assert "pure states only" in err


def test_factorize_internal_inconsistency_exit_code(capsys, tmp_path):
    """A sloppy --rtol accepts a non-product cut; the residual check turns
    that into exit code 4."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.99)
    amps[3] = np.sqrt(0.01)
    path = tmp_path / "weak.json"
    write_state_file(path, pure_payload(pure_state((2, 2), amps)))
    assert run(capsys, "factorize", path)[0] == 0
    code, _, err = run(capsys, "factorize", path, "--rtol", "0.3")
    assert code == 4
    assert "residual" in err


def test_factorize_writes_factor_files(capsys, tmp_path):
    path = tmp_path / "p6.json"
    run(capsys, "gen", "paper6", "--out", path)
    out_dir = tmp_path / "factors"
    code, _, _ = run(capsys, "factorize", path, "--factors-out", out_dir)
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["factor_01.json", "factor_02.json", "factor_03.json"]
    from entrank.statefile import load_state

    first = load_state(out_dir / "factor_01.json")
    assert first.dims == (2,)


def test_factorize_json_trace_log(capsys, tmp_path):
    path = tmp_path / "p6.json"
    run(capsys, "gen", "paper6", "--out", path)
    code, out, _ = run(capsys, "factorize", path, "--json")
    report = json.loads(out)
    assert report["partition"] == [[1], [2, 3], [4, 5, 6]]
    step1 = report["trace_log"][0]
    assert step1["step"] == 1
    assert {"subset": [1], "rank": 1} in step1["tested"]
    step2 = report["trace_log"][1]
    assert {"subset": [2, 3], "rank": 1} in step2["tested"]
    assert report["residual"] <= 1e-8


# --------------------------------------------------------- check-partition


def test_check_partition_ghz3_singletons(capsys, ghz3_file):
    code, out, _ = run(capsys, "check-partition", ghz3_file, "1|2|3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "ENTANGLED"
    assert len(report["pairs"]) == 3
    assert all(p["verdict"] == "INCONCLUSIVE" for p in report["pairs"])
    assert report["state_rank"] == 1
    assert {"child": [1], "parent": None, "child_rank": 2, "parent_rank": 1} in report[
        "violations"
    ]


def test_check_partition_qutrit_mixture(capsys, tmp_path):
    path = tmp_path / "qutrit.json"
    write_state_file(path, mixture_payload(qutrit_mixture_terms()))
    code, out, _ = run(capsys, "check-partition", path, "1|2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "ENTANGLED"
    assert report["pairs"][0]["rank_u"] == 3
    assert report["pairs"][0]["rank_composite"] == 2


def test_check_partition_product(capsys, product_file):
    code, out, _ = run(capsys, "check-partition", product_file, "1|2")
    assert code == 0
    assert "overall: SEPARABLE_PURE_PRODUCT" in out


def test_check_partition_takes_each_rank_once(capsys, monkeypatch, ghz3_file):
    """One kernel call for the lattice over the parts: the state and the
    2^3 - 2 unions of parts; the pair rows are read off that lattice."""
    from entrank import cli, criteria

    calls = []
    original = criteria.ensemble_ranks

    def counting(states, subsets, *args, **kwargs):
        calls.append(list(subsets))
        return original(states, calls[-1], *args, **kwargs)

    monkeypatch.setattr(criteria, "ensemble_ranks", counting)
    code, out, _ = run(capsys, "check-partition", ghz3_file, "1|2|3", "--json")
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 3
    assert [len(subsets) for subsets in calls] == [2**3 - 2 + 1]


def test_check_partition_human_report(capsys, tmp_path):
    """GHZ(6) in pair blocks: every pair check is inconclusive, the lattice
    over the parts is not."""
    path = tmp_path / "ghz6.json"
    write_state_file(path, pure_payload(ghz(6, 2)))
    code, out, _ = run(capsys, "check-partition", path, "1,2|3,4|5,6")
    assert code == 0
    assert out == (
        f"input: {path}\n"
        "pair checks (rank_u, rank_v vs rank of the pair together):\n"
        "  {1,2} vs {3,4}: ranks (2, 2, 2) -> INCONCLUSIVE\n"
        "  {1,2} vs {5,6}: ranks (2, 2, 2) -> INCONCLUSIVE\n"
        "  {3,4} vs {5,6}: ranks (2, 2, 2) -> INCONCLUSIVE\n"
        "violations:\n"
        "  traced {1,2} has rank 2 > 1 (full state)\n"
        "  traced {3,4} has rank 2 > 1 (full state)\n"
        "  traced {5,6} has rank 2 > 1 (full state)\n"
        "overall: ENTANGLED\n"
    )


@pytest.mark.parametrize("source", ["paper6", "mixture232"])
def test_check_partition_singletons_match_analyze(source, capsys, tmp_path):
    """Over single particles, check-partition's lattice, violations and
    verdict are those of analyze at depth n - 1."""
    path = tmp_path / f"{source}.json"
    if source == "paper6":
        run(capsys, "gen", "paper6", "--out", path)
    else:
        run(capsys, "gen", "random", "--dims", "2,3,2", "--kind", "mixed_of_rank_r",
            "--rank", "2", "--seed", "5", "--out", path)
    n = 6 if source == "paper6" else 3
    _, out, _ = run(capsys, "analyze", path, "--depth", n - 1, "--json")
    analyzed = json.loads(out)
    _, out, _ = run(capsys, "check-partition", path, "|".join(map(str, range(1, n + 1))), "--json")
    checked = json.loads(out)
    for key in ("state_rank", "lattice", "violations"):
        assert checked[key] == analyzed[key], key
    assert checked["overall"] == analyzed["verdict"]
    assert checked["violations"]


def test_check_partition_subset_cap_before_the_kernel(capsys, monkeypatch, tmp_path):
    """17 single parts make 2^17 - 2 lattice entries, over the subset cap:
    exit 3 before any rank is taken."""
    from entrank import criteria

    path = tmp_path / "ghz17.json"
    assert run(capsys, "gen", "ghz", "--n", 17, "--max-dim", 131072, "--out", path)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the rank kernel ran past the subset cap")

    monkeypatch.setattr(criteria, "ensemble_ranks", refuse)
    partition = "|".join(map(str, range(1, 18)))
    code, out, err = run(capsys, "check-partition", path, partition, "--max-dim", 131072)
    assert code == 3
    assert out == ""
    assert "131070 subsets at depth 16 exceed the cap 100000" in err


def test_check_partition_malformed_expression(capsys, ghz3_file):
    code, _, err = run(capsys, "check-partition", ghz3_file, "1||3")
    assert code == 2
    code, _, err = run(capsys, "check-partition", ghz3_file, "1|2")
    assert code == 2  # does not cover particle 3


# --------------------------------------------------------------------- ppt


def test_ppt_werner_entangled(capsys, werner06_file):
    code, out, _ = run(capsys, "ppt", werner06_file, "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["flag"] == "ENTANGLED"
    assert report["min_eigenvalue"] == pytest.approx((1 - 3 * 0.6) / 4, abs=1e-9)


def test_ppt_weak_werner_not_detected(capsys, tmp_path):
    from entrank.catalog import werner

    path = tmp_path / "werner02.json"
    write_state_file(path, density_payload(werner(0.2)))
    code, out, _ = run(capsys, "ppt", path, "1", "--json")
    report = json.loads(out)
    assert report["flag"] == "NOT-DETECTED"
    assert report["min_eigenvalue"] >= -1e-9


def test_ppt_product_state(capsys, product_file):
    code, out, _ = run(capsys, "ppt", product_file, "1", "--json")
    report = json.loads(out)
    assert report["flag"] == "NOT-DETECTED"


def test_analyze_ppt_of_dense_file_ignores_rank_tolerance(capsys, tmp_path):
    """The PPT reads the factor, which no rank tolerance enters: the rows at
    --rtol 1e-3, where the 1e-4 white-noise tail lies below the rank cutoff,
    are those at the default, and each lies within the 2-norm of the dropped
    eigenvalues of the stored matrix's transpose."""
    from entrank.catalog import haar_pure
    from entrank.linalg import hermitian_eigenvalues
    from entrank.statefile import load_state
    from entrank.states import DensityMatrix
    from oracles import partial_transpose

    psi = haar_pure((2, 2, 2), seed=5)
    noisy = (1 - 1e-4) * density_from_pure(psi).matrix + 1e-4 * np.eye(8) / 8
    path = tmp_path / "noisy.json"
    write_state_file(path, density_payload(DensityMatrix(dims=(2, 2, 2), matrix=noisy)))
    rows = []
    for flags in (["--rtol", "1e-3"], []):
        code, out, _ = run(capsys, "analyze", path, "--json", "--ppt", *flags)
        assert code == 0
        rows.append(json.loads(out)["ppt"])
    assert rows[0] == rows[1]
    loaded = load_state(path)
    r = loaded.factor.shape[1]
    bound = np.linalg.norm(np.linalg.eigvalsh(loaded.matrix)[: loaded.dim - r]) + 1e-14
    for i, row in enumerate(rows[0]):
        expected = hermitian_eigenvalues(partial_transpose(loaded, (i,)))[-1]
        assert abs(row["min_eigenvalue"] - expected) <= bound


def test_load_accepted_negative_noise_does_not_flag_a_separable_file(capsys, tmp_path):
    """½|00⟩⟨00| + ½|11⟩⟨11| + 1e-7·(|00⟩⟨00| − |Ψ⁺⟩⟨Ψ⁺|) is separable but for
    an eigenvalue −1e-7, which load accepts (``LOAD_TOL`` is 1e-6). The
    factor drops it with the eigenvalues eigh cannot tell from zero, so no
    part reads as entangled; the stored matrix's transpose reads −5e-8."""
    from entrank.states import DensityMatrix

    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    matrix = np.diag([0.5 + 1e-7, 0.0, 0.0, 0.5]) - 1e-7 * np.outer(psi_plus, psi_plus)
    path = tmp_path / "noisy_product.json"
    write_state_file(path, density_payload(DensityMatrix(dims=(2, 2), matrix=matrix + 0j)))
    code, out, _ = run(capsys, "analyze", path, "--json", "--ppt")
    assert code == 0
    rows = json.loads(out)["ppt"]
    assert [(row["min_eigenvalue"], row["flag"]) for row in rows] == [(0.0, "NOT-DETECTED")] * 2


def test_zero_cutoff_ranks_of_a_dense_file_are_exact(capsys, tmp_path):
    """A dense file's factor does not depend on the rank cutoff and keeps
    only the eigenvalues above eigh's error, so at --rtol 0 --atol 0 a
    generic rank-4 mixture of 8 qubits has state rank 4, and tracing out t
    qubits leaves the closed-form rank min(2^(8−t), 4·2^t)."""
    path = tmp_path / "mixed8.json"
    write_state_file(path, density_payload(catalog.mixed_of_rank((2,) * 8, seed=7, rank=4)))
    code, out, _ = run(
        capsys, "analyze", path, "--json", "--rtol", "0", "--atol", "0", "--depth", "7"
    )
    assert code == 0
    report = json.loads(out)
    assert report["state_rank"] == 4
    ranks = [(row["rank"], len(row["traced_out"])) for row in report["lattice"]]
    assert len(ranks) == 2**8 - 2
    assert all(rank == min(2 ** (8 - t), 4 * 2**t) for rank, t in ranks)


def test_ppt_of_wide_pure_state_builds_no_dense_matrix(capsys, tmp_path):
    """GHZ(12) transposed on one qubit: a d × d ψψ† alone would take 268 MB."""
    import tracemalloc

    path = tmp_path / "ghz12.json"
    write_state_file(path, pure_payload(ghz(12, 2)))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "ppt", path, "1", "--json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-15)
    assert peak < 16 * 2**20


def test_ppt_bad_part(capsys, werner06_file):
    code, _, err = run(capsys, "ppt", werner06_file, "1,2")
    assert code == 2
    code, _, err = run(capsys, "ppt", werner06_file, "x")
    assert code == 2


@pytest.mark.parametrize(
    "command", [("analyze",), ("analyze", "--json"), ("factorize",), ("ppt", "1")],
    ids=["analyze", "analyze-json", "factorize", "ppt"],
)
def test_a_nan_mixture_weight_is_an_input_error(capsys, tmp_path, command):
    """Python's JSON reads NaN; before the kernel saw the weight, analyze and
    factorize ended in LAPACK's "SVD did not converge" and ppt in
    "Eigenvalues did not converge"."""
    payload = mixture_payload(qutrit_mixture_terms())
    payload["terms"][0]["weight"] = float("nan")
    path = tmp_path / "nan_weight.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert (code, out, err) == (2, "", f"error: {path}: mixture weight nan is not positive\n")


def test_a_number_beyond_the_float_range_is_an_input_error(capsys, tmp_path):
    payload = pure_payload(ghz(3, 2))
    payload["amplitudes"][1]["im"] = int("9" * 400)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}, amplitude 1: number too large for a float\n"


# --------------------------------------------------------------------- gen


def test_gen_ghz_pipeline(capsys, tmp_path):
    path = tmp_path / "g.json"
    assert run(capsys, "gen", "ghz", "--n", 3, "--d", 2, "--out", path)[0] == 0
    _, out, _ = run(capsys, "analyze", path, "--json")
    assert json.loads(out)["verdict"] == "ENTANGLED"


def test_gen_w_and_bell_and_werner(capsys, tmp_path):
    for argv, verdict in (
        (["gen", "w", "--n", "4", "--out", tmp_path / "w.json"], "ENTANGLED"),
        (["gen", "bell", "--out", tmp_path / "b.json"], "ENTANGLED"),
        (["gen", "werner", "--p", "0.6", "--out", tmp_path / "we.json"], "INCONCLUSIVE"),
    ):
        assert run(capsys, *argv)[0] == 0
        _, out, _ = run(capsys, "analyze", argv[-1], "--json")
        assert json.loads(out)["verdict"] == verdict


def test_gen_paper6_reproduces_benchmark(capsys, tmp_path):
    from entrank.catalog import six_qubit_benchmark
    from entrank.statefile import load_state

    path = tmp_path / "p6.json"
    run(capsys, "gen", "paper6", "--out", path)
    state = load_state(path)
    assert np.array_equal(state.amplitudes, six_qubit_benchmark().amplitudes)


def test_gen_random_product_is_separable(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "gen", "random", "--kind", "product_pure", "--dims", "2,2",
        "--seed", 7, "--out", path,
    )
    assert code == 0
    _, out, _ = run(capsys, "analyze", path, "--json")
    assert json.loads(out)["verdict"] == "SEPARABLE_PURE_PRODUCT"


def test_gen_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "gen", "random", "--kind", "haar_pure", "--dims", "2,3",
            "--seed", 11, "--out", path)
    assert a.read_bytes() == b.read_bytes()


def test_gen_mixed_of_rank_writes_a_mixture(capsys, tmp_path):
    from entrank.catalog import mixed_of_rank
    from entrank.statefile import load_state

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(capsys, "gen", "random", "--dims", "2,3,2", "--kind",
                         "mixed_of_rank_r", "--rank", "3", "--seed", "11", "--out", path)
        assert code == 0
    assert json.loads(paths[0].read_text())["kind"] == "mixture"
    assert paths[0].read_bytes() == paths[1].read_bytes()
    expected = mixed_of_rank((2, 3, 2), 11, 3).matrix
    assert np.max(np.abs(load_state(paths[0]).matrix - expected)) <= 1e-12


def test_gen_records_seed_metadata(capsys, tmp_path):
    path = tmp_path / "r.json"
    run(capsys, "gen", "random", "--kind", "haar_pure", "--dims", "2,2",
        "--seed", 13, "--out", path)
    payload = json.loads(path.read_text())
    assert payload["metadata"]["seed"] == 13
    assert payload["metadata"]["generator"] == "philox"


def test_gen_unknown_parameters(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "werner", "--out", tmp_path / "w.json")
    assert code == 2  # missing --p
    code, _, _ = run(capsys, "gen", "random", "--out", tmp_path / "r.json")
    assert code == 2  # missing --dims


def test_gen_random_kind_is_an_argparse_choice(capsys, tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "random", "--dims", "2,2", "--kind", "nope", "--out", str(path)])
    assert exc.value.code == 2
    assert "argument --kind: invalid choice: 'nope'" in capsys.readouterr().err
    assert not path.exists()


def _random_metadata(kind, rank=1):
    return {"name": "random", "params": {"dims": [2, 3, 2], "kind": kind, "rank": rank},
            "seed": 9, "generator": "philox"}


GEN_FILES = {
    "ghz": (["ghz", "--n", "4", "--d", "3"], lambda: ghz(4, 3),
            {"name": "ghz", "params": {"n": 4, "d": 3}}),
    "w": (["w", "--n", "5"], lambda: catalog.w(5), {"name": "w", "params": {"n": 5}}),
    "bell": (["bell"], bell, {"name": "bell"}),
    "werner": (["werner", "--p", "0.6"], lambda: catalog.werner(0.6),
               {"name": "werner", "params": {"p": 0.6, "fidelity": 0.7}}),
    "paper6": (["paper6"], catalog.six_qubit_benchmark, {"name": "paper6"}),
    "haar_pure": (["random", "--dims", "2,3,2", "--seed", "9"],
                  lambda: catalog.haar_pure((2, 3, 2), 9), _random_metadata("haar_pure")),
    "product_pure": (["random", "--dims", "2,3,2", "--kind", "product_pure", "--seed", "9"],
                     lambda: catalog.product_pure((2, 3, 2), 9),
                     _random_metadata("product_pure")),
    "mixed_of_rank_r": (["random", "--dims", "2,3,2", "--kind", "mixed_of_rank_r",
                         "--rank", "3", "--seed", "9"],
                        lambda: catalog.mixed_of_rank((2, 3, 2), 9, 3),
                        _random_metadata("mixed_of_rank_r", 3)),
}


@pytest.mark.parametrize("name", GEN_FILES)
def test_gen_writes_the_payload_of_its_constructor(name, capsys, tmp_path):
    """Every name and random kind: the file is that of the library
    constructor's state with the metadata written out here."""
    from entrank.statefile import state_payload

    argv, make, metadata = GEN_FILES[name]
    path, want = tmp_path / "gen.json", tmp_path / "want.json"
    code, out, err = run(capsys, "gen", *argv, "--out", path)
    assert (code, err) == (0, "")
    assert out.startswith(f"wrote {path} (kind=")
    write_state_file(want, state_payload(make(), metadata))
    assert path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "argv,seed",
    [
        (["--kind", "mixed_of_rank_r", "--rank", "4", "--seed", "-1"], -1),
        (["--seed", str(2**64)], 2**64),
        (["--kind", "product_pure", "--seed", str(2**64)], 2**64),
    ],
    ids=["mixed_negative", "haar_above", "product_above"],
)
def test_gen_rejects_a_seed_outside_the_key_range(argv, seed, capsys, tmp_path):
    path = tmp_path / "n.json"
    code, out, err = run(capsys, "gen", "random", "--dims", "2,2", *argv, "--out", path)
    assert (code, out) == (2, "")
    assert err == f"error: seed must lie in 0..{2**64 - 1}, got {seed}\n"
    assert not path.exists()


# ------------------------------------------------------------------- bench


def test_bench_product_mixtures_rank_never_fires(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--kind", "product_mixture", "--dims", "2,2",
        "--count", 25, "--seed", 5, "--out", out_path,
    )
    assert code == 0
    header, row = out_path.read_text().strip().split("\n")
    assert header == "kind,dims,seed,rank_detect,ppt_detect,both,neither"
    fields = row.split(",")
    assert fields[0] == "product_mixture"
    assert fields[3] == "0"  # rank detections
    assert fields[4] == "0"  # separable states stay PPT
    assert fields[6] == "25"


def test_bench_werner_sweep_counts(capsys):
    code, out, _ = run(
        capsys, "bench", "--kind", "werner", "--count", 6,
        "--p-start", 0.4, "--p-stop", 0.9,
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "0"  # rank criteria never fire on werner states
    assert row[4] == "6"  # every p in {0.4..0.9} is above 1/3
    assert row[6] == "0"


def test_bench_same_seed_identical_csv(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "bench", "--kind", "haar_pure", "--dims", "2,2",
            "--count", 10, "--seed", 4, "--out", path)
    assert a.read_bytes() == b.read_bytes()


def test_bench_haar_pure_detected_by_both(capsys):
    code, out, _ = run(
        capsys, "bench", "--kind", "haar_pure", "--dims", "2,2",
        "--count", 10, "--seed", 4,
    )
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "10"
    assert row[4] == "10"
    assert row[5] == "10"


def test_bench_reads_the_ppt_flag_of_the_reports(capsys, monkeypatch):
    """bench counts a member as PPT-detected by the flag rule of the reports'
    ``_ppt_row``, ``_ppt_flag``, not by a comparison of its own: with that
    rule forced to NOT-DETECTED, no Werner state above p = 1/3 is counted."""
    import entrank.cli as cli

    monkeypatch.setattr(cli, "_ppt_flag", lambda value: cli.PPT_NOT_DETECTED)
    code, out, _ = run(
        capsys, "bench", "--kind", "werner", "--count", 6, "--p-start", 0.4, "--p-stop", 0.9,
    )
    assert (code, out.splitlines()[1]) == (0, "werner,2x2,0,0,0,0,6")


@pytest.mark.parametrize(
    "kind,seed,count,bad",
    [
        ("haar_pure", -3, 2, -3),
        ("product_mixture", 2**64, 1, 2**64),
        ("haar_pure", 2**64 - 1, 2, 2**64),  # the second member's key is out of range
    ],
    ids=["negative", "above", "top_member"],
)
def test_bench_rejects_a_seed_outside_the_key_range(kind, seed, count, bad, capsys):
    code, out, err = run(capsys, "bench", "--kind", kind, "--dims", "2,2",
                         "--count", count, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: seed must lie in 0..{2**64 - 1}, got {bad}\n"


def test_bench_takes_the_top_seed(capsys):
    code, out, _ = run(capsys, "bench", "--kind", "haar_pure", "--dims", "2,2",
                       "--count", 1, "--seed", 2**64 - 1)
    assert (code, out.splitlines()[1]) == (0, f"haar_pure,2x2,{2**64 - 1},1,1,1,0")


def test_bench_rejects_bad_spec(capsys):
    code, _, _ = run(capsys, "bench", "--kind", "product_mixture", "--count", 3)
    assert code == 2  # missing dims


@pytest.mark.parametrize("kind", ["haar_pure", "product_mixture"])
def test_bench_needs_two_particles(kind, capsys, monkeypatch):
    """One particle has no cut to test; bench says so before it builds a member."""
    from entrank import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a bench member was built")

    monkeypatch.setattr(cli, "_bench_members", refuse)
    code, out, err = run(capsys, "bench", "--kind", kind, "--dims", "2", "--count", 2)
    assert (code, out) == (2, "")
    assert err == "error: bench needs at least two particles, got dims '2'\n"


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--kind", "haar_pure", "--dims", "2,2", "--count", "50", "--depth", "5"],
         2, "max_depth must lie in 1..1, got 5"),
        (["--kind", "product_mixture", "--dims", "2,2,2", "--count", "5", "--depth", "0"],
         2, "max_depth must lie in 1..2, got 0"),
        (["--kind", "werner", "--count", "5", "--depth", "2"],
         2, "max_depth must lie in 1..1, got 2"),
        (["--kind", "haar_pure", "--dims", ",".join(["2"] * 18), "--max-dim", "262144",
          "--depth", "9", "--count", "20"],
         3, "155381 subsets at depth 9 exceed the cap 100000"),
    ],
    ids=["depth_too_deep", "depth_zero", "werner_depth", "subset_cap"],
)
def test_bench_checks_its_lattice_budget_before_any_member(argv, code, message, capsys,
                                                           monkeypatch):
    from entrank import catalog, cli

    def refuse(*args, **kwargs):
        raise AssertionError("a bench member was built")

    monkeypatch.setattr(cli, "_bench_members", refuse)
    monkeypatch.setattr(catalog, "werner", refuse)
    assert run(capsys, "bench", *argv) == (code, "", f"error: {message}\n")


# The four ensemble specs of the benchmark's ensemble workload at seeds
# outside its ranges, and a --depth and a --max-terms variant; each row was
# written by the one-state bench that the stacked one replaced.
PINNED_BENCH_ROWS = [
    (["--kind", kind, *dims, "--count", count, "--seed", seed, *extra], row)
    for seed in ("42", "6000017", "9223372036854775813")
    for kind, dims, count, extra, row in [
        ("product_mixture", ["--dims", "2,3,2"], "100", [],
         f"product_mixture,2x3x2,{seed},0,0,0,100"),
        ("product_mixture", ["--dims", "2,2,2,2"], "100", [],
         f"product_mixture,2x2x2x2,{seed},0,0,0,100"),
        ("haar_pure", ["--dims", "2,2,2,2,2"], "100", [],
         f"haar_pure,2x2x2x2x2,{seed},100,100,100,0"),
        ("werner", [], "31", ["--p-start", "0", "--p-stop", "1"], f"werner,2x2,{seed},1,20,1,11"),
    ]
] + [
    (["--kind", "product_mixture", "--dims", "2,2,2,2", "--count", "100", "--seed", "42",
      "--depth", "3"], "product_mixture,2x2x2x2,42,0,0,0,100"),
    (["--kind", "product_mixture", "--dims", "2,3,2", "--count", "100", "--seed", "42",
      "--max-terms", "7"], "product_mixture,2x3x2,42,0,0,0,100"),
]


@pytest.mark.parametrize("argv,row", PINNED_BENCH_ROWS)
def test_bench_rows_are_pinned(argv, row, capsys):
    header = "kind,dims,seed,rank_detect,ppt_detect,both,neither"
    assert run(capsys, "bench", *argv) == (0, f"{header}\n{row}\n", "")


@pytest.mark.parametrize("argv", [argv for argv, _ in PINNED_BENCH_ROWS[:4]])
def test_bench_rows_do_not_depend_on_its_blocks(argv, capsys, monkeypatch):
    """With blocks of one member, as with one block of all, the same row."""
    from entrank import cli

    whole = run(capsys, "bench", *argv)
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    assert run(capsys, "bench", *argv) == whole


def test_bench_memory_does_not_grow_with_its_count(capsys):
    """Members are built and evaluated in blocks, so ten times the members
    peak at about the memory of one block (240 members here)."""
    import tracemalloc

    peaks = []
    for count in (400, 4000):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "bench", "--kind", "product_mixture", "--dims", "2,2,2,2",
                               "--max-terms", 1, "--count", count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, out.splitlines()[1]) == (0, f"product_mixture,2x2x2x2,0,0,0,0,{count}")
    assert peaks[1] < 2 * peaks[0], peaks


REMOVED_FLAGS = [
    ("analyze", "--seed", "1"),
    ("factorize", "--depth", "1"),
    ("factorize", "--seed", "1"),
    ("check-partition", "--depth", "1"),
    ("check-partition", "--seed", "1"),
    ("ppt", "--rtol", "0.1"),
    ("ppt", "--atol", "0.1"),
    ("ppt", "--depth", "1"),
    ("ppt", "--seed", "1"),
    ("gen", "--rtol", "0.1"),
    ("gen", "--atol", "0.1"),
    ("gen", "--depth", "1"),
    ("gen", "--json", None),
    ("bench", "--json", None),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_unread_flag_exits_2(command, flag, value, capsys, ghz3_file, tmp_path):
    base = {
        "analyze": ["analyze", ghz3_file],
        "factorize": ["factorize", ghz3_file],
        "check-partition": ["check-partition", ghz3_file, "1|2|3"],
        "ppt": ["ppt", ghz3_file, "1"],
        "gen": ["gen", "bell", "--out", tmp_path / "bell.json"],
        "bench": ["bench", "--kind", "werner", "--count", "2"],
    }[command]
    assert run(capsys, *base)[0] == 0
    extra = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in base + extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "haar_pure", "--dims", "2,2,2", "--count", "1", "--max-dim", "4"],
        ["--kind", "product_mixture", "--dims", "2,3", "--count", "1", "--max-dim", "5"],
        ["--kind", "werner", "--count", "1", "--max-dim", "3"],
    ],
)
def test_bench_enforces_max_dim(argv, capsys):
    code, out, err = run(capsys, "bench", *argv)
    assert code == 3
    assert out == ""
    assert "exceeds the maximum" in err


def test_dense_input_with_negative_eigenvalue_exits_2(capsys, tmp_path):
    from entrank.states import DensityMatrix

    matrix = np.diag([0.6, 0.4 + 2e-6, -2e-6, 0.0]).astype(complex)
    path = tmp_path / "negative.json"
    write_state_file(path, density_payload(DensityMatrix(dims=(2, 2), matrix=matrix)))
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert "negative eigenvalue -2.000e-06" in err


def _dense_file(tmp_path, rows):
    """A one-qubit dense file with the real matrix ``rows``, unchecked."""
    matrix = [[{"re": x, "im": 0.0} for x in row] for row in rows]
    payload = {"format_version": "1", "kind": "dense", "dims": [2], "matrix": matrix}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _nan_amplitude_file(tmp_path):
    payload = pure_payload(ghz(3, 2))
    payload["amplitudes"][0]["re"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _light_mixture_file(tmp_path):
    payload = mixture_payload(qutrit_mixture_terms())
    payload["terms"][0]["weight"] = 0.25
    path = tmp_path / "light.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "pure", "note": "\xe9"}'.encode("latin-1"))
    return path


def _nested_file(tmp_path):
    """Arrays nested past the interpreter's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "\n")
    return path


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p: _dense_file(p, [[0.5, 0.1], [0.0, 0.5]]),
         "density matrix is not Hermitian within tolerance"),
        (lambda p: _dense_file(p, [[0.5, 0.0], [0.0, 0.4]]),
         "density matrix trace (0.9+0j) is not 1"),
        (lambda p: _dense_file(p, [[1.5, 0.0], [0.0, -0.5]]),
         "density matrix has negative eigenvalue -5.000e-01"),
        (_light_mixture_file, "mixture weights sum to 0.75, expected 1"),
        (_nan_amplitude_file, "amplitudes contain NaN or Inf"),
        (_latin1_file,
         "'utf-8' codec can't decode byte 0xe9 in position 26: invalid continuation byte"),
        (_nested_file, "invalid JSON: nested too deeply"),
    ],
    ids=["not-hermitian", "trace", "negative", "weights", "nan-amplitude", "not-utf8", "nested"],
)
def test_a_load_error_names_the_file(make, message, capsys, tmp_path):
    path = make(tmp_path)
    assert run(capsys, "analyze", path) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "argv, target, errno_code",
    [
        (["gen", "ghz", "--out", "{missing}"], "{missing}", errno.ENOENT),
        (["bench", "--kind", "werner", "--count", "3", "--out", "{missing}"], "{missing}",
         errno.ENOENT),
        (["factorize", "{ghz3}", "--factors-out", "{ghz3}"], "{ghz3}", errno.EEXIST),
    ],
    ids=["gen", "bench", "factorize"],
)
def test_an_unwritable_output_is_an_input_error(argv, target, errno_code, capsys, tmp_path,
                                                ghz3_file):
    names = {"missing": tmp_path / "missing" / "dir" / "out", "ghz3": ghz3_file}
    code, out, err = run(capsys, *[arg.format(**names) for arg in argv])
    reason = os.strerror(errno_code)
    assert (code, out, err) == (2, "", f"error: cannot write {target.format(**names)}: {reason}\n")


@pytest.mark.parametrize(
    "name, errno_code", [("missing.json", errno.ENOENT), ("", errno.EISDIR)],
    ids=["missing", "directory"],
)
def test_an_unreadable_input_names_its_path_once(name, errno_code, capsys, tmp_path):
    """The message is ``cannot read <path>: <reason>`` with the OS reason
    alone, as ``cannot write`` reads; an empty name is the directory."""
    path = tmp_path / name
    reason = os.strerror(errno_code)
    assert run(capsys, "analyze", path) == (2, "", f"error: cannot read {path}: {reason}\n")


def test_json_report_hashes_the_bytes_it_read_once(capsys, monkeypatch, tmp_path):
    """input.sha256 is the digest of the file as stored, CRLF line ends and
    all, and the report reads its input once."""
    import builtins
    import io

    lf = tmp_path / "ghz3_lf.json"
    write_state_file(lf, pure_payload(ghz(3, 2)))
    crlf = tmp_path / "ghz3_crlf.json"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run(capsys, "analyze", crlf, "--json")
    monkeypatch.undo()
    assert code == 0
    assert opened.count(str(crlf)) == 1
    report = json.loads(out)
    assert report["input"]["sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    assert report["input"]["sha256"] != hashlib.sha256(lf.read_bytes()).hexdigest()
    lf_report = json.loads(run(capsys, "analyze", lf, "--json")[1])
    for key in ("state_rank", "lattice", "violations", "verdict"):
        assert report[key] == lf_report[key]


def test_json_reports_build_no_human_text(capsys, monkeypatch, ghz3_file):
    import entrank.cli as cli

    def refuse(subset):
        raise AssertionError("human text built for a --json report")

    monkeypatch.setattr(cli, "_fmt_subset", refuse)
    assert run(capsys, "analyze", ghz3_file, "--json", "--ppt")[0] == 0
    assert run(capsys, "factorize", ghz3_file, "--json")[0] == 0
    assert run(capsys, "ppt", ghz3_file, "1", "--json")[0] == 0
    assert run(capsys, "check-partition", ghz3_file, "1|2|3", "--json")[0] == 0


def test_human_output_builds_no_json_report(capsys, monkeypatch, tmp_path, ghz3_file):
    """Without --json no report is built: with the report builders and the
    JSON writer refused, each command prints the text it prints with them."""
    import entrank.cli as cli

    paper6 = tmp_path / "paper6.json"
    write_state_file(paper6, pure_payload(catalog.six_qubit_benchmark()))
    runs = [
        ("analyze", "--ppt", ghz3_file),
        ("factorize", paper6),
        ("check-partition", ghz3_file, "1|2|3"),
    ]
    expected = [run(capsys, *argv) for argv in runs]

    def refuse(*args):
        raise AssertionError("JSON report built for human output")

    for name in ("_report_header", "_lattice_report", "json_pieces"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, want in zip(runs, expected):
        assert want[0] == 0 and want[1], argv
        assert run(capsys, *argv) == want, argv


def test_json_report_bytes_are_those_of_json_dumps(capsys, tmp_path):
    """The --json writer prints what json.dumps(report, indent=2,
    sort_keys=True) and a newline would, here on a 12-qubit report."""
    from entrank.catalog import haar_pure

    path = tmp_path / "haar12.json"
    write_state_file(path, pure_payload(haar_pure((2,) * 12, seed=70)))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_json_report_bytes_of_every_command(capsys, tmp_path):
    """factorize, check-partition, ppt and analyze --ppt reports, with None
    parents, floats and an input path that JSON must escape, are written
    byte for byte as json.dumps(report, indent=2, sort_keys=True) + newline."""
    from entrank.catalog import haar_pure

    pure = tmp_path / 'haar "8" \\ näme %s.json'
    write_state_file(pure, pure_payload(haar_pure((2,) * 8, seed=71)))
    mixed = tmp_path / "mixed6.json"
    terms = [(w, haar_pure((2,) * 6, seed=72 + k)) for k, w in enumerate((0.5, 0.3, 0.2))]
    write_state_file(mixed, mixture_payload(terms))
    runs = [
        ("factorize", pure),
        ("check-partition", pure, "1|2|3|4|5|6|7|8"),
        ("check-partition", pure, "1,2,3,4|5,6,7,8"),
        ("check-partition", mixed, "1,4|2,5,6|3"),
        ("ppt", mixed, "1,3"),
        ("analyze", "--ppt", "--depth", "5", mixed),
        ("analyze", pure),
    ]
    seen = set()
    for argv in runs:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        report = json.loads(out)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n", argv
        seen.update(type(value).__name__ for value in _json_leaves(report))
        if "violations" in report:
            seen.update("None parent" for v in report["violations"] if v["parent"] is None)
    assert seen >= {"int", "float", "str", "None parent"}
    assert '\\"8\\" \\\\ n\\u00e4me %s.json' in out


def test_json_writer_matches_json_dumps_on_every_value_form(capsys):
    from entrank.cli import _print_json

    report = {
        "scalars": [None, True, False, 0, -5, 2**70, 1.5, -0.0, 1e-300, 1e300,
                    float("nan"), float("inf"), -float("inf"), np.float64(0.1)],
        "strings": ["", "é\"\\\n\t \x00", "%s %d"],
        "nested": [[], {}, (1, 2), [[1, True], (None,)], {"z": 1, "a%s": [1.0, None], "m": {}}],
        "rows": [{"b": [1, 2], "a": None}, {"a": 1.25, "b": []}, {"b": "x", "a": [True]}],
        "empty_list": [],
        "empty_dict": {},
        "text": "plain",
    }
    _print_json(report)
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    _print_json({})
    assert capsys.readouterr().out == "{}\n"


def _json_leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _json_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item)
    else:
        yield value
