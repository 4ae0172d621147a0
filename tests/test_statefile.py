import json

import numpy as np
import pytest

from entrank.catalog import bell, haar_pure, mixed_of_rank, werner
from entrank.errors import NormalizationError, StateFileError
from entrank.statefile import (
    density_payload,
    load_state,
    mixture_payload,
    parse_state,
    pure_payload,
    write_state_file,
)
from entrank.states import DensityMatrix, PureState
from oracles import dense_matrix


def write(tmp_path, payload, name="state.json"):
    path = tmp_path / name
    write_state_file(path, payload)
    return path


def test_pure_bell_round_trip(tmp_path):
    path = write(tmp_path, pure_payload(bell()))
    state = load_state(path)
    assert isinstance(state, PureState)
    assert state.dims == (2, 2)
    assert np.count_nonzero(state.amplitudes) == 2


def test_mixture_of_basis_states(tmp_path):
    payload = {
        "format_version": "1",
        "kind": "mixture",
        "dims": [2, 2],
        "terms": [
            {"weight": 0.5, "amplitudes": [{"index": [0, 0], "re": 1.0, "im": 0.0}]},
            {"weight": 0.5, "amplitudes": [{"index": [1, 1], "re": 1.0, "im": 0.0}]},
        ],
    }
    state = load_state(write(tmp_path, payload))
    assert isinstance(state, DensityMatrix)
    assert np.array_equal(state.matrix, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_dense_round_trip(tmp_path):
    rho = werner(0.6)
    path = write(tmp_path, density_payload(rho))
    state = load_state(path)
    assert isinstance(state, DensityMatrix)
    np.testing.assert_array_equal(state.matrix, rho.matrix)


def test_round_trip_is_bit_identical(tmp_path):
    """Writing, reading, and re-writing a random state reproduces the bytes."""
    psi = haar_pure((2, 3), seed=77)
    first = write(tmp_path, pure_payload(psi), "a.json")
    loaded = load_state(first)
    assert np.array_equal(loaded.amplitudes, psi.amplitudes)
    second = write(tmp_path, pure_payload(loaded), "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_metadata_preserved_in_payload():
    payload = pure_payload(bell(), metadata={"name": "bell", "seed": 3})
    assert payload["metadata"] == {"name": "bell", "seed": 3}


def test_unlisted_amplitudes_are_zero(tmp_path):
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2, 2],
        "amplitudes": [{"index": [0, 1], "re": 1.0, "im": 0.0}],
    }
    state = load_state(write(tmp_path, payload))
    assert state.amplitudes[1] == 1.0
    assert state.amplitudes[0] == state.amplitudes[2] == state.amplitudes[3] == 0.0


def test_mild_normalization_is_repaired(tmp_path):
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2],
        "amplitudes": [{"index": [0], "re": 1.0000001, "im": 0.0}],
    }
    state = load_state(write(tmp_path, payload))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- errors


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1",\n  "kind": }')
    with pytest.raises(StateFileError, match="line 2"):
        load_state(path)


def test_missing_file(tmp_path):
    with pytest.raises(StateFileError, match="cannot read"):
        load_state(tmp_path / "nope.json")


def test_unknown_kind():
    with pytest.raises(StateFileError, match="unknown kind"):
        parse_state({"format_version": "1", "kind": "frob", "dims": [2]})


def test_unsupported_version():
    with pytest.raises(StateFileError, match="format_version"):
        parse_state({"format_version": "2", "kind": "pure", "dims": [2], "amplitudes": []})


def test_index_length_mismatch():
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2, 2],
        "amplitudes": [{"index": [0], "re": 1.0, "im": 0.0}],
    }
    with pytest.raises(StateFileError, match="one integer per particle"):
        parse_state(payload)


def test_index_out_of_range():
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2, 2],
        "amplitudes": [{"index": [0, 2], "re": 1.0, "im": 0.0}],
    }
    with pytest.raises(StateFileError, match="out of range"):
        parse_state(payload)


def test_duplicate_index():
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2],
        "amplitudes": [
            {"index": [0], "re": 0.8, "im": 0.0},
            {"index": [0], "re": 0.6, "im": 0.0},
        ],
    }
    with pytest.raises(StateFileError, match="duplicate"):
        parse_state(payload)


def test_norm_failure():
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2],
        "amplitudes": [{"index": [0], "re": 0.5, "im": 0.0}],
    }
    with pytest.raises(StateFileError, match="norm"):
        parse_state(payload)


def test_dense_psd_failure():
    bad = np.diag([1.5, -0.5])
    payload = {
        "format_version": "1",
        "kind": "dense",
        "dims": [2],
        "matrix": [
            [{"re": float(bad[i, j].real), "im": 0.0} for j in range(2)] for i in range(2)
        ],
    }
    with pytest.raises(Exception, match="negative eigenvalue"):
        parse_state(payload)


def test_dense_wrong_shape():
    payload = {
        "format_version": "1",
        "kind": "dense",
        "dims": [2],
        "matrix": [[{"re": 1.0, "im": 0.0}]],
    }
    with pytest.raises(StateFileError, match="rows"):
        parse_state(payload)


def test_complex_literal_rejected():
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2],
        "amplitudes": [{"index": [0], "re": "1+0j", "im": 0.0}],
    }
    with pytest.raises(StateFileError, match="expected a number"):
        parse_state(payload)


def test_dense_load_symmetrizes_and_rescales_once(tmp_path):
    """A dense payload off by a 1e-8 relative Hermitian defect and a trace of
    1 + 1e-7 loads as exactly ((m + m†)/2) / tr."""
    rho = mixed_of_rank((2, 2), seed=9, rank=2).matrix
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    skew = g - g.conj().T
    m = (1 + 1e-7) * rho + 0.5e-8 * np.linalg.norm(rho) / np.linalg.norm(skew) * skew
    assert np.linalg.norm(m - m.conj().T) / np.linalg.norm(m) == pytest.approx(1e-8, rel=1e-3)
    state = load_state(write(tmp_path, density_payload(DensityMatrix(dims=(2, 2), matrix=m))))
    sym = (m + m.conj().T) / 2
    assert np.array_equal(state.matrix, sym / np.trace(sym).real)


def _dense_payload(cells):
    return {"format_version": "1", "kind": "dense", "dims": [3], "matrix": cells}


def _diagonal_cells():
    return [
        [{"re": 1 / 3 if i == j else 0.0, "im": 0.0} for j in range(3)] for i in range(3)
    ]


@pytest.mark.parametrize(
    "cell, message",
    [
        ([0.0, 0.0], "state file, row 2, column 1: expected an object with re/im"),
        ({"im": 0.0}, "state file, row 2, column 1: missing required field 're'"),
        ({"re": 0.0}, "state file, row 2, column 1: missing required field 'im'"),
        ({"re": True, "im": 0.0}, "state file, row 2, column 1: expected a number, got True"),
        ({"re": 0.0, "im": "0"}, "state file, row 2, column 1: expected a number, got '0'"),
        (None, "state file, row 2: expected 3 entries"),
    ],
    ids=["not-object", "missing-re", "missing-im", "bool", "string", "short-row"],
)
def test_dense_cell_error_messages(cell, message):
    cells = _diagonal_cells()
    if cell is None:
        cells[2].pop()
    else:
        cells[2][1] = cell
    with pytest.raises(StateFileError) as info:
        parse_state(_dense_payload(cells))
    assert str(info.value) == message


HUGE = int("9" * 400)  # valid JSON, beyond the float range


def _payload_with(field, value):
    """A valid payload with ``value`` in one field: an amplitude's re or im,
    a dense cell's re, or a mixture weight."""
    if field == "cell":
        cells = _diagonal_cells()
        cells[2][1] = {"re": value, "im": 0.0}
        return _dense_payload(cells)
    entries = [{"index": [0], "re": 0.6, "im": 0.0}, {"index": [1], "re": 0.0, "im": 0.8}]
    if field in ("re", "im"):
        entries[1][field] = value
        return {"format_version": "1", "kind": "pure", "dims": [2], "amplitudes": entries}
    return {"format_version": "1", "kind": "mixture", "dims": [2],
            "terms": [{"weight": value, "amplitudes": entries}]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "field, message",
    [
        ("re", "state file, amplitude 1: number too large for a float"),
        ("im", "state file, amplitude 1: number too large for a float"),
        ("cell", "state file, row 2, column 1: number too large for a float"),
        ("weight", "state file, term 0: number too large for a float"),
    ],
    ids=["re", "im", "cell", "weight"],
)
def test_an_integer_beyond_the_float_range_is_a_state_file_error(field, message):
    with pytest.raises(StateFileError) as info:
        parse_state(_payload_with(field, HUGE))
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
def test_amplitudes_whose_norm_overflows_are_a_state_file_error():
    """Two amplitudes of 1e308 overflow the norm, which is then inf, with no
    RuntimeWarning; a dense matrix near the float limit likewise fails its
    trace check."""
    payload = _payload_with("re", 1e308)
    payload["amplitudes"][0]["re"] = 1e308
    with pytest.raises(StateFileError) as info:
        parse_state(payload)
    assert str(info.value) == "state file: amplitude norm inf is not 1 within 1e-06"
    cells = _diagonal_cells()
    cells[0][0] = cells[1][1] = {"re": 1e308, "im": 0.0}
    with pytest.raises(
        NormalizationError, match=r"^state file: density matrix trace \(inf\+0j\) is not 1$"
    ):
        parse_state(_dense_payload(cells))


def test_dense_cells_accept_ints_and_floats():
    cells = _diagonal_cells()
    cells[0][0] = {"re": 1, "im": 0}
    cells[1][1] = {"re": 0, "im": 0}
    cells[2][2] = {"re": 0, "im": 0}
    assert np.array_equal(parse_state(_dense_payload(cells)).matrix, np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "entry, message",
    [
        ([1], "expected an object"),
        ({"re": 0.6, "im": 0.0}, "missing required field 'index'"),
        ({"index": [1], "re": 0.6, "im": 0.0}, "index must list one integer per particle"),
        ({"index": [1, True], "re": 0.6, "im": 0.0},
         "index must list one integer per particle"),
        ({"index": [1, 3], "re": 0.6, "im": 0.0}, "index [1, 3] out of range for dims [2, 3]"),
        ({"index": [0, 0], "re": 0.6, "im": 0.0}, "duplicate basis index [0, 0]"),
        ({"index": [1, 2], "im": 0.0}, "missing required field 're'"),
        ({"index": [1, 2], "re": 0.6}, "missing required field 'im'"),
        ({"index": [1, 2], "re": False, "im": 0.0}, "expected a number, got False"),
        ({"index": [1, 2], "re": 0.6, "im": None}, "expected a number, got None"),
    ],
    ids=["not-object", "missing-index", "short-index", "bool-index", "out-of-range",
         "duplicate", "missing-re", "missing-im", "bool", "null"],
)
def test_amplitude_error_messages(entry, message):
    payload = {
        "format_version": "1",
        "kind": "mixture",
        "dims": [2, 3],
        "terms": [
            {"weight": 1.0, "amplitudes": [{"index": [0, 0], "re": 0.8, "im": 0.0}, entry]}
        ],
    }
    with pytest.raises(StateFileError) as info:
        parse_state(payload)
    assert str(info.value) == f"state file, term 0, amplitude 1: {message}"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"index": [-1, 0], "re": 0.6, "im": 0.0}, "index [-1, 0] out of range for dims [2, 3]"),
        ({"index": [1, 2**70], "re": 0.6, "im": 0.0},
         f"index [1, {2**70}] out of range for dims [2, 3]"),
        ({"index": [1.0, 2], "re": 0.6, "im": 0.0}, "index must list one integer per particle"),
        ({"index": "12", "re": 0.6, "im": 0.0}, "index must list one integer per particle"),
        ({"index": [[1], 2], "re": 0.6, "im": 0.0}, "index must list one integer per particle"),
        ({"index": [1, 2, 0], "re": 0.6, "im": 0.0}, "index must list one integer per particle"),
        ({"index": [1, 2], "re": "0.6", "im": 0.0}, "expected a number, got '0.6'"),
    ],
    ids=["negative", "huge", "float-index", "string-index", "nested-index", "long-index",
         "string-re"],
)
def test_amplitude_errors_the_bulk_check_hands_to_the_entry_loop(entry, message):
    payload = {
        "format_version": "1",
        "kind": "pure",
        "dims": [2, 3],
        "amplitudes": [{"index": [0, 0], "re": 0.8, "im": 0.0}, entry],
    }
    with pytest.raises(StateFileError) as info:
        parse_state(payload)
    assert str(info.value) == f"state file, amplitude 1: {message}"


def test_valid_files_load_in_bulk_bit_for_bit(tmp_path, monkeypatch):
    """Valid pure, mixture and dense files never reach the entry loops, and
    the bulk arrays equal the loops' bit for bit, ints and floats alike."""
    from entrank import statefile

    basis = {"format_version": "1", "kind": "pure", "dims": [2, 3, 2],
             "amplitudes": [{"index": [1, 2, 0], "re": 0, "im": -1}]}
    payloads = [
        basis,
        pure_payload(haar_pure((2, 3, 2), seed=91)),
        mixture_payload([(0.25, haar_pure((3, 2), seed=92)), (0.75, haar_pure((3, 2), seed=93))]),
        density_payload(mixed_of_rank((2, 3), seed=94, rank=3)),
    ]
    expected = []
    for payload in payloads:
        if payload["kind"] == "dense":
            expected.append(statefile._matrix_cells(payload["matrix"], 6, "x"))
        else:
            for amps in [t["amplitudes"] for t in payload.get("terms", [payload])]:
                expected.append(statefile._amplitude_cells(amps, tuple(payload["dims"]), "x"))

    def refuse(*args):
        raise AssertionError("a valid file reached the entry loop")

    monkeypatch.setattr(statefile, "_amplitude_cells", refuse)
    monkeypatch.setattr(statefile, "_matrix_cells", refuse)
    got = []
    for payload in payloads:
        if payload["kind"] == "dense":
            got.append(statefile._parse_matrix(payload["matrix"], 6, "x"))
        else:
            for amps in [t["amplitudes"] for t in payload.get("terms", [payload])]:
                got.append(statefile._parse_amplitudes(amps, tuple(payload["dims"]), "x"))
        parse_state(payload, max_dim=64)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]


def test_state_file_bytes_are_those_of_json_dumps(tmp_path):
    """Pure, mixture and dense payloads with metadata are written byte for
    byte as json.dumps(payload, indent=2, sort_keys=True) and a newline."""
    from entrank.catalog import ghz

    metadata = {"name": "näme \"%s\"", "seed": 2**70, "params": {"p": 0.1, "dims": [2, 3]},
                "flags": [True, None, -0.0, 1e-300]}
    rho = mixed_of_rank((2, 3), seed=4, rank=2)
    payloads = [
        pure_payload(ghz(3, 2), metadata=metadata),
        pure_payload(haar_pure((2, 3, 2), seed=5), metadata=metadata),
        mixture_payload([(0.25, bell()), (0.75, haar_pure((2, 2), seed=6))], metadata=metadata),
        density_payload(DensityMatrix(dims=rho.dims, matrix=rho.matrix), metadata=metadata),
        density_payload(werner(0.4)),
    ]
    for k, payload in enumerate(payloads):
        path = write(tmp_path, payload, f"state{k}.json")
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_state_payload_picks_the_state_form(tmp_path):
    """pure for a PureState, mixture for a state with an exact factor (terms
    from its columns √w_j·ψ_j), dense for a bare matrix; each file holds the
    bytes of the per-kind builder."""
    from entrank.statefile import state_payload

    psi = haar_pure((2, 3), seed=4)
    rho = mixed_of_rank((2, 2), seed=5, rank=1)
    (weight,) = np.sum(np.abs(rho.factor) ** 2, axis=0)
    term = PureState(dims=rho.dims, amplitudes=rho.factor[:, 0] / np.sqrt(weight))
    meta = {"name": "test"}
    cases = [
        (psi, "pure", pure_payload(psi, meta)),
        (rho, "mixture", mixture_payload([(float(weight), term)], meta)),
        (werner(0.3), "dense", density_payload(werner(0.3), meta)),
    ]
    for state, kind, expected in cases:
        payload = state_payload(state, meta)
        assert payload["kind"] == kind
        path = write(tmp_path, payload, "a.json")
        assert path.read_bytes() == write(tmp_path, expected, "b.json").read_bytes()
        assert np.allclose(dense_matrix(load_state(path)), dense_matrix(state), atol=1e-12)


def test_state_payload_of_a_loaded_dense_state_is_its_factors_mixture(tmp_path):
    """A loaded dense state carries its eigen-factor V, so ``state_payload``
    writes the mixture of V's columns; read back, its matrix is the stored
    one to 1e-12."""
    from entrank.statefile import state_payload

    rho = mixed_of_rank((2, 3), seed=6, rank=3)
    loaded = load_state(write(tmp_path, density_payload(rho), "dense.json"))
    payload = state_payload(loaded)
    assert payload["kind"] == "mixture"
    assert len(payload["terms"]) == 3
    again = load_state(write(tmp_path, payload, "mixture.json"))
    assert np.allclose(again.matrix, loaded.matrix, rtol=0.0, atol=1e-12)


def test_amplitude_entries_list_every_nonzero_amplitude_in_order():
    """An amplitude of signed zeros is left out; any other keeps its entry, with
    its index per particle and the sign of a zero part, as the loop over every
    amplitude gives them."""
    amps = np.zeros(12, dtype=np.complex128)
    amps[0] = complex(-0.0, -0.0)
    amps[3] = complex(0.0, -0.5)
    amps[7] = complex(0.5, -0.0)
    amps[11] = complex(-0.5, 0.5)
    payload = pure_payload(PureState(dims=(2, 3, 2), amplitudes=amps))
    assert json.dumps(payload["amplitudes"]) == json.dumps([
        {"index": [0, 1, 1], "re": 0.0, "im": -0.5},
        {"index": [1, 0, 1], "re": 0.5, "im": -0.0},
        {"index": [1, 2, 1], "re": -0.5, "im": 0.5},
    ])
    assert all(type(i) is int for entry in payload["amplitudes"] for i in entry["index"])
    for state in (PureState(dims=(2, 3, 2), amplitudes=amps), haar_pure((2, 3, 2), seed=6)):
        assert json.dumps(pure_payload(state)["amplitudes"]) == json.dumps(
            entries_one_by_one(state)
        )


def entries_one_by_one(psi):
    """The amplitude entries of a pure payload, one amplitude at a time."""
    entries = []
    for flat, value in enumerate(psi.amplitudes):
        if value.real == 0.0 and value.imag == 0.0:
            continue
        index = [int(i) for i in np.unravel_index(flat, psi.dims)]
        entries.append({"index": index, "re": float(value.real), "im": float(value.imag)})
    return entries
