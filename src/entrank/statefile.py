"""State files: UTF-8 JSON with explicit re/im fields and per-particle indices.

Schema (format_version "1"):

    {"format_version": "1", "kind": "pure", "dims": [2, 2],
     "amplitudes": [{"index": [0, 0], "re": 0.7071067811865476, "im": 0.0}, ...]}

``kind`` is one of pure, mixture, dense. A mixture carries ``terms``, each a
weight plus an amplitude list; dense carries ``matrix`` as nested rows of
re/im objects. Amplitudes are keyed by per-particle index vectors, unlisted
basis states are zero, and no complex literals appear, so files stay
dimension-explicit and portable. An optional ``metadata`` object records
provenance such as generator names and seeds.

Loaded payloads must be normalized within ``LOAD_TOL`` (1e-6): the norm of
each pure amplitude list, the sum of mixture weights, and the trace, the
relative Hermiticity defect and the negative eigenvalues of a dense matrix.
Amplitudes and dense matrices are rescaled only when they are off by more
than 1e-12, so writing and re-reading a normalized state is bit-identical.
A dense matrix goes through ``states.density_matrix`` alone, which keeps its
Hermitian part at unit trace and its factor. Every load error names the
file, those of the state constructors and of UTF-8 decoding too.
"""

from __future__ import annotations

import json
from itertools import chain
from math import prod
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from .errors import EntrankError, StateFileError
from .jsonfmt import json_pieces
from .linalg import DEFAULT_MAX_DIM
from .states import (
    RESCALE_GUARD,
    DensityMatrix,
    PureState,
    State,
    density_matrix,
    mix,
    pure_state,
    validate_dims,
)

FORMAT_VERSION = "1"
LOAD_TOL = 1e-6


def _require(payload: dict, key: str, context: str) -> Any:
    if key not in payload:
        raise StateFileError(f"{context}: missing required field {key!r}")
    return payload[key]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_float(value: Any, where: str) -> float:
    if not _is_number(value):
        raise StateFileError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise StateFileError(f"{where}: number too large for a float") from None


def _checked_complex(entry: dict, where: str) -> complex:
    """complex(entry["re"], entry["im"]), or an error naming ``where`` and the
    bad field. Only the cell loops call it, and a valid file never reaches
    them: the bulk parsers take it."""
    re = _parse_float(_require(entry, "re", where), where)
    im = _parse_float(_require(entry, "im", where), where)
    return complex(re, im)


def _parse_amplitudes(
    entries: Any, dims: tuple[int, ...], where: str
) -> np.ndarray:
    """The amplitude vector of an entry list, checked and converted in bulk:
    one list per field, one type check, the flat indices from
    ``ravel_multi_index`` (which rejects an index out of range), and a
    unique count for duplicates. An input that fails the bulk check goes
    through ``_amplitude_cells``, which names its first bad entry."""
    if not isinstance(entries, list):
        raise StateFileError(f"{where}: amplitude list expected")
    try:
        index = [entry["index"] for entry in entries]
        re = [entry["re"] for entry in entries]
        im = [entry["im"] for entry in entries]
        if not (_numbers(re, im) and set(map(type, chain.from_iterable(index))) == {int}):
            return _amplitude_cells(entries, dims, where)
        flat = np.ravel_multi_index(np.array(index, dtype=np.int64).T, dims)
        values = np.array(re, np.float64), np.array(im, np.float64)
    except (TypeError, KeyError, ValueError, OverflowError):
        return _amplitude_cells(entries, dims, where)
    taken = np.zeros(prod(dims), dtype=bool)
    taken[flat] = True
    if np.count_nonzero(taken) != flat.size:  # a duplicate index
        return _amplitude_cells(entries, dims, where)
    amps = np.zeros(prod(dims), dtype=np.complex128)
    amps.real[flat], amps.imag[flat] = values
    return amps


def _numbers(*fields: list) -> bool:
    """Whether every value of ``fields`` is a JSON number (int or float, not bool)."""
    return set(map(type, chain.from_iterable(fields))) <= {int, float}


def _amplitude_cells(entries: list, dims: tuple[int, ...], where: str) -> np.ndarray:
    """The amplitude vector entry by entry, raising at the first bad entry."""
    amps = np.zeros(prod(dims), dtype=np.complex128)
    seen: set[int] = set()

    def at(pos: int) -> str:
        return f"{where}, amplitude {pos}"

    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise StateFileError(f"{at(pos)}: expected an object")
        index = entry.get("index")
        if not (
            isinstance(index, list) and len(index) == len(dims) and all(map(_is_index, index))
        ):
            _require(entry, "index", at(pos))
            raise StateFileError(f"{at(pos)}: index must list one integer per particle")
        flat = 0
        for i, d in zip(index, dims):
            if not 0 <= i < d:
                raise StateFileError(
                    f"{at(pos)}: index {index} out of range for dims {list(dims)}"
                )
            flat = flat * d + i
        if flat in seen:
            raise StateFileError(f"{at(pos)}: duplicate basis index {index}")
        seen.add(flat)
        amps[flat] = _checked_complex(entry, at(pos))
    return amps


def _normalized(amps: np.ndarray, where: str) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > LOAD_TOL:
        raise StateFileError(f"{where}: amplitude norm {norm!r} is not 1 within {LOAD_TOL}")
    if abs(norm - 1.0) > RESCALE_GUARD:
        amps = amps / norm
    return amps


def _parse_matrix(rows: Any, d: int, where: str) -> np.ndarray:
    """The d × d matrix of nested re/im rows, checked and converted in bulk
    (one list per field, one type check); an input that fails the bulk
    check goes through ``_matrix_cells``, which names its first bad cell."""
    if not isinstance(rows, list) or len(rows) != d:
        raise StateFileError(f"{where}: matrix must have {d} rows")
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {d}:
        try:
            re = [cell["re"] for row in rows for cell in row]
            im = [cell["im"] for row in rows for cell in row]
            if _numbers(re, im):
                out = np.empty(d * d, dtype=np.complex128)
                out.real, out.imag = np.array(re, np.float64), np.array(im, np.float64)
                return out.reshape(d, d)
        except (TypeError, KeyError, OverflowError):
            pass
    return _matrix_cells(rows, d, where)


def _matrix_cells(rows: list, d: int, where: str) -> np.ndarray:
    """The matrix cell by cell, raising at the first bad row or cell."""
    out = np.empty((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise StateFileError(f"{where}, row {i}: expected {d} entries")
        values: list[complex] = []
        for cell in row:
            ctx = f"{where}, row {i}, column {len(values)}"
            if not isinstance(cell, dict):
                raise StateFileError(f"{ctx}: expected an object with re/im")
            values.append(_checked_complex(cell, ctx))
        out[i] = values
    return out


def parse_state(
    payload: dict,
    max_dim: int = DEFAULT_MAX_DIM,
    context: str = "state file",
) -> State:
    """Validate a decoded state-file object and build the state it describes;
    every error names ``context``, those of the constructors it calls too."""
    if not isinstance(payload, dict):
        raise StateFileError(f"{context}: top level must be an object")
    version = _require(payload, "format_version", context)
    if version != FORMAT_VERSION:
        raise StateFileError(f"{context}: unsupported format_version {version!r}")
    kind = _require(payload, "kind", context)
    dims_raw = _require(payload, "dims", context)
    if not isinstance(dims_raw, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims_raw
    ):
        raise StateFileError(f"{context}: dims must be a list of integers")
    try:
        dims = validate_dims(dims_raw, max_dim)
        if kind == "pure":
            amps = _parse_amplitudes(_require(payload, "amplitudes", context), dims, context)
            amps = _normalized(amps, context)
            return pure_state(dims, amps, max_dim=max_dim)

        if kind == "mixture":
            terms_raw = _require(payload, "terms", context)
            if not isinstance(terms_raw, list) or not terms_raw:
                raise StateFileError(f"{context}: mixture needs a nonempty terms list")
            terms = []
            for pos, term in enumerate(terms_raw):
                ctx = f"{context}, term {pos}"
                if not isinstance(term, dict):
                    raise StateFileError(f"{ctx}: expected an object")
                weight = _parse_float(_require(term, "weight", ctx), ctx)
                amps = _parse_amplitudes(_require(term, "amplitudes", ctx), dims, ctx)
                amps = _normalized(amps, ctx)
                terms.append((weight, pure_state(dims, amps, max_dim=max_dim)))
            return mix(terms, weight_atol=LOAD_TOL)

        if kind == "dense":
            matrix = _parse_matrix(_require(payload, "matrix", context), prod(dims), context)
            return density_matrix(dims, matrix, max_dim=max_dim, atol=LOAD_TOL)
    except StateFileError:
        raise
    except EntrankError as exc:
        raise type(exc)(f"{context}: {exc}") from exc
    raise StateFileError(f"{context}: unknown kind {kind!r}")


def load_state(
    path: Union[str, Path],
    max_dim: int = DEFAULT_MAX_DIM,
    digest=None,
) -> State:
    """Read and validate a state file; errors carry file and position context.
    The file is read once: ``digest``, a ``hashlib`` object, is updated with
    its bytes as stored, which are decoded as UTF-8 with no newline translation."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    del data
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise StateFileError(f"{path}: invalid JSON: nested too deeply") from None
    del text  # several MB for a dense file; freed before its matrix is checked
    return parse_state(payload, max_dim=max_dim, context=str(path))


def _amplitude_entries(dims: tuple[int, ...], amps: np.ndarray) -> list[dict]:
    """One entry per nonzero amplitude, in basis order."""
    flat = np.flatnonzero(amps)
    index = np.stack(np.unravel_index(flat, dims), axis=1).tolist()
    re, im = amps.real[flat].tolist(), amps.imag[flat].tolist()
    return [{"index": i, "re": r, "im": m} for i, r, m in zip(index, re, im)]


def pure_payload(psi: PureState, metadata: Optional[dict] = None) -> dict:
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "pure",
        "dims": list(psi.dims),
        "amplitudes": _amplitude_entries(psi.dims, psi.amplitudes),
    }
    if metadata:
        payload["metadata"] = metadata
    return payload


def mixture_payload(
    terms: Sequence[tuple[float, PureState]], metadata: Optional[dict] = None
) -> dict:
    dims = terms[0][1].dims
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "mixture",
        "dims": list(dims),
        "terms": [
            {
                "weight": float(weight),
                "amplitudes": _amplitude_entries(psi.dims, psi.amplitudes),
            }
            for weight, psi in terms
        ],
    }
    if metadata:
        payload["metadata"] = metadata
    return payload


def density_payload(rho: DensityMatrix, metadata: Optional[dict] = None) -> dict:
    matrix = [
        [{"re": float(cell.real), "im": float(cell.imag)} for cell in row]
        for row in rho.matrix
    ]
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "dense",
        "dims": list(rho.dims),
        "matrix": matrix,
    }
    if metadata:
        payload["metadata"] = metadata
    return payload


def state_payload(state: State, metadata: Optional[dict] = None) -> dict:
    """The payload of the state's own form: ``pure`` for a PureState,
    ``mixture`` for a state that carries its factor, whose columns √w_j·ψ_j
    give the terms (w_j, ψ_j), and ``dense`` for a bare matrix. A loaded
    dense file carries its eigen-factor, so it is written as a mixture; no
    command writes a loaded state."""
    if isinstance(state, PureState):
        return pure_payload(state, metadata)
    if state.factor is None:
        return density_payload(state, metadata)
    weights = np.sum(np.abs(state.factor) ** 2, axis=0)
    terms = [
        (float(w), PureState(dims=state.dims, amplitudes=column / np.sqrt(w)))
        for w, column in zip(weights, state.factor.T)
    ]
    return mixture_payload(terms, metadata)


def write_state_file(path: Union[str, Path], payload: dict) -> None:
    """Serialize a payload deterministically: the bytes of ``json.dumps(payload,
    indent=2, sort_keys=True)`` and a newline."""
    Path(path).write_text("".join(json_pieces(payload)) + "\n", encoding="utf-8")
