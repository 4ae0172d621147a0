"""Write a workload's input files: seeded states in state-file format version 1.

    python perfbench/inputs.py <workload> <seed> <directory>

Random states use numpy's Philox generator keyed by (seed, stream), so the same
seed writes byte-identical files. Each file's payload kind is fixed by its
generator here: ``pure`` for pure states, ``dense`` or ``mixture`` as named.
The JSON is written on one line (a dense 8-qubit file is about 4 MB), which
keeps set-up short. Runs in its own process so that the benchmark process,
which spawns the measured jobs, never holds these arrays.
"""

from __future__ import annotations

import json
import sys
from math import prod
from pathlib import Path

import numpy as np

import workloads


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _amplitudes(dims, amps: np.ndarray) -> list[dict]:
    return [{"index": [int(i) for i in np.unravel_index(int(flat), dims)],
             "re": float(amps[flat].real), "im": float(amps[flat].imag)}
            for flat in np.flatnonzero(amps)]


def _pure(dims, amps) -> dict:
    return {"kind": "pure", "amplitudes": _amplitudes(dims, amps)}


def _dense(matrix: np.ndarray) -> dict:
    return {"kind": "dense",
            "matrix": [[{"re": c.real, "im": c.imag} for c in row]
                       for row in matrix.tolist()]}


def _mixture_terms(dims, rank, rng):
    weights = 1.0 - rng.random(rank)
    return weights / weights.sum(), [_haar(prod(dims), rng) for _ in range(rank)]


def _density(weights, vectors) -> np.ndarray:
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))


def haar(seed, dims, stream):
    return _pure(dims, _haar(prod(dims), _rng(seed, stream)))


def ghz(seed, dims):
    amps = np.zeros(prod(dims), dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return _pure(dims, amps)


def w(seed, dims):
    n = len(dims)
    amps = np.zeros(prod(dims), dtype=np.complex128)
    for i in range(n):
        amps[1 << (n - 1 - i)] = 1 / np.sqrt(n)
    return _pure(dims, amps)


def blocks(seed, dims, stream, parts):
    """Product of Haar blocks; parts must be contiguous and in order."""
    amps = np.array([1.0 + 0.0j])
    for j, part in enumerate(parts):
        amps = np.kron(amps, _haar(prod(dims[i] for i in part), _rng(seed, stream + j)))
    return _pure(dims, amps)


def mixed_dense(seed, dims, rank, stream):
    return _dense(_density(*_mixture_terms(dims, rank, _rng(seed, stream))))


def mixed_terms(seed, dims, rank, stream):
    weights, vectors = _mixture_terms(dims, rank, _rng(seed, stream))
    return {"kind": "mixture",
            "terms": [{"weight": float(wt), "amplitudes": _amplitudes(dims, v)}
                      for wt, v in zip(weights, vectors)]}


def separable_dense(seed, dims, terms, stream):
    rng = _rng(seed, stream)
    weights = 1.0 - rng.random(terms)
    vectors = []
    for _ in range(terms):
        v = np.array([1.0 + 0.0j])
        for d in dims:
            v = np.kron(v, _haar(d, rng))
        vectors.append(v)
    return _dense(_density(weights / weights.sum(), vectors))


def werner_dense(seed, dims, p):
    phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    return _dense(p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4)


GENERATORS = {f.__name__: f for f in (haar, ghz, w, blocks, mixed_dense, mixed_terms,
                                      separable_dense, werner_dense)}


def write_inputs(workload: workloads.Workload, seed: int, directory: Path) -> None:
    for file, generator, params in workload.inputs:
        payload = {"format_version": "1", "dims": list(params["dims"]),
                   **GENERATORS[generator](seed, **params)}
        text = json.dumps(payload, sort_keys=True) + "\n"
        (directory / file).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(workloads.BUILDERS[name](seed), seed, directory)
