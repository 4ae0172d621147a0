"""Dense complex matrix primitives: the rank tolerance, Hermitian spectra and
toleranced numerical rank.

All functions are pure and operate on immutable inputs; they are safe to call
concurrently. Matrices are plain complex128 ndarrays in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SymmetryError

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_MAX_DIM = 4096
HERMITICITY_RTOL = 1e-9


@dataclass(frozen=True)
class RankTolerance:
    """Threshold for deciding which singular values count toward the rank.

    A singular value s is significant when s > max(atol, rtol * s_max).
    States are built from order-1 amplitudes, so the relative threshold
    dominates in practice; atol is a floor for genuinely zero matrices.
    """

    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        for name, value in (("rtol", self.rtol), ("atol", self.atol)):
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")

    def cutoff(self, largest: float | np.ndarray) -> float | np.ndarray:
        """max(atol, rtol * largest), elementwise for an array of largest values."""
        return np.maximum(self.atol, self.rtol * largest)


DEFAULT_TOLERANCE = RankTolerance()


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ShapeError("matrix contains NaN or Inf entries")
    return m


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order.

    The input must be square and Hermitian within a relative Frobenius
    tolerance of 1e-9; it is symmetrized before the solve so that
    accumulated rounding noise does not leak into the spectrum.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigenvalues require a square matrix, got {a.shape}")
    norm = np.linalg.norm(a)
    defect = np.linalg.norm(a - a.conj().T)
    if defect > HERMITICITY_RTOL * max(norm, 1e-300):
        raise SymmetryError(
            f"matrix is not Hermitian: relative defect {defect / max(norm, 1e-300):.3e}"
        )
    sym = (a + a.conj().T) / 2
    return np.linalg.eigvalsh(sym)[::-1]


def rank_from_values(values: np.ndarray, tol: RankTolerance = DEFAULT_TOLERANCE) -> int:
    """Count of values above the tolerance cutoff; values must be descending."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values > tol.cutoff(float(values[0]))))


def numerical_rank(a: np.ndarray, tol: RankTolerance = DEFAULT_TOLERANCE) -> int:
    """Rank from singular values above max(atol, rtol * s_max); 0 for the zero matrix."""
    return rank_from_values(np.linalg.svd(as_matrix(a), compute_uv=False), tol)
