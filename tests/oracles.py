"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: explicit
index loops instead of einsum or reshape tricks, characteristic polynomials
instead of eigh, exact rational elimination instead of SVD thresholds. The
instruments that build test inputs live here too: ``place_parts``,
``tensor_pure``, ``random_unitary`` and ``apply_local_unitaries``.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np

from entrank.states import PureState


def charpoly_roots(a):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix roots."""
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a, dtype=complex)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.roots(np.array(coeffs))


def rational_rank(rows):
    """Exact Gaussian elimination over the rationals; rows is a list of lists."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    while rank < n_rows and col < n_cols:
        pivot = None
        for r in range(rank, n_rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, n_rows):
            if mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def ptrace_loop(matrix, dims, traced):
    """Index-summation partial trace: sum the traced digits entry by entry."""
    n = len(dims)
    traced = sorted(traced)
    keep = [i for i in range(n) if i not in traced]
    keep_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    d_keep = prod(keep_dims) if keep_dims else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def joint(keep_idx, traced_idx):
        digits = [0] * n
        for pos, i in enumerate(keep):
            digits[i] = keep_idx[pos]
        for pos, i in enumerate(traced):
            digits[i] = traced_idx[pos]
        return int(np.ravel_multi_index(tuple(digits), dims))

    for rk in np.ndindex(*keep_dims):
        for ck in np.ndindex(*keep_dims):
            row = int(np.ravel_multi_index(rk, keep_dims))
            col = int(np.ravel_multi_index(ck, keep_dims))
            for t in np.ndindex(*traced_dims):
                out[row, col] += matrix[joint(rk, t), joint(ck, t)]
    return out


def reduced_by_axis_trace(matrix, dims, keep):
    """Reduced matrix of ``keep`` via reshape and repeated np.trace calls."""
    n = len(dims)
    traced = [i for i in range(n) if i not in set(keep)]
    tensor = matrix.reshape(tuple(dims) * 2)
    half = n
    for i in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + half)
        half -= 1
    d_keep = prod(dims[i] for i in keep)
    return tensor.reshape(d_keep, d_keep)


def rank_by_eigvalsh(matrix, cutoff_rtol=1e-10, cutoff_atol=1e-12):
    """Rank of a Hermitian PSD matrix from its eigenvalues."""
    values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)[::-1]
    if values.size == 0 or values[0] <= 0:
        return 0
    cutoff = max(cutoff_atol, cutoff_rtol * float(values[0]))
    return int(np.count_nonzero(values > cutoff))


def frobenius_sum(a, b):
    """Entrywise definition of the Frobenius distance."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            diff = a[i, j] - b[i, j]
            total += (diff * diff.conjugate()).real
    return total**0.5


def partition_lattice_oracle(matrix, dims, parts, max_depth):
    """State rank and {traced-out union: rank} for every union of 1..max_depth
    parts, each reduced matrix from ``ptrace_loop`` and ranked by eigenvalues."""
    entries = {}
    for size in range(1, max_depth + 1):
        for combo in combinations(parts, size):
            traced = tuple(sorted(i for part in combo for i in part))
            entries[traced] = rank_by_eigvalsh(ptrace_loop(matrix, dims, traced))
    return rank_by_eigvalsh(matrix), entries


def place_parts(part_states, parts):
    """(dims, amplitudes) of the product of ``part_states`` with the j-th
    (part_dims, vector) on the particles ``parts[j]``, in that order."""
    order = [i for part in parts for i in part]
    order_dims = [d for part_dims, _ in part_states for d in part_dims]
    joint = np.ones(1, dtype=complex)
    for _, vector in part_states:
        joint = np.kron(joint, vector)
    axes = np.argsort(order)
    dims = tuple(order_dims[a] for a in axes)
    return dims, np.transpose(joint.reshape(order_dims), axes).reshape(-1)


def tensor_pure(a, b):
    """The pure state a ⊗ b on the concatenated particles."""
    return PureState(dims=a.dims + b.dims, amplitudes=np.kron(a.amplitudes, b.amplitudes))


def random_unitary(d, rng):
    """Haar-distributed d x d unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def apply_local_unitaries(psi, unitaries):
    """``psi`` with particle i rotated by ``unitaries[i]``."""
    tensor = psi.amplitudes.reshape(psi.dims)
    for axis, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
    return PureState(dims=psi.dims, amplitudes=tensor.reshape(-1))
