"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: explicit
index loops instead of einsum or reshape tricks, characteristic polynomials
instead of eigh, exact rational elimination instead of SVD thresholds. The
instruments that build test inputs live here too: ``masks``,
``place_parts``, ``tensor_pure``, ``density_from_pure``, ``dense_matrix``,
``random_unitary`` and ``apply_local_unitaries``. ``graph_state`` and
``graph_rank`` are a closed form of lattice ranks: a graph state's reduced
ranks are powers of two read from its adjacency matrix over GF(2); ``dicke``
and ``dicke_rank`` another, for the Dicke states D(n, k). ``partial_transpose`` is
the reference of the PPT paths, one index permutation written apart from
the package's transposes. ``kron_chain`` is the reference layout of a
product, chained ``np.kron``, against which ``states.tensor_product`` and the
catalog's product states are checked bit for bit; ``haar_vector`` draws one
Haar vector at a time from a fresh generator, the reference for the
catalog's batched draws.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np

from entrank.catalog import generator
from entrank.criteria import Violation
from entrank.states import DensityMatrix, PureState, mix


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


def monotonicity_oracle(lattice):
    """The violations of ``lattice`` by brute force, as a tuple in the order
    the verdict lists them: each entry in order, then each part it holds in
    part order, against the entry without that part's particles, or against
    the full state when the part is all the entry holds."""
    out = []
    for child, child_rank in lattice.entries.items():
        for part in lattice.parts:
            if set(part) <= set(child):
                parent = tuple(i for i in child if i not in part)
                parent_rank = lattice.entries[parent] if parent else lattice.state_rank
                if child_rank > parent_rank:
                    out.append(Violation(child, parent or None, child_rank, parent_rank))
    return tuple(out)


def graph_state(adjacency):
    """The graph state of a 0/1 adjacency matrix: each qubit in |+>, then a
    controlled-Z on every edge, so the amplitude of the basis state x is
    2^{−n/2}·(−1)^{Σ_{i<j} A_ij x_i x_j}, with qubit 0 the leading bit."""
    n = len(adjacency)
    amps = np.empty(2**n, dtype=complex)
    for index in range(2**n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        sign = 0
        for i in range(n):
            for j in range(i + 1, n):
                sign += adjacency[i][j] * bits[i] * bits[j]
        amps[index] = (-1) ** (sign % 2) / np.sqrt(2**n)
    return PureState(dims=(2,) * n, amplitudes=amps)


def graph_rank(adjacency, traced):
    """The rank of a graph state after tracing out ``traced``: 2 to the rank
    over GF(2) of the adjacency block between the traced qubits and the rest
    (Hein, Eisert & Briegel, PRA 69, 062311 (2004))."""
    rest = [j for j in range(len(adjacency)) if j not in traced]
    rows = [[adjacency[i][j] % 2 for j in rest] for i in traced]
    rank = 0
    for col in range(len(rest)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return 2**rank


def dicke(n, k):
    """The Dicke state D(n, k): the equal superposition of the C(n, k) basis
    states of n qubits with k ones."""
    amps = np.zeros(2**n, dtype=complex)
    for index in range(2**n):
        if bin(index).count("1") == k:
            amps[index] = 1 / np.sqrt(comb(n, k))
    return PureState(dims=(2,) * n, amplitudes=amps)


def dicke_rank(n, k, kept):
    """The rank of D(n, k)'s reduced state on ``kept`` of its qubits: the
    number of ones j the kept qubits can hold, j from max(0, k − n + kept)
    to min(k, kept), each a Schmidt vector of its own."""
    return min(k, kept) - max(0, k - n + kept) + 1


def masks(subsets):
    """The rank kernel's input for particle tuples: one int per subset with
    bit i set for particle i."""
    return [sum(1 << i for i in subset) for subset in subsets]


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


def kron_chain(vectors, one=1.0 + 0.0j):
    """np.kron(...np.kron(np.kron([one], v_1), v_2)..., v_k)."""
    out = np.array([one])
    for vector in vectors:
        out = np.kron(out, vector)
    return out


def haar_vector(d, rng):
    """A Haar-random unit vector of C^d drawn alone: d normals for the real
    parts, then d for the imaginary parts, divided by their norm."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def product_pure_by_kron(dims, seed):
    """``catalog.product_pure``'s amplitudes: particle i's Haar vector from
    stream i, chained by ``kron_chain``."""
    return kron_chain([haar_vector(d, generator(seed, i)) for i, d in enumerate(dims)])


def separable_mixture_by_kron(dims, seed, max_terms=4):
    """``catalog.separable_mixture`` with each term chained by
    ``kron_chain``: the term count and weights from stream 0, particle i of
    term j from stream j·n + i."""
    head = generator(seed, 0)
    n_terms = int(head.integers(1, max_terms + 1))
    weights = 1.0 - head.random(n_terms)
    weights = weights / weights.sum()
    n = len(dims)
    terms = []
    for j in range(1, n_terms + 1):
        vectors = [haar_vector(d, generator(seed, j * n + i)) for i, d in enumerate(dims)]
        terms.append((float(weights[j - 1]), PureState(tuple(dims), kron_chain(vectors))))
    return mix(terms)


def density_from_pure(psi):
    """Projector |psi><psi| as a DensityMatrix (rank 1 by construction)."""
    matrix = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(dims=psi.dims, matrix=matrix, factor=psi.factor)


def dense_matrix(state):
    """ρ of ``state`` as a d × d matrix: a PureState's from ``density_from_pure``."""
    return density_from_pure(state).matrix if isinstance(state, PureState) else state.matrix


def partial_transpose(state, part):
    """ρ with the digits of the particles ``part`` exchanged between its row
    and column index, as one explicit index permutation: entry (i, j) is
    ρ[i', j'], where i' is i with j's digits on ``part`` and j' is j with
    i's."""
    matrix = dense_matrix(state)
    dims = state.dims
    index = np.arange(prod(dims))
    digits = np.array(np.unravel_index(index, dims))  # digits[k, i]: particle k's digit of i
    place = np.array([prod(dims[k + 1 :]) for k in range(len(dims))])
    on_part = (digits * (place * np.isin(range(len(dims)), part))[:, None]).sum(axis=0)
    rest = index - on_part
    return matrix[rest[:, None] + on_part[None, :], rest[None, :] + on_part[:, None]]


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
