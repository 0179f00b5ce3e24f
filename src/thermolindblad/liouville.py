"""Hilbert-Schmidt (Liouville) space machinery.

Operators on an N-level system are plain complex numpy arrays.  They are
flattened to vectors of length N^2 by column stacking,

    vec(X)[i + N*j] = X[i, j],

so that vec(A X B) = (B^T kron A) vec(X) with the standard Kronecker
product.  Superoperators are then ordinary (N^2 x N^2) matrices acting on
vectorized operators.  L[a + N b, c + N d] reads as T[b, a, d, c] of
T = L.reshape(N, N, N, N); Kronecker sums are written onto index diagonals
of T, and a change of frame is one (N^3 x N) . (N x N) product per index
factor.  Units are hbar = k_B = 1 throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12  # bound on ||a - a^dag||_F / max(1, ||a||_F) of every input operator
_SQRT_HALF = math.sqrt(0.5)

_SUPEROP_KINDS = (
    "left",
    "right",
    "sandwich",
    "commutator",
    "anticommutator",
    "dissipator_term",
)


def _as_square(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be nonempty")
    return a


def hermitian_operator(a, name="operator"):
    """a as a square complex array; ValueError naming the input unless
    ||a - a^dag||_F <= HERMITIAN_TOL * max(1, ||a||_F), which a NaN fails."""
    a = _as_square(a, name)
    defect = hs_norm(a - a.conj().T)
    if not defect <= HERMITIAN_TOL * max(1.0, hs_norm(a)):
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def vectorize(op):
    """Column-stack a square operator into a length-N^2 vector."""
    op = _as_square(op)
    return op.reshape(-1, order="F").copy()


def devectorize(vec):
    """Inverse of :func:`vectorize` for a vector or a (..., N^2) stack; N is read from the last axis."""
    vec = np.asarray(vec, dtype=complex)
    n = int(round(np.sqrt(vec.shape[-1])))
    if n * n != vec.shape[-1]:
        raise ValueError(f"vector length {vec.shape[-1]} is not a perfect square")
    return vec.reshape(*vec.shape[:-1], n, n).swapaxes(-1, -2).copy()


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.trace(a.conj().T @ b))


def hs_norm(a):
    return float(np.linalg.norm(np.asarray(a)))


def assemble_superop(kind, a, b=None):
    """Build the matrix of an elementary superoperator.

    kind is one of 'left' (X -> aX), 'right' (X -> Xa),
    'sandwich' (X -> aXb, needs b), 'commutator' ([a, X]),
    'anticommutator' ({a, X}) or 'dissipator_term'
    (X -> a X a^dag - (1/2){a^dag a, X}).  'sandwich' is one broadcast
    product kron(b^T, a); 'dissipator_term' is kron(conj a, a), from whose
    partial trace a^dag a is read, with the decay written in place by the
    Kronecker-sum writer _add_kronecker_sum that the other four kinds use;
    its entries p + N p then take (a^dag a)_pp off whole, so that one level
    gives exactly 0 wherever conj(a) a is finite.
    """
    if kind not in _SUPEROP_KINDS:
        raise ValueError(f"unknown superoperator kind {kind!r}; expected one of {_SUPEROP_KINDS}")
    a = _as_square(a)
    n = a.shape[0]
    if kind == "sandwich":
        if b is None:
            raise ValueError("sandwich superoperator needs both factors")
        b = _as_square(b)
        if b.shape != a.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
        return (b.T[:, None, :, None] * a[None, :, None, :]).reshape(n * n, n * n)  # kron(b^T, a)
    if b is not None:
        raise ValueError(f"kind {kind!r} takes a single operator")
    if kind == "dissipator_term":
        out = (a.conj()[:, None, :, None] * a[None, :, None, :]).reshape(n * n, n * n)  # kron(conj a, a)
        decay = out[:: n + 1].sum(axis=0).reshape(n, n)  # a^dag a
        left = right = -0.5 * decay
        # entry p + N p gets (a^dag a)_pp taken off whole, not as two halves, so N = 1 gives 0
        whole = out.diagonal()[:: n + 1] - decay.diagonal()
    else:
        zero, out = np.zeros_like(a), np.zeros((n * n, n * n), dtype=complex)
        left, right = {"left": (a, zero), "right": (zero, a), "commutator": (a, -a), "anticommutator": (a, a)}[kind]
    _add_kronecker_sum(out, left, right)
    if kind == "dissipator_term":
        out.reshape(-1)[:: (n * n + 1) * (n + 1)] = whole
    return out


def _add_kronecker_sum(out, left, right):
    """Add the superoperator of X -> left X + X right to a C-contiguous (N^2, N^2)
    array out in place: left onto T[i, :, i, :] and right^T onto T[:, i, :, i]
    of T = out.reshape(N, N, N, N), each an (N, N, N) strided view of out's
    buffer.  The entries both hold, T[p, q, p, q] = out[q + N p, q + N p], are
    the main diagonal of out; each gets out + (left_qq + right_pp) as one sum."""
    n = len(left)
    flat = out.reshape(-1, copy=False)
    diagonal = flat[:: n * n + 1] + (right.diagonal()[:, None] + left.diagonal()).ravel()
    # T[i, j, i, k] sits at flat index i (N^3 + N) + j N^2 + k, T[j, i, k, i] at i (N^2 + 1) + j N^3 + k N
    for strides, term in (((n**3 + n, n * n, 1), left), ((n * n + 1, n**3, n), right.T)):
        view = np.ndarray((n, n, n), out.dtype, flat, 0, tuple(out.itemsize * k for k in strides))
        view += term
    flat[:: n * n + 1] = diagonal


def sandwich_sum(lefts, rights, weights):
    """Superoperator of X -> sum_k weights[k] lefts[k] X rights[k] for (..., K, N, N) stacks,
    one per leading index: the Choi reshuffle (its own inverse) of the rank-K product of
    the columns vec(lefts[k]) against the rows vec(rights[k]^T).  K = 0 gives zero."""
    lefts = np.asarray(lefts, dtype=complex)
    *lead, k, n, _ = lefts.shape
    cols = lefts.swapaxes(-1, -2).reshape(*lead, k, n * n).swapaxes(-1, -2) * np.asarray(weights)
    return choi_matrix(cols @ np.reshape(rights, (*lead, k, n * n)))


def gkls_dissipator(operators, rates):
    """Superoperator of X -> sum_k rates[k] (A_k X A_k^dag - {A_k^dag A_k, X}/2)
    for a (K, N, N) stack A: the jump part by one rank-K product (sandwich_sum),
    then the decay written into it in place by _add_kronecker_sum.
    sum_k rates[k] A_k^dag A_k is the partial trace of the jump part, so the
    result preserves the trace to the rounding of one sum."""
    ops = np.asarray(operators, dtype=complex)
    n = ops.shape[-1]
    jumps = sandwich_sum(ops, ops.conj().transpose(0, 2, 1), rates)
    decay = -0.5 * jumps[:: n + 1].sum(axis=0).reshape(n, n)
    _add_kronecker_sum(jumps.T, decay.T, decay.T)  # choi_matrix returns the transpose of a C-contiguous buffer
    return jumps


def conjugation_superop(u):
    """Superoperator of X -> u X u^dag."""
    u = _as_square(u)
    return assemble_superop("sandwich", u, u.conj().T)


def choi_matrix(map_superoperator):
    """Reshuffle a map superoperator, or a (..., N^2, N^2) stack, into its Choi matrix.

    Under column stacking, C[(i,k),(j,l)] = Lambda[(i,j),(k,l)]; the map is
    completely positive iff C is positive semidefinite.  C is returned as the
    transpose of a C-contiguous copy of C^T, which copies faster than C at N = 20.
    Last two axes that are not N^2 x N^2 are a ValueError naming the shape.
    """
    lam = np.asarray(map_superoperator, dtype=complex)
    n = math.isqrt(lam.shape[-1]) if lam.ndim else 0
    if lam.shape[-2:] != (n * n, n * n):
        raise ValueError(f"a map superoperator is N^2 x N^2 in its last two axes, got shape {lam.shape}")
    *lead, n2, _ = lam.shape
    transposed = lam.reshape(*lead, n, n, n, n).transpose(*range(len(lead)), -2, -4, -1, -3)
    return transposed.reshape(*lead, n2, n2).swapaxes(-1, -2)


@dataclass
class Spectrum:
    """Eigendecomposition of a Hermitian operator, energies ascending."""

    energies: np.ndarray
    vectors: np.ndarray
    degeneracy_tol: float


@dataclass
class Transition:
    """Eigenoperator F = |n><m| taking level m to level n.

    omega = energies[m] - energies[n] is the Bohr frequency; for n < m
    (ascending energies) omega >= 0 and F de-excites the system.
    """

    n: int
    m: int
    omega: float
    operator: np.ndarray


@dataclass
class EigenoperatorBasis:
    """Operator basis adapted to a system Hamiltonian, held as arrays.

    outers[i, j] = |v_i><v_j| (an (N, N, N, N) array).  Transition k is |n><m|,
    (n, m) = (rows[k], cols[k]) of transition_pairs, at omegas[k] = E_m - E_n:
    the pairs n < m in lexicographic order, then their adjoints in matching
    order.  transitions (Transitions over views of outers), projectors and
    invariants (the N-1 traceless orthonormal diagonal operators, diagonal
    Gell-Mann matrices in the energy eigenbasis, then I/sqrt(N)) are made on
    first read and kept.

    sector_labels is the one Bohr-frequency partition of the operator
    space: entry a + N b labels the energy-frame operator |a><b| by its
    frequency E_b - E_a clustered at spectrum.degeneracy_tol, labels
    ascending with frequency.  The zero-frequency label holds the
    populations together with the coherences between degenerate levels.
    degeneracy_groups reads the same labels off the transitions: one list
    of transition indices per label that has any, members ascending,
    groups in ascending frequency.
    """

    spectrum: Spectrum
    outers: np.ndarray = field(repr=False)
    degeneracy_groups: list
    sector_labels: np.ndarray = field(repr=False)

    @property
    def n_levels(self):
        return self.spectrum.energies.size

    @property
    def n_positive(self):
        """Number of transitions with n < m (the nonnegative-frequency half)."""
        return self.n_levels * (self.n_levels - 1) // 2

    @property
    def transition_pairs(self):
        return _transition_pairs(self.n_levels)

    @property
    def omegas(self):
        rows, cols = self.transition_pairs
        return self.spectrum.energies[cols] - self.spectrum.energies[rows]

    @functools.cached_property
    def transitions(self):
        rows, cols = self.transition_pairs
        return [Transition(i, j, float(w), self.outers[i, j])
                for i, j, w in zip(rows.tolist(), cols.tolist(), self.omegas)]

    @functools.cached_property
    def projectors(self):
        return list(self.outers[np.diag_indices(self.n_levels)])

    @functools.cached_property
    def invariants(self):
        vectors, n = self.spectrum.vectors, self.n_levels
        invariants = [vectors @ np.diag(coeffs) @ vectors.conj().T for coeffs in _invariant_coefficients(n)[:-1]]
        invariants.append(np.eye(n, dtype=complex) / np.sqrt(n))
        return invariants

    def transition_index(self, n, m):
        if n == m or not (0 <= n < self.n_levels and 0 <= m < self.n_levels):
            raise ValueError(f"no transition ({n}, {m}) in an {self.n_levels}-level system")
        if n > m:
            return self.n_positive + self.transition_index(m, n)
        return n * (self.n_levels - 1) - n * (n - 1) // 2 + m - n - 1

    def conjugate_index(self, k):
        p = self.n_positive
        return k + p if k < p else k - p

    def positive_degeneracy_groups(self):
        """Degeneracy groups restricted to the n < m half, nonempty only."""
        p = self.n_positive
        out = []
        for group in self.degeneracy_groups:
            kept = [k for k in group if k < p]
            if kept:
                out.append(kept)
        return out

    def group_of(self, k):
        for gid, group in enumerate(self.degeneracy_groups):
            if k in group:
                return gid
        raise ValueError(f"transition index {k} out of range")


@functools.lru_cache(maxsize=None)
def _transition_pairs(n):
    """(rows, cols) of the N(N-1) transitions |rows[k]><cols[k]|: the pairs
    n < m in lexicographic order, then their adjoints in matching order."""
    lo, hi = np.triu_indices(n, 1)
    pairs = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=None)
def _invariant_coefficients(n):
    """Real orthogonal table of the invariants' energy-frame diagonals: row l - 1 is
    Gell-Mann (1, ..., 1, -l, 0, ...) / sqrt(l (l + 1)) with l ones, the last I / sqrt(N)."""
    l = np.arange(1, n)
    table = np.tril(np.ones((n, n)))
    table[l - 1, l] = -l
    table[:-1] /= np.sqrt(l * (l + 1))[:, None]
    table[-1] = 1.0 / np.sqrt(n)
    table.flags.writeable = False
    return table


def _fix_phases(vectors):
    """Rotate each eigenvector so its largest-magnitude component is real positive."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    size = np.abs(pivots)
    return vectors * np.divide(size, pivots, out=np.ones_like(pivots), where=size > 0)


def _cluster(values, tol):
    """Label the entries of a 1-d array by groups of values equal within tol.

    Neighbours in sorted order closer than tol are chained into the same
    group, so the partition is tolerance-transitive and order-independent.
    Labels count 0, 1, ... in ascending value.
    """
    order = np.argsort(values, kind="stable")
    labels = np.zeros(len(values), dtype=int)
    labels[order[1:]] = np.cumsum(np.diff(values[order]) > tol)
    return labels


def _label_groups(labels):
    """Indices grouped by integer label, as lists: groups in ascending label,
    members ascending; no group for an empty array."""
    order = np.argsort(labels, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    order = order.tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _factor_products(x, factors):
    """For each N x N factor f in turn: sum the leading index of x against the rows of f, put last."""
    for f in factors:
        x = x.reshape(f.shape[0], -1).T @ f
    return x


def _to_frame(x, w):
    """K^dag x for K = kron(conj(w), w), the superoperator of X -> w X w^dag:
    each column of x, read as a column-stacked X, becomes vec(w^dag X w).
    Two products contract the row factors b and a of x, O(N^3) per column
    where K costs O(N^4)."""
    return _factor_products(x, (w, w.conj())).reshape(x.shape[::-1]).T


def _conjugated(mat, w):
    """K^dag M K, for K as in _to_frame: factors b, a, d, c of M[a + N b, c + N d]
    contracted with w, conj(w), conj(w), w."""
    return _factor_products(mat, (w, w.conj(), w.conj(), w)).reshape(mat.shape)


def _hermitian_coords(x, inverse=False):
    """T^dag x, or T x when inverse, along the first axis of x, for the
    unitary T whose columns are the orthonormal Hermitian operator basis:
    for a < b, column a + N b is vec((E_ab + E_ba)/sqrt2) and column b + N a
    is vec(i(E_ab - E_ba)/sqrt2); column a + N a is vec(E_aa).  Entry k of
    the result combines entries k and (a + N b <-> b + N a) of x, O(1) per
    entry.  T^dag vec(X) is real exactly for a Hermitian X, and T x holds
    the entries of a Hermitian X exactly for a real x."""
    own, swapped, swap = _hermitian_pairs(math.isqrt(x.shape[0]), inverse)
    shape = (-1,) + (1,) * (np.ndim(x) - 1)
    return own.reshape(shape) * x + swapped.reshape(shape) * x[swap]


@functools.lru_cache(maxsize=None)
def _hermitian_pairs(n, inverse):
    """Coefficients of _hermitian_coords: entry k of the result is own[k] x[k]
    + swapped[k] x[swap[k]], where swap exchanges a + N b and b + N a."""
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    a, b = np.arange(n * n) % n, np.arange(n * n) // n
    upper, lower = a < b, a > b
    own, swapped = np.ones(n * n, dtype=complex), np.zeros(n * n, dtype=complex)
    if inverse:  # (T x)_(a+Nb) = (x_(a+Nb) + i x_(b+Na))/sqrt2, its conjugate at b + N a
        own[upper], swapped[upper] = _SQRT_HALF, 1j * _SQRT_HALF
        own[lower], swapped[lower] = -1j * _SQRT_HALF, _SQRT_HALF
    else:  # the adjoint: Re and Im of X_ab times sqrt2 for a Hermitian X
        own[upper], swapped[upper] = _SQRT_HALF, _SQRT_HALF
        own[lower], swapped[lower] = 1j * _SQRT_HALF, -1j * _SQRT_HALF
    for arr in (own, swapped, swap):
        arr.flags.writeable = False
    return own, swapped, swap


def _energy_frame(h, degeneracy_tol=None):
    """Spectrum of a Hermitian h (eigenvectors phase-fixed, degeneracy_tol
    defaulting to 1e-9 * max|energy| with floor 1e-12; a NaN, infinite or
    negative one is a ValueError) and the Bohr-frequency label of each
    energy-frame index: index a + N b is |a><b|, at frequency E_b - E_a,
    clustered at degeneracy_tol."""
    if degeneracy_tol is not None and not 0 <= degeneracy_tol < np.inf:
        raise ValueError(f"degeneracy_tol must be finite and nonnegative, got {degeneracy_tol}")
    energies, vectors = np.linalg.eigh(h)
    vectors = _fix_phases(vectors)
    if degeneracy_tol is None:
        scale = float(np.max(np.abs(energies))) if energies.size else 0.0
        degeneracy_tol = max(1e-9 * scale, 1e-12)
    spectrum = Spectrum(energies=energies, vectors=vectors, degeneracy_tol=float(degeneracy_tol))
    labels = _cluster((energies[None, :] - energies[:, None]).ravel(order="F"), degeneracy_tol)
    return spectrum, labels


def eigenoperator_basis(hamiltonian, degeneracy_tol=None):
    """Decompose a Hermitian H into its eigenoperator basis: the spectrum,
    the array of outer products |v_i><v_j| and the Bohr-frequency labels.
    Only arrays are formed; no Transition or invariant operator is made
    until the basis's attribute is read.

    Parameters
    ----------
    hamiltonian : (N, N) array_like, Hermitian as hermitian_operator tests it
    degeneracy_tol : float, optional
        Bohr frequencies closer than this are treated as degenerate; finite
        and nonnegative.  Defaults to 1e-9 * max|energy| (floor 1e-12).

    Returns
    -------
    EigenoperatorBasis
    """
    h = hermitian_operator(hamiltonian, "hamiltonian")
    spectrum, labels = _energy_frame((h + h.conj().T) / 2, degeneracy_tol)
    v = spectrum.vectors
    rows, cols = _transition_pairs(len(v))
    return EigenoperatorBasis(
        spectrum=spectrum,
        # outers[i, j] = |v_i><v_j|, the same elementwise product np.outer forms
        outers=v.T[:, None, :, None] * v.T.conj()[None, :, None, :],
        degeneracy_groups=_label_groups(labels[rows + len(v) * cols]),
        sector_labels=labels,
    )
