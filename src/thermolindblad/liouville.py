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
    (X -> a X a^dag - (1/2){a^dag a, X}).
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
        return gkls_dissipator(a[None], [1.0])
    # X -> a X adds a onto T[i, :, i, :], X -> X a adds a^T onto T[:, i, :, i]
    out, i = np.zeros((n, n, n, n), dtype=complex), np.arange(n)
    if kind != "right":
        out[i, :, i, :] += a
    if kind != "left":
        out[:, i, :, i] += -a.T if kind == "commutator" else a.T
    return out.reshape(n * n, n * n)


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
    for a (K, N, N) stack A.  sum_k rates[k] A_k^dag A_k is the partial trace
    of the jump part, so the result preserves the trace to the rounding of one sum."""
    ops = np.asarray(operators, dtype=complex)
    n = ops.shape[-1]
    jumps = sandwich_sum(ops, ops.conj().transpose(0, 2, 1), rates)
    decay = jumps[:: n + 1].sum(axis=0).reshape(n, n)
    return jumps - 0.5 * assemble_superop("anticommutator", decay)


def conjugation_superop(u):
    """Superoperator of X -> u X u^dag."""
    u = _as_square(u)
    return assemble_superop("sandwich", u, u.conj().T)


def change_basis(superoperator, ops):
    """Matrix B^dag M B of a superoperator M in an operator basis.

    Column k of B is vectorize(ops[k]), so entry (i, j) is the
    Hilbert-Schmidt inner product tr(ops[i]^dag M[ops[j]]).
    """
    b = np.stack([vectorize(op) for op in ops], axis=1)
    return b.conj().T @ np.asarray(superoperator, dtype=complex) @ b


def choi_matrix(map_superoperator):
    """Reshuffle a map superoperator, or a (..., N^2, N^2) stack, into its Choi matrix.

    Under column stacking, C[(i,k),(j,l)] = Lambda[(i,j),(k,l)]; the map is
    completely positive iff C is positive semidefinite.  C is returned as the
    transpose of a C-contiguous copy of C^T, which copies faster than C at N = 20.
    """
    lam = np.asarray(map_superoperator, dtype=complex)
    *lead, n2, _ = lam.shape
    n = int(round(np.sqrt(n2)))
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
    """Operator basis adapted to a system Hamiltonian.

    transitions holds all N(N-1) ordered-pair eigenoperators: the first
    N(N-1)/2 entries are the pairs (n, m) with n < m in lexicographic
    order, followed by their adjoints in matching order.  invariants
    holds the N-1 traceless orthonormal diagonal operators (diagonal
    Gell-Mann matrices in the energy eigenbasis) plus I/sqrt(N) last.

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
    projectors: list = field(repr=False)
    transitions: list = field(repr=False)
    invariants: list = field(repr=False)
    degeneracy_groups: list
    sector_labels: np.ndarray = field(repr=False)

    @property
    def n_levels(self):
        return len(self.projectors)

    @property
    def n_positive(self):
        """Number of transitions with n < m (the nonnegative-frequency half)."""
        return len(self.transitions) // 2

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

    def full_basis(self):
        """All N^2 basis operators: transitions, then invariants (identity last)."""
        return list(self.transitions_ops()) + list(self.invariants)

    def transitions_ops(self):
        return [t.operator for t in self.transitions]


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
    """Decompose a Hermitian H into projectors, transition eigenoperators,
    and the unitary-invariant (diagonal) basis.

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
    energies, vectors = spectrum.energies, spectrum.vectors
    n = energies.size

    # outers[i, j] = |v_i><v_j|, the same elementwise product np.outer forms
    outers = vectors.T[:, None, :, None] * vectors.T.conj()[None, :, None, :]
    projectors = list(outers[np.arange(n), np.arange(n)])

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    transitions = [
        Transition(n=i, m=j, omega=float(energies[j] - energies[i]), operator=outers[i, j])
        for (i, j) in pairs + [(j, i) for (i, j) in pairs]
    ]

    invariants = []
    for l in range(1, n):
        coeffs = np.zeros(n)
        coeffs[:l] = 1.0
        coeffs[l] = -float(l)
        coeffs /= np.sqrt(l * (l + 1))
        invariants.append(vectors @ np.diag(coeffs) @ vectors.conj().T)
    invariants.append(np.eye(n, dtype=complex) / np.sqrt(n))

    groups = _label_groups(labels[[t.n + n * t.m for t in transitions]])

    return EigenoperatorBasis(
        spectrum=spectrum,
        projectors=projectors,
        transitions=transitions,
        invariants=invariants,
        degeneracy_groups=groups,
        sector_labels=labels,
    )
