"""Hilbert-Schmidt (Liouville) space machinery.

Operators on an N-level system are plain complex numpy arrays.  They are
flattened to vectors of length N^2 by column stacking,

    vec(X)[i + N*j] = X[i, j],

so that vec(A X B) = (B^T kron A) vec(X) with the standard Kronecker
product.  Superoperators are then ordinary (N^2 x N^2) matrices acting on
vectorized operators.  Units are hbar = k_B = 1 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def vectorize(op):
    """Column-stack a square operator into a length-N^2 vector."""
    op = _as_square(op)
    return op.reshape(-1, order="F").copy()


def devectorize(vec):
    """Inverse of :func:`vectorize`; the dimension is inferred from len(vec)."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(vec.size)))
    if n * n != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape((n, n), order="F").copy()


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
    eye = np.eye(n)
    if kind == "sandwich":
        if b is None:
            raise ValueError("sandwich superoperator needs both factors")
        b = _as_square(b)
        if b.shape != a.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
        return np.kron(b.T, a)
    if b is not None:
        raise ValueError(f"kind {kind!r} takes a single operator")
    if kind == "left":
        return np.kron(eye, a)
    if kind == "right":
        return np.kron(a.T, eye)
    if kind == "commutator":
        return np.kron(eye, a) - np.kron(a.T, eye)
    if kind == "anticommutator":
        return np.kron(eye, a) + np.kron(a.T, eye)
    return gkls_dissipator(a[None], [1.0])


def sandwich_sum(lefts, rights, weights):
    """Superoperator of X -> sum_k weights[k] lefts[k] X rights[k] for (K, N, N)
    stacks: the Choi reshuffle (its own inverse) of the rank-K product of the
    columns vec(lefts[k]) against the rows vec(rights[k]^T).  K = 0 gives zero."""
    lefts = np.asarray(lefts, dtype=complex)
    k, n = lefts.shape[0], lefts.shape[-1]
    cols = lefts.transpose(0, 2, 1).reshape(k, n * n).T * np.asarray(weights)
    return choi_matrix(cols @ np.reshape(rights, (k, n * n)))


def gkls_dissipator(operators, rates):
    """Superoperator of X -> sum_k rates[k] (A_k X A_k^dag - {A_k^dag A_k, X}/2)
    for a (K, N, N) stack A.  sum_k rates[k] A_k^dag A_k is the partial trace
    of the jump part, so the result preserves the trace to the rounding of one sum."""
    ops = np.asarray(operators, dtype=complex)
    n = ops.shape[-1]
    jumps = sandwich_sum(ops, ops.conj().transpose(0, 2, 1), rates)
    decay = jumps[:: n + 1].sum(axis=0).reshape(n, n)
    return jumps - 0.5 * (np.kron(decay.T, np.eye(n)) + np.kron(np.eye(n), decay))


def conjugation_superop(u):
    """Superoperator of X -> u X u^dag."""
    u = _as_square(u)
    return np.kron(u.conj(), u)


def change_basis(superoperator, ops):
    """Matrix B^dag M B of a superoperator M in an operator basis.

    Column k of B is vectorize(ops[k]), so entry (i, j) is the
    Hilbert-Schmidt inner product tr(ops[i]^dag M[ops[j]]).
    """
    b = np.stack([vectorize(op) for op in ops], axis=1)
    return b.conj().T @ np.asarray(superoperator, dtype=complex) @ b


def choi_matrix(map_superoperator):
    """Reshuffle a map superoperator into its Choi matrix.

    Under column stacking, C[(i,k),(j,l)] = Lambda[(i,j),(k,l)]; the map is
    completely positive iff C is positive semidefinite.
    """
    lam = np.asarray(map_superoperator, dtype=complex)
    n = int(round(np.sqrt(lam.shape[0])))
    t = lam.reshape((n, n, n, n), order="F")
    return t.transpose(0, 2, 1, 3).reshape((n * n, n * n), order="F")


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
    degeneracy_groups partitions transition indices by equal Bohr
    frequency within spectrum.degeneracy_tol.
    """

    spectrum: Spectrum
    projectors: list = field(repr=False)
    transitions: list = field(repr=False)
    invariants: list = field(repr=False)
    degeneracy_groups: list

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
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if np.abs(pivot) > 0:
            fixed[:, j] = col * (np.abs(pivot) / pivot)
    return fixed


def _cluster(values, tol):
    """Partition indices of a 1-d array into groups of values equal within tol.

    Values closer than tol are chained into the same group, so the
    partition is tolerance-transitive and order-independent.
    """
    order = np.argsort(values)
    groups = []
    current = [int(order[0])]
    for idx in order[1:]:
        if values[idx] - values[current[-1]] <= tol:
            current.append(int(idx))
        else:
            groups.append(current)
            current = [int(idx)]
    groups.append(current)
    return groups


def eigenoperator_basis(hamiltonian, degeneracy_tol=None):
    """Decompose a Hermitian H into projectors, transition eigenoperators,
    and the unitary-invariant (diagonal) basis.

    Parameters
    ----------
    hamiltonian : (N, N) array_like, Hermitian
    degeneracy_tol : float, optional
        Bohr frequencies closer than this are treated as degenerate.
        Defaults to 1e-9 * max|energy| (floor 1e-12).

    Returns
    -------
    EigenoperatorBasis
    """
    h = _as_square(hamiltonian, "hamiltonian")
    sym_defect = hs_norm((h - h.conj().T) / 2)
    if sym_defect > 1e-12:
        raise ValueError(f"hamiltonian is not Hermitian (symmetrized defect {sym_defect:.3e})")
    h = (h + h.conj().T) / 2
    n = h.shape[0]

    energies, vectors = np.linalg.eigh(h)
    vectors = _fix_phases(vectors)

    if degeneracy_tol is None:
        scale = float(np.max(np.abs(energies))) if n else 0.0
        degeneracy_tol = max(1e-9 * scale, 1e-12)
    spectrum = Spectrum(energies=energies, vectors=vectors, degeneracy_tol=float(degeneracy_tol))

    projectors = [np.outer(vectors[:, i], vectors[:, i].conj()) for i in range(n)]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    transitions = []
    for (i, j) in pairs:
        op = np.outer(vectors[:, i], vectors[:, j].conj())
        transitions.append(Transition(n=i, m=j, omega=float(energies[j] - energies[i]), operator=op))
    for (i, j) in pairs:
        op = np.outer(vectors[:, j], vectors[:, i].conj())
        transitions.append(Transition(n=j, m=i, omega=float(energies[i] - energies[j]), operator=op))

    invariants = []
    for l in range(1, n):
        coeffs = np.zeros(n)
        coeffs[:l] = 1.0
        coeffs[l] = -float(l)
        coeffs /= np.sqrt(l * (l + 1))
        invariants.append(vectors @ np.diag(coeffs) @ vectors.conj().T)
    invariants.append(np.eye(n, dtype=complex) / np.sqrt(n))

    omegas = np.array([t.omega for t in transitions])
    groups = _cluster(omegas, degeneracy_tol) if transitions else []

    return EigenoperatorBasis(
        spectrum=spectrum,
        projectors=projectors,
        transitions=transitions,
        invariants=invariants,
        degeneracy_groups=groups,
    )
