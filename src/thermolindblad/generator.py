"""Construction of thermodynamically restricted GKLS generators.

A generator built here has three structural ingredients: a Hamiltonian
commutator part, jump dissipators on Bohr-frequency eigenoperators whose
upward/downward rates obey the Gibbs detailed-balance ratio
gamma_up = gamma_down * exp(-beta * omega), and pure dephasing acting
inside the unitary-invariant (diagonal) sector.  Together these make the
thermal state an exact fixed point and make the dissipator commute with
the free-evolution superoperator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liouville import (
    EigenoperatorBasis,
    assemble_superop,
    change_basis,
    choi_matrix,
    eigenoperator_basis,
    gkls_dissipator,
    hermitian_operator,
    hs_norm,
)

__all__ = [
    "RatePair",
    "JumpTerm",
    "DephasingTerm",
    "ThermoSpec",
    "GKLSGenerator",
    "GKSCoefficients",
    "fix_detailed_balance",
    "kms_rates",
    "flat_rate",
    "ohmic_rate",
    "dephasing_from_alpha",
    "build_restricted_generator",
    "gks_from_map",
]


@dataclass
class RatePair:
    """Downward/upward rates for one Bohr frequency omega > 0."""

    omega: float
    gamma_down: float
    gamma_up: float


@dataclass
class JumpTerm:
    """One GKLS jump operator with its rate and Bohr frequency."""

    operator: np.ndarray
    rate: float
    omega: float


@dataclass
class DephasingTerm:
    """Hermitian dephasing operator V with double-commutator weight w.

    The dissipator contribution is -w [V, [V, .]].  Weights produced by
    dephasing_from_alpha are half the eigenvalues of the alpha matrix,
    which makes the double-commutator sum equal to the projector-form
    dissipator sum_ij alpha_ij (Pi_i X Pi_j - {Pi_i Pi_j, X}/2).
    """

    operator: np.ndarray
    weight: float


def fix_detailed_balance(gamma_down, omega, beta):
    """Complete a downward rate to a detailed-balance pair at inverse
    temperature beta: gamma_up = gamma_down * exp(-beta * omega)."""
    if not math.isfinite(gamma_down) or gamma_down < 0:
        raise ValueError(f"downward rate must be finite and nonnegative, got {gamma_down}")
    if not omega > 0:
        raise ValueError(f"detailed balance needs a strictly positive Bohr frequency, got {omega}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"inverse temperature must be finite and nonnegative, got {beta}")
    return RatePair(omega=float(omega), gamma_down=float(gamma_down),
                    gamma_up=float(gamma_down) * math.exp(-beta * omega))


def kms_rates(rate_function, omega, beta):
    """Detailed-balance pair from a spectral rate function gamma(omega >= 0)."""
    gamma = float(rate_function(omega))
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"rate function returned {gamma} at omega={omega}")
    return fix_detailed_balance(gamma, omega, beta)


def flat_rate(kappa):
    """Frequency-independent rate function gamma(omega) = kappa."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    return lambda omega: float(kappa)


def ohmic_rate(kappa, beta):
    """Ohmic rate function kappa * omega / (1 - exp(-beta * omega)).

    Finite beta > 0 only; the omega -> 0+ limit is kappa / beta, and the
    implementation is stable near zero via expm1.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if not beta > 0:
        raise ValueError(f"ohmic rates need beta > 0, got {beta}")

    def gamma(omega):
        if omega == 0:
            return float(kappa / beta)
        return float(kappa * omega / (-math.expm1(-beta * omega)))

    return gamma


def dephasing_from_alpha(alpha, projectors):
    """Diagonalize a real symmetric PSD dephasing matrix over projectors.

    Returns DephasingTerm(V_n, w_n) with V_n = sum_i Q[i, n] Pi_i from the
    orthogonal diagonalization Q^T alpha Q = diag(lambda) and weights
    w_n = lambda_n / 2, so that -sum_n w_n [V_n, [V_n, .]] reproduces the
    alpha-weighted projector-form dissipator exactly.  alpha is rejected if
    an imaginary part exceeds 1e-12, or its smallest eigenvalue lies below
    -1e-10, times max(1, ||Re alpha||_F); the eigenvalues are then clipped
    at 0.
    """
    alpha = np.asarray(alpha)
    n = len(projectors)
    if alpha.shape != (n, n):
        raise ValueError(f"alpha must be {n}x{n} to match the projectors, got {alpha.shape}")
    # both bounds are relative, as in hermitian_operator; the scale is taken
    # from the real part, so that a NaN or infinite imaginary part fails
    scale = max(1.0, hs_norm(alpha.real))
    if np.iscomplexobj(alpha) and not np.max(np.abs(alpha.imag)) <= 1e-12 * scale:
        raise ValueError("alpha must be real")
    alpha = hermitian_operator(alpha.real, "alpha").real
    eigenvalues, q = np.linalg.eigh((alpha + alpha.T) / 2)
    if eigenvalues.min() < -1e-10 * scale:
        raise ValueError(f"alpha must be positive semidefinite (min eigenvalue {eigenvalues.min():.3e})")
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    ops = np.tensordot(q.T, np.stack(projectors), axes=1)
    return [DephasingTerm(operator=v, weight=float(lam) / 2) for v, lam in zip(ops, eigenvalues)]


@dataclass
class ThermoSpec:
    """Recipe for a thermodynamically restricted generator.

    downward_rates maps level pairs (n, m) with n < m (so omega > 0) to
    the downward rate on that transition; the upward partner is added
    automatically by detailed balance.  alpha, if given, is the real
    symmetric PSD dephasing matrix over energy projectors.
    degenerate_mixing maps a Bohr frequency to a mixing matrix y applied
    within that frequency's degeneracy group: jump k of the group becomes
    Y_k = sum_i y[k, i] F_i and carries the downward rate of F_k, where
    F_0, F_1, ... are the group's transitions |n><m| (n < m) in ascending
    transition index, that is in lexicographic order of (n, m).
    """

    hamiltonian: np.ndarray
    beta: float
    downward_rates: dict = field(default_factory=dict)
    alpha: np.ndarray | None = None
    degenerate_mixing: dict | None = None
    degeneracy_tol: float | None = None


@dataclass
class GKLSGenerator:
    """Assembled generator with its structured ingredients."""

    basis: EigenoperatorBasis
    hamiltonian: np.ndarray
    jump_terms: list
    dephasing_terms: list
    dissipator: np.ndarray
    superoperator: np.ndarray
    beta: float

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


def _resolve_mixing_groups(basis, degenerate_mixing):
    """Map each requested mixing frequency to its positive degeneracy group."""
    if not degenerate_mixing:
        return {}
    groups = basis.positive_degeneracy_groups()
    tol = basis.spectrum.degeneracy_tol
    resolved = {}
    for omega_key, y in degenerate_mixing.items():
        matches = [
            tuple(g) for g in groups
            if abs(basis.transitions[g[0]].omega - float(omega_key)) <= max(tol, 1e-9 * abs(float(omega_key)))
        ]
        if not matches:
            raise ValueError(f"no degeneracy group at Bohr frequency {omega_key}")
        if len(matches) > 1:
            raise ValueError(f"mixing frequency {omega_key} is ambiguous")
        group = matches[0]
        omega = basis.transitions[group[0]].omega
        if omega <= tol:
            raise ValueError(
                f"mixing frequency {omega_key} is a zero Bohr frequency (omega={omega:.3e}); "
                "zero-frequency transitions carry no rate"
            )
        y = np.asarray(y, dtype=complex)
        if y.shape != (len(group), len(group)):
            raise ValueError(
                f"mixing matrix for omega={omega_key} must be {len(group)}x{len(group)}, got {y.shape}"
            )
        resolved[group] = y
    return resolved


def build_restricted_generator(spec):
    """Build the GKLS generator defined by a ThermoSpec.

    The result satisfies, up to rounding: L[thermal(beta)] = 0, commutation
    of the dissipator with the free-evolution superoperator, and CPTP
    propagation for all t >= 0.
    """
    return _build_restricted_generator(spec)


def _build_restricted_generator(spec, basis=None):
    """build_restricted_generator on a given eigenoperator basis of
    spec.hamiltonian (at spec.degeneracy_tol), so that several generators
    of one Hamiltonian share one decomposition; None computes it."""
    if not 0 <= spec.beta < math.inf:
        raise ValueError(f"inverse temperature must be finite and nonnegative, got {spec.beta}")
    if basis is None:
        basis = eigenoperator_basis(spec.hamiltonian, spec.degeneracy_tol)
    n = basis.n_levels
    tol = basis.spectrum.degeneracy_tol

    rates = {}
    for key, gamma in spec.downward_rates.items():
        pair = tuple(int(x) for x in key)
        if len(pair) != 2:
            raise ValueError(f"rate key must be a level pair, got {key!r}")
        lo, hi = pair
        if not (0 <= lo < hi < n):
            raise ValueError(f"rate key {pair} is not a valid upward-ordered level pair for {n} levels")
        k = basis.transition_index(lo, hi)
        omega = basis.transitions[k].omega
        if omega <= tol:
            raise ValueError(
                f"transition {pair} has zero Bohr frequency (omega={omega:.3e}); "
                "zero-frequency transitions carry no rate"
            )
        if not math.isfinite(gamma) or gamma < 0:
            raise ValueError(f"rate for {pair} must be finite and nonnegative, got {gamma}")
        rates[k] = float(gamma)

    mixing = _resolve_mixing_groups(basis, spec.degenerate_mixing)
    mixed_members = set()
    for group in mixing:
        mixed_members.update(group)

    jump_terms = []
    for group, y in mixing.items():
        y_ops = np.tensordot(y, np.stack([basis.transitions[k].operator for k in group]), axes=1)
        for k, y_op in zip(group, y_ops):
            pair = fix_detailed_balance(rates.get(k, 0.0), basis.transitions[k].omega, spec.beta)
            jump_terms.append(JumpTerm(operator=y_op, rate=pair.gamma_down, omega=pair.omega))
            jump_terms.append(JumpTerm(operator=y_op.conj().T, rate=pair.gamma_up, omega=-pair.omega))

    for k, gamma_down in sorted(rates.items()):
        if k in mixed_members:
            continue
        tr = basis.transitions[k]
        pair = fix_detailed_balance(gamma_down, tr.omega, spec.beta)
        adjoint = basis.transitions[basis.conjugate_index(k)]
        jump_terms.append(JumpTerm(operator=tr.operator, rate=pair.gamma_down, omega=tr.omega))
        jump_terms.append(JumpTerm(operator=adjoint.operator, rate=pair.gamma_up, omega=adjoint.omega))

    dephasing_terms = []
    if spec.alpha is not None:
        dephasing_terms = dephasing_from_alpha(spec.alpha, basis.projectors)

    # A dephasing term -w[V, [V, X]] is the GKLS term of Hermitian V at rate 2w.
    ops = [t.operator for t in jump_terms] + [t.operator for t in dephasing_terms]
    gammas = [t.rate for t in jump_terms] + [2 * t.weight for t in dephasing_terms]
    dissipator = gkls_dissipator(np.reshape(ops, (-1, n, n)), gammas)

    hamiltonian = np.asarray(spec.hamiltonian, dtype=complex)
    superoperator = -1j * assemble_superop("commutator", hamiltonian) + dissipator

    return GKLSGenerator(
        basis=basis,
        hamiltonian=hamiltonian,
        jump_terms=jump_terms,
        dephasing_terms=dephasing_terms,
        dissipator=dissipator,
        superoperator=superoperator,
        beta=float(spec.beta),
    )


@dataclass
class GKSCoefficients:
    """Kossakowski matrix extracted from a dynamical-map family.

    a is indexed by the traceless basis in EigenoperatorBasis order
    (transitions first, then the diagonal invariant operators); the
    identity component is absorbed into the effective Hamiltonian.
    """

    a: np.ndarray
    hamiltonian: np.ndarray
    min_eigenvalue: float
    hermiticity_defect: float


def gks_from_map(map_family, basis, epsilon=1e-5):
    """Extract GKS (Kossakowski) coefficients from t -> map superoperator.

    The generator is estimated by Richardson-extrapolated central
    differences at epsilon and epsilon/2, then projected onto the
    sandwich basis S_i . S_j^dag built from the eigenoperator basis.  The
    projection tr((S_j^* kron S_i)^dag L) equals entry (i, j) of the
    generator's Choi matrix in that basis.
    """
    n = basis.n_levels
    dim2 = n * n
    lam0 = np.asarray(map_family(0.0), dtype=complex)
    if lam0.shape != (dim2, dim2):
        raise ValueError(f"map family must return {dim2}x{dim2} superoperators, got {lam0.shape}")
    if np.linalg.norm(lam0 - np.eye(dim2)) > 1e-8:
        raise ValueError("map family does not reduce to the identity at t = 0")

    def central(eps):
        plus = np.asarray(map_family(eps), dtype=complex)
        minus = np.asarray(map_family(-eps), dtype=complex)
        return (plus - minus) / (2 * eps)

    l_est = (4.0 * central(epsilon / 2) - central(epsilon)) / 3.0

    ops = basis.full_basis()  # identity is the last element
    b = change_basis(choi_matrix(l_est), ops)

    d = dim2 - 1
    a = b[:d, :d].copy()
    f_op = np.tensordot(b[:d, d], ops[:d], axes=1) / np.sqrt(n)
    hamiltonian = (f_op.conj().T - f_op) / 2j

    herm_defect = float(np.linalg.norm(a - a.conj().T))
    a_herm = (a + a.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(a_herm).min())
    return GKSCoefficients(
        a=a,
        hamiltonian=hamiltonian,
        min_eigenvalue=min_eig,
        hermiticity_defect=herm_defect,
    )
