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
import sys
from dataclasses import dataclass, field

import numpy as np

from .liouville import (
    EigenoperatorBasis,
    _add_kronecker_sum,
    _conjugated,
    _invariant_coefficients,
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

    downward_rates maps level pairs (n, m), tuples of two ints with n < m
    (so omega > 0), to the real downward rate on that transition; the
    upward partner is added automatically by detailed balance.  alpha, if
    given, is the real symmetric PSD dephasing matrix over energy projectors.
    degenerate_mixing maps a Bohr frequency (a finite int, float or numpy
    number, not a bool) to a finite mixing matrix y applied
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


def _is_finite(x):
    """math.isfinite of a real number; a Python int beyond the float range,
    for which math.isfinite raises OverflowError, is not finite."""
    return abs(x) <= sys.float_info.max if isinstance(x, int) else math.isfinite(x)


def _resolve_mixing_groups(basis, degenerate_mixing):
    """Map each requested mixing frequency to its positive degeneracy group."""
    if not degenerate_mixing:
        return {}
    groups = basis.positive_degeneracy_groups()
    omegas = basis.omegas.tolist()
    tol = basis.spectrum.degeneracy_tol
    resolved = {}
    for omega_key, y in degenerate_mixing.items():
        real = isinstance(omega_key, (int, float, np.integer, np.floating)) and not isinstance(omega_key, bool)
        if not (real and _is_finite(omega_key)):
            raise ValueError(f"mixing frequency must be a finite real number, got {omega_key!r}")
        matches = [
            tuple(g) for g in groups
            if abs(omegas[g[0]] - float(omega_key)) <= max(tol, 1e-9 * abs(float(omega_key)))
        ]
        if not matches:
            raise ValueError(f"no degeneracy group at Bohr frequency {omega_key}")
        if len(matches) > 1:
            raise ValueError(f"mixing frequency {omega_key} is ambiguous")
        group = matches[0]
        omega = omegas[group[0]]
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
        if not np.isfinite(y).all():
            raise ValueError(f"mixing matrix for omega={omega_key} must be finite")
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
    of one Hamiltonian share one decomposition; None computes it.  Only the
    basis's arrays are read: no Transition or invariant operator is made."""
    if not 0 <= spec.beta < math.inf:
        raise ValueError(f"inverse temperature must be finite and nonnegative, got {spec.beta}")
    if basis is None:
        basis = eigenoperator_basis(spec.hamiltonian, spec.degeneracy_tol)
    n = basis.n_levels
    tol = basis.spectrum.degeneracy_tol
    omegas = basis.omegas.tolist()
    rows, cols = basis.transition_pairs

    rates = {}
    for key, gamma in spec.downward_rates.items():
        # a level is an int or a numpy integer, not a bool
        if not (isinstance(key, tuple) and len(key) == 2
                and all(type(x) is int or isinstance(x, np.integer) for x in key)):
            raise ValueError(f"rate key must be a pair of integer levels, got {key!r}")
        lo, hi = pair = int(key[0]), int(key[1])
        if not (0 <= lo < hi < n):
            raise ValueError(f"rate key {pair} is not a valid upward-ordered level pair for {n} levels")
        k = basis.transition_index(lo, hi)
        if omegas[k] <= tol:
            raise ValueError(
                f"transition {pair} has zero Bohr frequency (omega={omegas[k]:.3e}); "
                "zero-frequency transitions carry no rate"
            )
        if not isinstance(gamma, (int, float, np.integer, np.floating)) or not _is_finite(gamma) or gamma < 0:
            raise ValueError(f"rate for {pair} must be a finite and nonnegative real number, got {gamma!r}")
        rates[k] = float(gamma)

    mixing = _resolve_mixing_groups(basis, spec.degenerate_mixing)
    mixed_members = set()
    for group in mixing:
        mixed_members.update(group)

    jump_terms = []
    for group, y in mixing.items():
        y_ops = np.tensordot(y, basis.outers[rows[list(group)], cols[list(group)]], axes=1)
        for k, y_op in zip(group, y_ops):
            pair = fix_detailed_balance(rates.get(k, 0.0), omegas[k], spec.beta)
            jump_terms.append(JumpTerm(operator=y_op, rate=pair.gamma_down, omega=pair.omega))
            jump_terms.append(JumpTerm(operator=y_op.conj().T, rate=pair.gamma_up, omega=-pair.omega))

    for k, gamma_down in sorted(rates.items()):
        if k in mixed_members:
            continue
        pair = fix_detailed_balance(gamma_down, omegas[k], spec.beta)
        i, j = rows[k], cols[k]
        jump_terms.append(JumpTerm(operator=basis.outers[i, j], rate=pair.gamma_down, omega=pair.omega))
        jump_terms.append(JumpTerm(operator=basis.outers[j, i], rate=pair.gamma_up, omega=-pair.omega))

    dephasing_terms = []
    if spec.alpha is not None:
        dephasing_terms = dephasing_from_alpha(spec.alpha, basis.projectors)

    # A dephasing term -w[V, [V, X]] is the GKLS term of Hermitian V at rate 2w.
    ops = [t.operator for t in jump_terms] + [t.operator for t in dephasing_terms]
    gammas = [t.rate for t in jump_terms] + [2 * t.weight for t in dephasing_terms]
    # C order: heat_current's D @ vec(rho) and the report's norm of D sum in memory order
    dissipator = np.ascontiguousarray(gkls_dissipator(np.reshape(ops, (-1, n, n)), gammas))

    hamiltonian = np.asarray(spec.hamiltonian, dtype=complex)
    superoperator = dissipator.copy()
    _add_kronecker_sum(superoperator, -1j * hamiltonian, 1j * hamiltonian)  # + (-i[H, .])

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
    One level gives a (0, 0) a, a 1x1 zero Hamiltonian and
    min_eigenvalue +inf.
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
    generator's Choi matrix in that basis, read off the energy frame of
    basis.spectrum.vectors, where |n><m| is index n + N m and the
    invariants mix the populations (N + 1) a.  epsilon is a finite real
    number > 0; a family that gives a map of another shape at t = 0, +-epsilon
    or +-epsilon/2, is not the identity at t = 0, or gives a non-finite
    estimate, is a ValueError.
    """
    real = isinstance(epsilon, (int, float, np.integer, np.floating)) and not isinstance(epsilon, bool)
    if not (real and _is_finite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a finite real number > 0, got {epsilon!r}")
    n = basis.n_levels
    dim2 = n * n

    def sample(t):
        lam = np.asarray(map_family(t), dtype=complex)
        if lam.shape != (dim2, dim2):
            raise ValueError(f"map family must return {dim2}x{dim2} superoperators, got {lam.shape} at t = {t!r}")
        return lam

    if not np.linalg.norm(sample(0.0) - np.eye(dim2)) <= 1e-8:
        raise ValueError("map family does not reduce to the identity at t = 0")

    def central(eps):
        return (sample(eps) - sample(-eps)) / (2 * eps)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate is refused below
        l_est = (4.0 * central(epsilon / 2) - central(epsilon)) / 3.0
    if not np.isfinite(l_est).all():
        raise ValueError(f"map family gives a non-finite generator estimate at epsilon = {epsilon!r}")

    t, d = n * (n - 1), dim2 - 1
    rows, cols = basis.transition_pairs
    order = np.concatenate([rows + n * cols, (n + 1) * np.arange(n)])
    table, vectors = _invariant_coefficients(n), basis.spectrum.vectors
    frame = _conjugated(choi_matrix(l_est), vectors)
    b = frame[np.ix_(order, order)]
    b[t:] = table @ b[t:]
    b[:, t:] = b[:, t:] @ table.T
    a = b[:d, :d]
    # X = sum_{i < d} b[i, d] S_i / sqrt(N) in the energy frame: E b[:, d] is
    # frame . vec(I) / sqrt(N), and taking off the trace drops the i = d term
    x = frame[:, order[t:]].sum(axis=1).reshape(n, n).T / n
    x[np.diag_indices(n)] -= np.trace(x) / n
    hamiltonian = vectors @ ((x.conj().T - x) / 2j) @ vectors.conj().T

    a_herm = (a + a.conj().T) / 2
    return GKSCoefficients(
        a=a,
        hamiltonian=hamiltonian,
        min_eigenvalue=float(np.linalg.eigvalsh(a_herm).min()) if d else math.inf,
        hermiticity_defect=float(np.linalg.norm(a - a.conj().T)),
    )
