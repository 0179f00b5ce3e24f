"""Brute-force composite-system machinery for testing map/free-evolution
commutativity.

A CompositeModel holds a system, an environment, their coupling, and an
environment state; the reduced dynamical map is computed exactly from the
joint unitary, at one time or, with a leading axis, at a 1-d array of real
or complex times.  The module also extracts the small-time expansion of the
commutation defect, both numerically (Cauchy contour in complex time) and
from closed trace formulas, so the two can be compared.

Conventions follow liouville: column stacking, hbar = k_B = 1.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _time_grid, check_density_matrix
from .liouville import devectorize, hermitian_operator, hs_norm, sandwich_sum, vectorize

_STRICT_FLOOR = 1e-13
# relative energy gap below which build_strict_coupling joins two product states
STRICT_DEGENERACY_TOL = 1e-9
CONTOUR_RADIUS = 0.1  # of the complex-time circle of the contour coefficients
CONTOUR_POINTS = 32  # samples on that circle; orders below it do not alias
# the most times theorem1_defect stacks at once, so memory does not grow with the grid: per time,
# a stack costs least at 32-64 times (2x2 to 4x8, one BLAS thread), and 64 at 8x8 peak at 24 MB
TAU_STACK = 64

DEFAULT_TAU_GRID = tuple(np.geomspace(1e-4, 1e-2, 8))


def partial_trace_env(matrix, n_sys, n_env):
    """Trace out the environment factor of an operator on sys (x) env."""
    m = np.asarray(matrix)
    return np.einsum("ijkj->ik", m.reshape(n_sys, n_env, n_sys, n_env))


def partial_trace_sys(matrix, n_sys, n_env):
    """Trace out the system factor of an operator on sys (x) env."""
    m = np.asarray(matrix)
    return np.einsum("ijil->jl", m.reshape(n_sys, n_env, n_sys, n_env))


@dataclass
class KrausSet:
    """Kraus operators of a reduced map, with their completeness defect
    ||sum_k K_k^dag K_k - I||."""

    operators: list
    completeness_defect: float


@dataclass
class CompositeModel:
    """System + environment + coupling + environment state.

    Eigendecompositions of the total and system Hamiltonians are cached at
    construction so maps can be evaluated at a stack of times (including
    complex times, where the evolution is continued analytically) without
    repeated diagonalization; entry k equals the result at the k-th time.
    """

    system_hamiltonian: np.ndarray
    env_hamiltonian: np.ndarray
    coupling: np.ndarray
    env_state: np.ndarray

    n_sys: int = field(init=False)
    n_env: int = field(init=False)
    total_hamiltonian: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("system_hamiltonian", "env_hamiltonian", "coupling", "env_state"):
            setattr(self, name, hermitian_operator(getattr(self, name), name))
        self.n_sys = self.system_hamiltonian.shape[0]
        self.n_env = self.env_hamiltonian.shape[0]
        total = self.n_sys * self.n_env
        if self.coupling.shape != (total, total):
            raise ValueError(
                f"coupling must act on the {total}-dimensional joint space, "
                f"got shape {self.coupling.shape}"
            )
        if self.env_state.shape != self.env_hamiltonian.shape:
            raise ValueError(
                f"env_state must have the shape {self.env_hamiltonian.shape} of env_hamiltonian, "
                f"got {self.env_state.shape}"
            )
        try:
            check_density_matrix(self.env_state)
        except ValueError as exc:
            raise ValueError(f"env_state: {exc}") from None
        self.total_hamiltonian = (
            np.kron(self.system_hamiltonian, np.eye(self.n_env))
            + self.coupling
            + np.kron(np.eye(self.n_sys), self.env_hamiltonian)
        )
        self._total_evals, self._total_evecs = np.linalg.eigh(self.total_hamiltonian)
        self._sys_evals, self._sys_evecs = np.linalg.eigh(self.system_hamiltonian)
        self._env_evals, self._env_evecs = np.linalg.eigh(self.env_state)
        # the support of rho_E: the only environment eigenstates any map reads
        self._env_support = self._env_evals > 1e-15

    # -- hypothesis witnesses ------------------------------------------------

    def coupling_commutation_defect(self):
        """||[H_SE, H_S + H_E]||, zero iff the coupling is strict."""
        free = self.total_hamiltonian - self.coupling
        return hs_norm(self.coupling @ free - free @ self.coupling)

    def env_stationarity_defect(self):
        """||[H_E, rho_E]||, zero iff the environment state is stationary."""
        h = self.env_hamiltonian
        return hs_norm(h @ self.env_state - self.env_state @ h)

    def mean_field_hamiltonian(self):
        """tr_E(H_SE (I (x) rho_E)), the coupling averaged over the
        environment state.  When this fails to commute with H_S the
        commutation defect picks up a tau^2 term."""
        c = self.coupling.reshape(self.n_sys, self.n_env, self.n_sys, self.n_env)
        return np.einsum("ijkl,lj->ik", c, self.env_state)

    # -- exact reduced dynamics ---------------------------------------------

    def total_unitary(self, tau):
        phases = np.exp(-1j * np.multiply.outer(tau, self._total_evals))
        return (self._total_evecs * phases[..., None, :]) @ self._total_evecs.conj().T

    def system_unitary(self, tau):
        phases = np.exp(-1j * np.multiply.outer(tau, self._sys_evals))
        return (self._sys_evecs * phases[..., None, :]) @ self._sys_evecs.conj().T

    def _env_blocks(self, tau):
        """System blocks [..., i, j] = <chi_j|U(tau)|chi_i> over environment eigenstates."""
        n_sys, n_env = self.n_sys, self.n_env
        chi = self._env_evecs
        lead = np.shape(tau)
        # U[..., s, a, t, b] times chi over b, then chi^dag over a: [..., s, j, t, i]
        right = (self.total_unitary(tau).reshape(-1, n_env) @ chi).reshape(*lead, n_sys, n_env, -1)
        blocks = (chi.conj().T @ right).reshape(*lead, n_sys, n_env, n_sys, n_env)
        return blocks.transpose(*range(len(lead)), -1, -3, -4, -2)

    def kraus_set(self, tau):
        """Kraus decomposition of the reduced map at real time tau: the
        blocks <chi_j|U|chi_i> scaled by sqrt(w_i), i outer and j inner."""
        keep = self._env_support
        blocks = np.sqrt(self._env_evals[keep])[:, None, None, None] * self._env_blocks(tau)[keep]
        stack = blocks.reshape(-1, self.n_sys)
        defect = float(np.linalg.norm(stack.conj().T @ stack - np.eye(self.n_sys)))
        return KrausSet(operators=list(blocks.reshape(-1, self.n_sys, self.n_sys)), completeness_defect=defect)

    def reduced_map(self, tau):
        """Superoperator of rho_S -> tr_E(U (rho_S (x) rho_E) U^{-1}).

        Valid for complex tau as well: the inverse evolution is built from
        e^{+i H tau}, which agrees with the adjoint on the real axis and
        continues the map analytically off it.  The blocks of U(tau) and
        U(-tau) come from one stack.
        """
        keep = self._env_support
        blocks, inverse = self._env_blocks(np.array([tau, np.negative(tau)]))
        lefts = blocks[..., keep, :, :, :].reshape(*np.shape(tau), -1, self.n_sys, self.n_sys)
        rights = inverse.swapaxes(-4, -3)[..., keep, :, :, :].reshape(lefts.shape)
        return sandwich_sum(lefts, rights, np.repeat(self._env_evals[keep], self.n_env))

    def free_conjugation(self, tau):
        """Superoperator kron(U(-tau)^T, U(tau)) of the free system evolution
        at (possibly complex) time tau."""
        us, usinv = self.system_unitary(np.array([tau, np.negative(tau)]))
        free = usinv.swapaxes(-1, -2)[..., :, None, :, None] * us[..., None, :, None, :]
        return free.reshape(*np.shape(tau), self.n_sys**2, self.n_sys**2)

    def defect_superoperator(self, tau):
        """Commutator of the reduced map with free evolution at time tau."""
        lam = self.reduced_map(tau)
        free = self.free_conjugation(tau)
        return lam @ free - free @ lam

    def defect_state(self, tau, rho_s):
        """The defect superoperator applied to a specific system state."""
        return devectorize(self.defect_superoperator(tau) @ vectorize(rho_s))


def theorem1_defect(model, tau, rho_s=None):
    """Frobenius norm of the map/free-evolution commutator at time tau,
    either as a superoperator or applied to one state; an array of tau gives
    an array of norms, evaluated in stacks of at most TAU_STACK times."""
    taus = np.atleast_1d(tau)
    norms = np.empty(taus.shape)
    for start in range(0, len(taus), TAU_STACK):
        chunk = taus[start : start + TAU_STACK]
        defect = model.defect_superoperator(chunk) if rho_s is None else model.defect_state(chunk, rho_s)
        norms[start : start + TAU_STACK] = np.linalg.norm(defect.reshape(len(chunk), -1), axis=-1)
    return float(norms[0]) if np.ndim(tau) == 0 else norms


def build_strict_coupling(h_sys, h_env, rng, scale=1.0):
    """Random coupling commuting with the free Hamiltonian H_S + H_E.

    A seeded random Hermitian is projected onto the total-energy-degenerate
    blocks of the product eigenbasis, stripped of its identity component,
    and rescaled to the requested Frobenius norm.  Returns the coupling
    together with a flag telling whether it connects product states with
    different system energy indices, i.e. whether a system/environment
    resonance gives the strict coupling anything nontrivial to do.
    """
    h_sys = np.asarray(h_sys, dtype=complex)
    h_env = np.asarray(h_env, dtype=complex)
    es, vs = np.linalg.eigh(h_sys)
    ee, ve = np.linalg.eigh(h_env)
    ns, ne = len(es), len(ee)
    total = ns * ne
    energies = (es[:, None] + ee[None, :]).reshape(total)
    sys_index = np.repeat(np.arange(ns), ne)
    basis = np.kron(vs, ve)

    raw = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    raw = (raw + raw.conj().T) / 2
    keep = np.abs(energies[:, None] - energies[None, :]) <= STRICT_DEGENERACY_TOL * max(
        1.0, float(np.abs(energies).max())
    )
    blocked = raw * keep
    blocked -= (np.trace(blocked) / total) * np.eye(total)
    norm = np.linalg.norm(blocked)
    if norm <= 1e-14:
        raise ValueError(
            "degenerate blocks leave no traceless coupling; "
            "perturb the spectra or change the seed"
        )
    blocked *= scale / norm

    off_sector = keep & (sys_index[:, None] != sys_index[None, :])
    induces_transitions = bool(np.any(np.abs(blocked[off_sector]) > 1e-12 * scale))
    coupling = basis @ blocked @ basis.conj().T
    coupling = (coupling + coupling.conj().T) / 2
    return coupling, induces_transitions


# -- small-time expansion of the defect -------------------------------------


@dataclass
class TauScan:
    """Small-time behavior of the commutation defect for one initial state.

    defects[k] = ||Delta(taus[k])[rho_S]||.  fitted_slope is the log-log
    slope over the interior grid points, nan when at_floor: every defect at
    numerical zero (below 1e-13).  coefficient_p is the order-tau^p Taylor coefficient
    of Delta(tau)[rho_S] extracted by contour integration; upsilon and xi
    are the closed trace-formula predictions for orders three and four,
    compared in upsilon_relative_error / xi_relative_error (absolute when
    the formula norm is itself at numerical zero).
    """

    taus: np.ndarray
    defects: np.ndarray
    at_floor: bool
    fitted_slope: float
    coefficient_two: np.ndarray
    coefficient_three: np.ndarray
    coefficient_four: np.ndarray
    upsilon: np.ndarray
    xi: np.ndarray
    upsilon_relative_error: float
    xi_relative_error: float

    @property
    def tau3_coefficient(self):
        return float(np.linalg.norm(self.coefficient_three))

    @property
    def upsilon_norm(self):
        return float(np.linalg.norm(self.upsilon))

    @property
    def xi_norm(self):
        return float(np.linalg.norm(self.xi))


def _contour_coefficients(model, rho_s, orders):
    """Taylor coefficients of Delta(tau)[rho_S] for several orders |order| <
    CONTOUR_POINTS from one stack of samples on the contour and one FFT over them."""
    if any(abs(order) >= CONTOUR_POINTS for order in orders):
        raise ValueError(f"contour orders must be below the {CONTOUR_POINTS} contour points, got {orders}")
    taus = CONTOUR_RADIUS * np.exp(2j * math.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS)
    spectrum = np.fft.fft(model.defect_state(taus, rho_s), axis=0)
    return [spectrum[order] / (CONTOUR_POINTS * CONTOUR_RADIUS**order) for order in orders]


def contour_coefficient(model, rho_s, order):
    """Taylor coefficient of Delta(tau)[rho_S] at tau=0 by Cauchy integral over
    CONTOUR_POINTS samples of the circle of radius CONTOUR_RADIUS in complex time."""
    return _contour_coefficients(model, rho_s, (order,))[0]


def expansion_trace_formulas(model, rho_s):
    """Closed forms for the tau^2..tau^4 coefficients of the defect.

    With h = H_S (x) I, H the total Hamiltonian, X = [H, h], S = H + h and
    rho = rho_S (x) rho_E:

        order 2: tr_E(rho X - X rho)
        order 3: (i/2) tr_E([S,[X,rho]] + [X,[S,rho]])
        order 4: tr_E(B2 rho X - i S rho D3 + rho D4^dag - X rho B2^dag
                      + D3 rho (i S) + D4 rho - X rho X)
        B2 = -(S^2 - X)/2,  D3 = (i/2)(S X + X S),
        D4 = [H^3,h]/6 + [H^2,h^2]/4 + [H,h^3]/6.

    The order-2 term vanishes whenever the mean-field Hamiltonian commutes
    with H_S, in particular for any stationary environment state whose
    coupling has zero mean field.
    """
    ns, ne = model.n_sys, model.n_env
    h = np.kron(model.system_hamiltonian, np.eye(ne))
    big_h = model.total_hamiltonian
    rho = np.kron(np.asarray(rho_s, dtype=complex), model.env_state)
    x = big_h @ h - h @ big_h
    s = big_h + h

    def tr_env(m):
        return partial_trace_env(m, ns, ne)

    c2 = tr_env(rho @ x - x @ rho)

    xr = x @ rho - rho @ x
    sr = s @ rho - rho @ s
    upsilon = 0.5j * tr_env((s @ xr - xr @ s) + (x @ sr - sr @ x))

    b2 = -(s @ s - x) / 2
    b2d = -(s @ s + x) / 2
    d3 = 0.5j * (s @ x + x @ s)
    h2, h3 = big_h @ big_h, big_h @ big_h @ big_h
    hh2, hh3 = h @ h, h @ h @ h
    d4 = (
        (h3 @ h - h @ h3) / 6
        + (h2 @ hh2 - hh2 @ h2) / 4
        + (big_h @ hh3 - hh3 @ big_h) / 6
    )
    xi = tr_env(
        b2 @ rho @ x
        - 1j * s @ rho @ d3
        + rho @ d4.conj().T
        - x @ rho @ b2d
        + 1j * d3 @ rho @ s
        + d4 @ rho
        - x @ rho @ x
    )
    return c2, upsilon, xi


def _loglog_slope(taus, defects):
    order = np.argsort(taus)
    taus = np.asarray(taus, dtype=float)[order]
    defects = np.asarray(defects, dtype=float)[order]
    lo = 1 if len(taus) > 4 else 0
    hi = len(taus) - 1 if len(taus) > 4 else len(taus)
    t, d = taus[lo:hi], defects[lo:hi]
    mask = (d > 0) & (t > 0)  # log(0) is no point of the fit
    if mask.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(t[mask]), np.log(d[mask]), 1)
    return float(slope)


def _compare(extracted, formula):
    diff = float(np.linalg.norm(extracted - formula))
    ref = float(np.linalg.norm(formula))
    if ref > 1e-12:
        return diff / ref
    return diff


def tau_expansion(model, rho_s, taus=None):
    """Scan the commutation defect over small times tau >= 0 and extract its Taylor
    coefficients, comparing the extraction against the trace formulas."""
    message = "tau_expansion needs a nonempty tau grid of finite times tau >= 0"
    taus = _time_grid(DEFAULT_TAU_GRID if taus is None else taus, message, nonempty=True)
    h_norm = float(np.abs(model._total_evals).max())
    if h_norm > 0 and taus.max() * h_norm > 1.0:
        logging.getLogger(__name__).warning(
            "largest tau (%.3g) is not small against 1/||H|| (%.3g); "
            "the cubic regime may not be resolved",
            taus.max(),
            1.0 / h_norm,
        )
    defects = theorem1_defect(model, taus, rho_s)
    at_floor = bool(np.all(defects < _STRICT_FLOOR))
    slope = math.nan if at_floor else _loglog_slope(taus, defects)
    c2, c3, c4 = _contour_coefficients(model, rho_s, (2, 3, 4))
    _, upsilon, xi = expansion_trace_formulas(model, rho_s)
    return TauScan(
        taus=taus,
        defects=defects,
        at_floor=at_floor,
        fitted_slope=slope,
        coefficient_two=c2,
        coefficient_three=c3,
        coefficient_four=c4,
        upsilon=upsilon,
        xi=xi,
        upsilon_relative_error=_compare(c3, upsilon),
        xi_relative_error=_compare(c4, xi),
    )


def effective_generator(model, tau):
    """Matrix logarithm estimate L = log(Lambda(tau))/tau of a generator
    reproducing the reduced map at time tau, with the reconstruction
    defect ||exp(L tau) - Lambda(tau)||.  Branch ambiguity makes this
    meaningful only for tau small against the inverse spectral spread."""
    import scipy.linalg  # slow to import, and only this function uses it

    lam = model.reduced_map(tau)
    l_eff = scipy.linalg.logm(lam) / tau
    defect = float(np.linalg.norm(scipy.linalg.expm(l_eff * tau) - lam))
    return l_eff, defect
