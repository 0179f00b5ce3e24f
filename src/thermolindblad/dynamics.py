"""Propagation, stationary states, entropy production, and heat transport."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .generator import ThermoSpec, build_restricted_generator, kms_rates
from .liouville import (
    _as_square,
    _conjugated,
    _energy_frame,
    _label_groups,
    _to_frame,
    devectorize,
    eigenoperator_basis,
    vectorize,
)

log = logging.getLogger(__name__)

_DIAGONALIZABLE_COND = 1e8
# Relative singular-value level at or below which a direction counts as null
NULL_TOL = 1e-10
STATE_TOL = 1e-10  # bound on each defect check_density_matrix allows a state
SUPPORT_CUTOFF = 1e-12  # eigenvalues at or below it lie outside a reference state's support
# Largest off-sector norm, relative to max(1, ||L||_F), at which L counts as
# block diagonal by Bohr frequency; restricted generators measure below
# 1.9e-16 * N * ||L||_F.
_SECTOR_BOUND = 1e-12


class _Sectors:
    """A superoperator L split into the blocks the audit and Propagator work on.

    L is taken to the energy frame U^dag L U, U = kron(conj(V), V), whose
    index a + N b is |a><b|, and split by Bohr-frequency labels.  The frame
    V and the labels come from the basis when one is given (its
    sector_labels), else from L's own Hamiltonian part (see
    _hamiltonian_part), through the same clustering at the default
    degeneracy_tol.  When the norm of everything between different labels
    (off_sector_norm) is at most _SECTOR_BOUND * max(1, ||L||_F), and the
    labels also split the Choi matrix (index i + N k of a Choi matrix
    carries E_k - E_i), the route is "sector": the diagonal blocks are kept
    and the rest is dropped.  Otherwise, and without a basis for an L that
    is not finite or whose size is not a perfect square, the route is
    "dense": L itself in the standard frame, as one block.  indices holds
    one (K, s) array of frame indices per block size s.
    """

    def __init__(self, l_mat, basis=None):
        n2 = l_mat.shape[0]
        self.route, self.vectors, self.off_sector_norm = "dense", None, None
        self.frame, self.indices = l_mat, [np.arange(n2)[None]]
        if basis is not None:
            if basis.n_levels**2 != n2:
                raise ValueError(f"basis has {basis.n_levels} levels, superoperator is {n2}x{n2}")
            n, vectors, labels = basis.n_levels, basis.spectrum.vectors, basis.sector_labels
        else:
            n = math.isqrt(n2)
            if n == 0 or n * n != n2 or not np.isfinite(l_mat).all():
                return
            spectrum, labels = _energy_frame(_hamiltonian_part(l_mat, n))
            vectors = spectrum.vectors
        frame = _conjugated(l_mat, vectors)
        self.off_sector_norm = float(np.linalg.norm(frame[labels[:, None] != labels[None, :]]))
        groups = _label_groups(labels)
        sizes = sorted({len(g) for g in groups})
        indices = [np.array([g for g in groups if len(g) == s]) for s in sizes]
        if self.off_sector_norm <= _SECTOR_BOUND * max(1.0, np.linalg.norm(l_mat)) and _choi_closed(
            indices, labels, n
        ):
            self.route, self.vectors, self.frame, self.indices = "sector", vectors, frame, indices

    def to_standard(self, x):
        """Frame vectors (the columns of x) back in the standard frame."""
        return x if self.route == "dense" else _to_frame(x, self.vectors.conj().T)

    def blocks(self, mat):
        """The diagonal blocks of a frame matrix, one (K, s, s) stack per size."""
        if self.route == "dense":
            return [mat[None]]
        return [mat[idx[:, :, None], idx[:, None, :]] for idx in self.indices]

    def assemble(self, stacks):
        """The frame matrix with the given diagonal blocks and zeros elsewhere."""
        if self.route == "dense":
            return stacks[0][0]
        n2 = self.frame.shape[0]
        out = np.zeros((n2, n2), dtype=complex)
        for idx, stack in zip(self.indices, stacks):
            out[idx[:, :, None], idx[:, None, :]] = stack
        return out


def _hamiltonian_part(l_mat, n):
    """H of L = -i[H, .] + D up to a multiple of I: with X_ab = sum_k
    L[a + N k, b + N k], the partial trace of L, H = i(X - X^dag) / (2N).
    The GKS form is unique, so this is exact when D's jump operators are
    traceless or Hermitian, as a restricted generator's are."""
    x = np.trace(l_mat.reshape(n, n, n, n), axis1=0, axis2=2)
    return 1j * (x - x.conj().T) / (2 * n)


def _choi_closed(indices, labels, n):
    # block entry (a + N b, c + N d) is Choi entry (a + N c, b + N d); the
    # labels split the Choi matrix too when those two carry the same label
    for idx in indices:
        rows, cols = idx[:, :, None], idx[:, None, :]
        if np.any(labels[rows % n + n * (cols % n)] != labels[rows // n + n * (cols // n)]):
            return False
    return True


class Propagator:
    """Evaluates exp(L t) for a fixed superoperator L at arbitrary t.

    L is split into Bohr-frequency sectors, in the frame of basis (the
    eigenoperator basis of L's Hamiltonian) if given, else in the frame of
    L's own Hamiltonian part, when its measured off-sector norm allows it
    (see _Sectors; route "sector"), and each block is decomposed on its
    own, with one batched eig per block size; otherwise (route "dense") L
    is decomposed whole.  The eigendecomposition is used when the eigenvector
    matrix (block diagonal on the sector route) has cond < 1e8, and
    scaling-and-squaring of each block otherwise.  The eigenvalues, the
    condition number, the route and the off-sector norm are kept, so audits
    can read them without decomposing L again.
    """

    def __init__(self, superoperator, basis=None):
        self.superoperator = np.asarray(superoperator, dtype=complex)
        if self.superoperator.ndim != 2 or self.superoperator.shape[0] != self.superoperator.shape[1]:
            raise ValueError(f"superoperator must be square, got {self.superoperator.shape}")
        self.sectors = _Sectors(self.superoperator, basis)
        self.route, self.off_sector_norm = self.sectors.route, self.sectors.off_sector_norm
        self._blocks = self.sectors.blocks(self.sectors.frame)
        self.eigenvalues = np.empty(self.superoperator.shape[0], dtype=complex)
        self._evals, self._evecs = [], []
        smax, smin = 0.0, math.inf
        for idx, block in zip(self.sectors.indices, self._blocks):
            if block.shape[-1] == 1:  # a 1x1 block is its own eigenvalue
                evals, evecs, svals = block[:, :, 0], np.ones_like(block), np.ones((1, 1))
            else:
                evals, evecs = np.linalg.eig(block)
                try:
                    svals = np.linalg.svd(evecs, compute_uv=False)
                except np.linalg.LinAlgError:
                    svals = np.array([[math.inf, 0.0]])
            self.eigenvalues[idx] = evals
            self._evals.append(evals)
            self._evecs.append(evecs)
            smax, smin = max(smax, float(svals[:, 0].max())), min(smin, float(svals[:, -1].min()))
        # equals cond of the whole (block-diagonal) eigenvector matrix
        cond = smax / smin if smin > 0 else math.inf
        self.condition_number = cond if math.isfinite(cond) else math.inf
        self.diagonalizable = self.condition_number < _DIAGONALIZABLE_COND
        if self.diagonalizable:
            self._inv = [np.linalg.inv(evecs) for evecs in self._evecs]
        else:
            log.debug("eigenvector condition %.3e; using expm fallback", self.condition_number)

    def _frame_map(self, t):
        """exp(L t) in the frame of the route: U^dag exp(L t) U on the sector
        route, exp(L t) itself on the dense route."""
        if self.diagonalizable:
            stacks = [
                (evecs * np.exp(evals * t)[:, None, :]) @ inv
                for evals, evecs, inv in zip(self._evals, self._evecs, self._inv)
            ]
        else:
            stacks = [scipy.linalg.expm(block * t) for block in self._blocks]
        return self.sectors.assemble(stacks)

    def __call__(self, t):
        lam = self._frame_map(t)
        if self.route == "dense":
            return lam
        return _conjugated(lam, self.sectors.vectors.conj().T)

    def apply(self, vec, times):
        """exp(L t) vec for every t in times, as an (N^2, T) array; only the
        expm route forms a full map per time."""
        vec = np.asarray(vec, dtype=complex)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        frame_vec = vec if self.route == "dense" else _to_frame(vec, self.sectors.vectors)
        if self.diagonalizable:
            out = np.empty((vec.size, times.size), dtype=complex)
            for idx, evals, evecs, inv in zip(self.sectors.indices, self._evals, self._evecs, self._inv):
                coeffs = inv @ frame_vec[idx][..., None]
                out[idx] = evecs @ (np.exp(evals[..., None] * times) * coeffs)
        else:
            maps = [self._frame_map(t) @ frame_vec for t in times]
            out = np.array(maps, dtype=complex).reshape(times.size, vec.size).T
        return self.sectors.to_standard(out)


def _superop_of(obj):
    """The superoperator matrix of a generator, model, Propagator or array."""
    return np.asarray(obj.superoperator if hasattr(obj, "superoperator") else obj, dtype=complex)


def _propagator_of(obj):
    """obj itself if it is a Propagator, else one built with obj's eigenoperator
    basis when it has one, in the frame of obj's Hamiltonian part otherwise."""
    return obj if isinstance(obj, Propagator) else Propagator(_superop_of(obj), getattr(obj, "basis", None))


def _sectors_of(obj):
    """The sector split of obj's superoperator, reused from a Propagator."""
    return obj.sectors if isinstance(obj, Propagator) else _Sectors(_superop_of(obj), getattr(obj, "basis", None))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray = field(repr=False)  # (T, N, N)
    hermitization_defects: np.ndarray = field(repr=False)


def check_density_matrix(rho):
    """Validate a density matrix (square, Hermitian, unit trace, PSD, each
    within STATE_TOL) and return its Hermitian part; raises ValueError."""
    rho = _as_square(rho, "state")
    herm = np.linalg.norm(rho - rho.conj().T) / 2
    if herm > STATE_TOL:
        raise ValueError(f"state is not Hermitian (defect {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > STATE_TOL:
        raise ValueError(f"state trace is {tr}, expected 1")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
    return (rho + rho.conj().T) / 2


def propagate(superoperator, rho0, times):
    """Evolve rho0 under exp(L t) for each t in times.

    superoperator may be an array, a Propagator, or an object with a
    superoperator, such as a generator.  The Propagator works by sector
    when L's off-sector norm allows it, in the frame of the object's
    eigenoperator basis if it has one, else of L's own Hamiltonian part.
    States are re-Hermitized as (rho + rho^dag)/2; the defect removed at
    each step is recorded in the trajectory.
    """
    rho0 = check_density_matrix(rho0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = rho0.shape[0]
    vecs = _propagator_of(superoperator).apply(vectorize(rho0), times)
    states = vecs.T.reshape(-1, n, n).swapaxes(1, 2)  # column-stacked, as in devectorize
    adjoints = states.conj().swapaxes(1, 2)
    defects = np.linalg.norm(states - adjoints, axis=(1, 2)) / 2
    if defects.size and defects.max() > 1e-12:
        log.debug("max hermitization defect along trajectory: %.3e", defects.max())
    return Trajectory(times=times, states=(states + adjoints) / 2, hermitization_defects=defects)


def null_dimension(svals):
    """Number of singular values (descending) at or below NULL_TOL times the
    largest one."""
    smax = svals[0] if svals.size else 0.0
    return int(np.sum(svals <= NULL_TOL * max(smax, 1e-300)))


@dataclass
class SteadyState:
    rho: np.ndarray
    unique: bool
    residual: float
    null_dimension: int


def steady_state(superoperator):
    """Stationary state from the smallest singular vector of L.

    superoperator is read as in propagate.  L's singular values are those
    of its sector blocks together (L whole on the dense route), one batched
    SVD per block size; uniqueness is decided by counting those below
    NULL_TOL * smax.  The state is the right singular vector of the
    smallest one, taken from its block back to the standard frame.  Raises
    LinAlgError when L has no null direction at that tolerance, the null
    direction is traceless, or the state's residual ||L rho|| exceeds
    1e-6 * max(smax, 1).
    """
    l_mat = _superop_of(superoperator)
    sectors = _sectors_of(superoperator)
    decomps = [np.linalg.svd(block) for block in sectors.blocks(sectors.frame)]
    svals = np.sort(np.concatenate([s.ravel() for _, s, _ in decomps]))[::-1]
    smax = svals[0]
    null_dim = null_dimension(svals)
    if null_dim == 0:
        raise np.linalg.LinAlgError(
            f"no stationary state found: smallest singular value {svals[-1]:.3e} "
            f"exceeds {NULL_TOL:.1e} * {smax:.3e}"
        )
    k = int(np.argmin([s[:, -1].min() for _, s, _ in decomps]))
    _, s, vh = decomps[k]
    j = int(np.argmin(s[:, -1]))
    frame_vec = np.zeros(l_mat.shape[0], dtype=complex)
    frame_vec[sectors.indices[k][j]] = vh[j, -1].conj()
    rho = devectorize(sectors.to_standard(frame_vec))
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-10:
        raise np.linalg.LinAlgError("stationary direction is traceless; generator is not trace preserving")
    rho = rho / tr
    residual = float(np.linalg.norm(l_mat @ vectorize(rho)))
    if residual > 1e-6 * max(smax, 1.0):
        raise np.linalg.LinAlgError(f"stationary state residual {residual:.3e} is too large")
    return SteadyState(rho=rho, unique=null_dim == 1, residual=residual, null_dimension=null_dim)


def heat_current(hamiltonian, dissipator, rho):
    """Energy flow tr(H_S D[rho]) for one bath's dissipator; positive means
    heat flows into the system."""
    h = np.asarray(hamiltonian, dtype=complex)
    d_rho = devectorize(np.asarray(dissipator, dtype=complex) @ vectorize(rho))
    return float(np.trace(h @ d_rho).real)


def relative_entropy(rho, sigma):
    """Quantum relative entropy S(rho || sigma) = tr(rho ln rho - rho ln sigma).

    rho may be one state (returns a float) or a stack of states (...,
    N, N) (returns an array).  Only the eigenvalues of each rho are taken;
    sigma is decomposed once, and ln sigma is formed once on its support
    (eigenvalues above SUPPORT_CUTOFF) and contracted with every rho.
    Returns +inf where rho has weight above SUPPORT_CUTOFF on the null
    space of sigma.  Eigenvalues are clipped at 1e-300 before logs, and
    those of rho at 0.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape[-2:] != sigma.shape or sigma.ndim != 2:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    n = sigma.shape[0]
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
    sigma = (sigma + sigma.conj().T) / 2
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    q, v = np.linalg.eigh(sigma)

    null_mask = q <= SUPPORT_CUTOFF
    null_vecs = v[:, null_mask]
    weight = np.einsum("ji,...jk,ki->...", null_vecs.conj(), rho, null_vecs).real

    entropy_term = np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
    support = v[:, ~null_mask]
    log_sigma = (support * np.log(np.clip(q[~null_mask], 1e-300, None))) @ support.conj().T
    # tr(rho ln sigma) = sum_ij rho_ij (ln sigma)_ji, one row-by-column product per state
    rows = rho.reshape(*rho.shape[:-2], 1, n * n)
    cross_term = (rows @ log_sigma.T.reshape(n * n, 1))[..., 0, 0].real
    result = np.where(weight > SUPPORT_CUTOFF, math.inf, entropy_term - cross_term)
    return float(result) if result.ndim == 0 else result


@dataclass
class BathSpec:
    """One thermal bath attached to the system.

    Either give explicit downward_rates (level-pair keyed, as in
    ThermoSpec) or a rate_function gamma(omega) applied to every positive
    Bohr transition.  alpha adds dephasing, degenerate_mixing is passed
    through to the generator builder.
    """

    beta: float
    downward_rates: dict | None = None
    rate_function: object | None = None
    alpha: np.ndarray | None = None
    degenerate_mixing: dict | None = None
    label: str = "bath"


@dataclass
class TransportModel:
    hamiltonian: np.ndarray
    baths: list
    generators: list
    superoperator: np.ndarray


def _bath_rates(bath, basis):
    rates = dict(bath.downward_rates or {})
    if bath.rate_function is not None:
        tol = basis.spectrum.degeneracy_tol
        for k in range(basis.n_positive):
            tr = basis.transitions[k]
            if tr.omega <= tol:
                continue
            key = (tr.n, tr.m)
            if key not in rates:
                rates[key] = kms_rates(bath.rate_function, tr.omega, bath.beta).gamma_down
    return rates


def build_transport_model(hamiltonian, baths):
    """Attach several thermal baths to one system Hamiltonian.

    Each bath contributes an independently constructed restricted
    dissipator; the total generator shares a single Hamiltonian part.
    """
    if not baths:
        raise ValueError("at least one bath is required")
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    generators = []
    basis = eigenoperator_basis(hamiltonian)
    for bath in baths:
        spec = ThermoSpec(
            hamiltonian=hamiltonian,
            beta=bath.beta,
            downward_rates=_bath_rates(bath, basis),
            alpha=bath.alpha,
            degenerate_mixing=bath.degenerate_mixing,
        )
        generators.append(build_restricted_generator(spec))
    # the first generator's L carries the one commutator part
    total = generators[0].superoperator
    for gen in generators[1:]:
        total = total + gen.dissipator
    return TransportModel(
        hamiltonian=hamiltonian,
        baths=list(baths),
        generators=generators,
        superoperator=total,
    )


@dataclass
class TransportReport:
    steady: SteadyState
    currents: list
    current_sum: float
    max_coherence: float


def transport_steady_report(model):
    """Steady state of a multi-bath model with per-bath heat currents and
    the largest energy-basis coherence: the largest |<a|rho|b>| over the
    pairs at nonzero Bohr frequency E_b - E_a, so coherences inside a
    degenerate eigenspace, which commute with H, do not count."""
    ss = steady_state(model.superoperator)
    currents = [
        heat_current(model.hamiltonian, gen.dissipator, ss.rho) for gen in model.generators
    ]
    basis = model.generators[0].basis
    vectors, labels = basis.spectrum.vectors, basis.sector_labels
    rho_eig = vectors.conj().T @ ss.rho @ vectors
    # |a><b| is an energy coherence when its Bohr frequency is not that of |0><0|
    coherences = np.abs(rho_eig.ravel(order="F")[labels != labels[0]])
    return TransportReport(
        steady=ss,
        currents=currents,
        current_sum=float(sum(currents)),
        max_coherence=float(coherences.max()) if coherences.size else 0.0,
    )
