"""Structural and thermodynamic audits for candidate generators.

Each check returns a CheckResult, which passes iff defect <= threshold: the
type computes that verdict, no check decides it.  A NaN defect fails every
threshold, and a threshold of inf passes every check, the structural
failures of detailed_balance and an inconclusive spectral check (both
defect inf) included.  What the defect measures is stated per check.
DEFAULT_THRESHOLDS is the one table of threshold names and defaults: the
six audit checks, the Spohn slack and the CLI's experiment-level checks.

run_standard_checks bundles the full battery and shares one Propagator
between its checks: L is split into Bohr-frequency sectors when its
measured off-sector norm allows it and decomposed once, block by block or
whole, and both are kept while L and the basis stay unchanged (see
dynamics._kept_slot).  The frame of that split is the basis passed, else the
eigenoperator basis of the object passed if it has one, else L's own
Hamiltonian part, so a bare array is split too.  On the dense route an L
that preserves Hermiticity is decomposed as the real matrix of the
Hermitian operator basis (see dynamics.Propagator).  The checks that
read it (fixed_point, cptp, spectral) record the route taken ("sector" or
"dense") and the off-sector norm in their details, not the arithmetic;
structure_support is that norm, and the population block is read from the
split's energy frame: no check forms a frame of its own, and
check_commutation uses none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _DIAGONALIZABLE_COND,
    Propagator,
    _choi_sources,
    _propagator_of,
    _sectors_of,
    _superop_of,
    _time_grid,
    null_dimension,
    relative_entropy,
)
from .liouville import _as_square, choi_matrix, vectorize
from .presets import thermal_state

DEFAULT_THRESHOLDS = {
    "commutation": 1e-10,
    "fixed_point": 1e-10,
    "cptp": 1e-10,
    "spectral": 1.0,
    "structure_support": 1e-10,
    "detailed_balance": 1e-10,
    "spohn": 1e-9,
    # experiment-level checks of the CLI's theorem1, tau-scan and transport
    "theorem1": 1e-10,
    "tau_slope": 0.05,
    "tau_formula": 1e-6,
    "transport": 1e-10,
}

CPTP_TIME_GRID = (1e-3, 1e-1, 1.0, 10.0, 100.0)

_RATE_FLOOR = 1e-300
_STABILITY_TOL = 1e-10
_POPULATION_REALITY_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool = field(init=False)
    defect: float
    threshold: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.defect <= self.threshold)


@dataclass
class ValidationReport:
    checks: list
    generator_label: str = ""

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def get(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_commutation(superoperator, hamiltonian, threshold=None):
    """Relative Frobenius defect ||[H~, L]||_F / ||L||_F of L against the
    free-evolution superoperator H~ = [H, .] (0 for L = 0).

    H~ acts on one index factor at a time: with L[a + N b, c + N d] read as
    T[b, a, d, c], H~ L multiplies H into a and b, and L H~ into c and d,
    O(N^5) in all, with no Kronecker product or N^2 x N^2 product.  No
    frame, sector label or Propagator is used: this check is the audit's
    independent reference for the sector split.
    """
    threshold = DEFAULT_THRESHOLDS["commutation"] if threshold is None else threshold
    l_mat = _superop_of(superoperator)
    h = _as_square(hamiltonian, "hamiltonian")
    n = h.shape[0]
    l_norm = np.linalg.norm(l_mat)
    if l_norm == 0:
        defect = 0.0
    else:
        # (H~ L) - (L H~), each product written into one of three N^4 buffers
        h_l, l_h, other = (np.empty((n * n, n * n), dtype=complex) for _ in range(3))
        np.matmul(h, l_mat.reshape(n, n, n * n), out=h_l.reshape(n, n, n * n))
        np.matmul(h.T, l_mat.reshape(n, -1), out=other.reshape(n, -1))
        h_l -= other
        np.matmul(l_mat.reshape(-1, n), h, out=l_h.reshape(-1, n))
        np.matmul(h, l_mat.reshape(n * n, n, n), out=other.reshape(n * n, n, n))
        l_h -= other
        h_l -= l_h
        defect = float(np.linalg.norm(h_l) / l_norm)
    return CheckResult(
        name="commutation",
        defect=defect,
        threshold=threshold,
        details={"generator_norm": float(l_norm)},
    )


def _route_details(sectors):
    return {"route": sectors.route, "off_sector_norm": sectors.off_sector_norm}


def check_fixed_point(superoperator, hamiltonian, beta, threshold=None):
    """Residual norm of L applied to the Gibbs state at inverse temperature
    beta, with a zeroth-law uniqueness flag from the null-space dimension.
    The singular values of L are those of its sector blocks together, split
    in the frame of superoperator's basis if it has one, else of L's own
    Hamiltonian part (a 1x1 block x is |x|, with no SVD); on the dense route
    those of L whole, from one real SVD of R = T^dag L T when L preserves
    Hermiticity (see Propagator).  They are kept with the split, so a
    second check of an unchanged array makes no SVD; a block stack with an
    entry that is not finite has NaN ones, with no SVD, and so L has no
    null direction."""
    threshold = DEFAULT_THRESHOLDS["fixed_point"] if threshold is None else threshold
    l_mat = _superop_of(superoperator)
    sectors = _sectors_of(superoperator)
    rho_th = thermal_state(hamiltonian, beta)
    defect = float(np.linalg.norm(l_mat @ vectorize(rho_th)))
    svals = np.concatenate([s.ravel() for s in sectors.singular_values])
    null_dim = null_dimension(np.sort(svals)[::-1])
    return CheckResult(
        name="fixed_point",
        defect=defect,
        threshold=threshold,
        details={"null_dimension": null_dim, "unique": null_dim == 1, "beta": float(beta), **_route_details(sectors)},
    )


def _dense_choi_minima(prop, times):
    """Smallest Choi eigenvalue and trace defect of exp(L t) at each t, for
    L whole (the dense route), one map at a time: a stack of all T maps
    (T N^4 entries) was measured slower here, from the page faults of
    allocating it, than one eigvalsh per time.  Each map is read in the
    standard frame, prop(t), for the Choi reshuffle and the trace defect."""
    eye_vec = np.eye(math.isqrt(prop.superoperator.shape[0])).ravel()
    min_eigs, tp_defects = [], []
    for t in times:
        lam = prop(t)
        choi = choi_matrix(lam)
        min_eigs.append(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
        tp_defects.append(np.linalg.norm(lam.conj().T @ eye_vec - eye_vec))
    return np.array(min_eigs), np.array(tp_defects)


def _sector_choi_minima(prop, times):
    """As _dense_choi_minima, from the block maps exp(B t) of the sector
    route at every t at once.  Each Choi block is gathered straight from
    them, with its adjoint gathered too so that every operand is
    contiguous: Choi block entry (a + N b, c + N d) is map entry
    (a + N c, b + N d), which the sector route keeps inside one block.
    One eigvalsh per Choi block size covers every time, and vec(I), the
    same in either frame, lives in the block that holds the populations."""
    n = math.isqrt(prop.superoperator.shape[0])
    # the block maps flattened per time: frame index i lies in the block
    # that starts at start[i], at position pos[i] of size[i]
    flat = np.concatenate([stack.reshape(times.size, -1) for stack in prop._block_maps(times)], axis=1)
    start, pos, size = (np.empty(n * n, dtype=int) for _ in range(3))
    offset = 0
    for idx in prop.sectors.indices:
        k, s = idx.shape
        start[idx] = offset + s * s * np.arange(k)[:, None]
        pos[idx], size[idx] = np.arange(s), s
        offset += k * s * s
    min_eigs = np.full(times.size, np.inf)
    for idx in prop.sectors.indices:
        rows, cols = _choi_sources(idx, n)
        gather = start[rows] + pos[rows] * size[rows] + pos[cols]
        choi = (flat[:, gather] + flat[:, gather.swapaxes(-1, -2)].conj()) / 2
        eigs = np.linalg.eigvalsh(choi.reshape(-1, idx.shape[1], idx.shape[1]))
        min_eigs = np.minimum(min_eigs, eigs.reshape(times.size, -1).min(axis=1))
    # frame index 0 is the population |0><0|, and index a + N a the others
    s = size[0]
    populations = flat[:, start[0] : start[0] + s * s].reshape(-1, s, s)
    eye_vec = np.zeros(s)
    eye_vec[pos[:: n + 1]] = 1.0
    return min_eigs, np.linalg.norm(eye_vec @ populations - eye_vec, axis=-1)


def check_cptp(superoperator, times=CPTP_TIME_GRID, threshold=None):
    """Complete positivity (Choi spectrum) and trace preservation of
    exp(L t) across a time grid; the defect is the worst violation.

    superoperator may be a Propagator, whose decomposition is then reused;
    otherwise one is built as propagate builds it, in the frame of the
    object's basis if it has one, else of L's own Hamiltonian part.  On the
    sector route the Choi blocks are gathered from the block maps of every
    time at once, with one eigvalsh per Choi block size and no N^2 x N^2
    map or Choi matrix; on the dense route each map exp(L t) is reshuffled
    into its Choi matrix, taken first from exp(R t) to the standard frame
    on the real route.  The trace defect is ||exp(L t)^dag vec(I) - vec(I)||.
    times must be a nonempty 1-d grid of finite real t >= 0 (or one such
    number), as propagate takes it, else ValueError before L is split; a NaN
    Choi eigenvalue or trace defect makes the defect NaN, which fails.
    """
    threshold = DEFAULT_THRESHOLDS["cptp"] if threshold is None else threshold
    times = _time_grid(times, "complete positivity is only audited on a nonempty grid of finite real t >= 0", nonempty=True)
    prop = _propagator_of(superoperator)
    choi_minima = _dense_choi_minima if prop.route == "dense" else _sector_choi_minima
    min_eigs, tp_defects = choi_minima(prop, times)
    defect = max(0.0, -float(min_eigs.min()), float(tp_defects.max()))
    if np.isnan(min_eigs).any() or np.isnan(tp_defects).any():
        defect = math.nan  # max would drop it
    return CheckResult(
        name="cptp",
        defect=defect,
        threshold=threshold,
        details={
            "times": [float(t) for t in times],
            "min_choi_eigenvalue": float(min_eigs.min()),
            "choi_eigenvalues_by_time": min_eigs.tolist(),
            "trace_defects_by_time": tp_defects.tolist(),
            **_route_details(prop.sectors),
        },
    )


def check_spectral(superoperator, basis=None, threshold=None):
    """Diagonalizability and stability of L.

    The defect is the worst of three normalized violations: eigenvector
    condition number against 1e8 (near-defectiveness), max real part of
    the spectrum against 1e-10, and, when an eigenoperator basis is
    supplied, the largest imaginary part of the population-block
    eigenvalues against 1e-9.  Raw numbers live in details.  All three
    are read from one Propagator, split in the frame of basis if given (see
    _propagator_of): the spectrum from its blocks on the sector route, the
    population block from its energy frame at the indices a + N a of |a><a|.
    """
    threshold = DEFAULT_THRESHOLDS["spectral"] if threshold is None else threshold
    try:
        prop = _propagator_of(superoperator, basis)
    except np.linalg.LinAlgError as exc:
        # an eigensolver failure is inconclusive: defect inf
        return CheckResult(
            name="spectral",
            defect=math.inf,
            threshold=threshold,
            details={"inconclusive": True, "error": str(exc)},
        )
    cond = prop.condition_number
    evals = prop.eigenvalues
    max_re = float(evals.real.max())
    ratios = [cond / _DIAGONALIZABLE_COND, max_re / _STABILITY_TOL]
    details = {
        "condition_number": cond,
        "near_defective": not prop.diagonalizable,
        "max_real_part": max_re,
        "eigenvalues": evals,
        **_route_details(prop.sectors),
    }
    if basis is not None:
        pop = (basis.n_levels + 1) * np.arange(basis.n_levels)
        block = prop.sectors.energy_frame[pop][:, pop]
        pop_evals = np.linalg.eigvals(block)
        pop_imag = float(np.abs(pop_evals.imag).max())
        details["population_eigenvalues"] = pop_evals
        details["population_imag_max"] = pop_imag
        ratios.append(pop_imag / _POPULATION_REALITY_TOL)
    defect = float(max(max(ratios), 0.0))
    return CheckResult(
        name="spectral",
        defect=defect,
        threshold=threshold,
        details=details,
    )


def check_structure_support(superoperator, basis, threshold=None):
    """Leakage of a superoperator outside its Bohr-frequency sectors.

    In the energy frame of basis, where index a + N b is |a><b|, entries
    are allowed only between indices with the same basis.sector_labels:
    within one group of equal Bohr frequency, the zero-frequency group
    holding the populations and the coherences between degenerate levels.
    The defect is the Frobenius norm of everything else: the off-sector
    norm of the split in basis, reused from a Propagator split there.  D
    and L = -i[H, .] + D give it up to rounding, -i[H, .] being diagonal.
    """
    threshold = DEFAULT_THRESHOLDS["structure_support"] if threshold is None else threshold
    sectors = _sectors_of(superoperator, basis)
    allowed = sectors.labels[:, None] == sectors.labels[None, :]
    disallowed = sectors.energy_frame[~allowed]
    return CheckResult(
        name="structure_support",
        defect=sectors.off_sector_norm,
        threshold=threshold,
        details={
            "max_off_support": float(np.max(np.abs(disallowed))) if disallowed.size else 0.0,
            "on_support_norm": float(np.linalg.norm(sectors.energy_frame[allowed])),
        },
    )


def _adjoint_partners(terms):
    """(K, K) mask: term j can partner term i (omega_i > 0) when
    omega_j = -omega_i within 1e-9 max(1, |omega_i|) and A_j = A_i^dag
    within 1e-10 max(1, ||A_i||) in Frobenius norm.  Distances are taken only
    where the frequencies match and the entry of A_i^dag largest in
    magnitude matches within twice the tolerance too; no entry can differ by
    more than the norm, so that filter drops no partner."""
    k = len(terms)
    if not k:
        return np.zeros((0, 0), dtype=bool)
    omegas = np.array([t.omega for t in terms])
    stacked = np.array([t.operator for t in terms])
    ops = stacked.reshape(k, -1)
    adjoints = stacked.conj().transpose(0, 2, 1).reshape(k, -1)
    tol = 1e-10 * np.maximum(1.0, np.linalg.norm(adjoints, axis=1))
    freq_match = np.abs(omegas[None, :] + omegas[:, None]) <= 1e-9 * np.maximum(1.0, np.abs(omegas))[:, None]
    freq_match &= (omegas > 0)[:, None]
    np.fill_diagonal(freq_match, False)
    rows, cols = np.nonzero(freq_match)
    pivots = np.argmax(np.abs(adjoints), axis=1)[rows]
    near = np.abs(ops[cols, pivots] - adjoints[rows, pivots]) <= 2 * tol[rows]
    rows, cols = rows[near], cols[near]
    distance = np.full((k, k), np.inf)
    distance[rows, cols] = np.linalg.norm(ops[cols] - adjoints[rows], axis=1)
    return distance <= tol[:, None]


def check_detailed_balance(generator, beta=None, threshold=None):
    """Gibbs ratio audit of a generator's jump-term list.

    Every positive-frequency jump must have an adjoint partner, and each
    pair must satisfy gamma_up = gamma_down exp(-beta omega); the defect
    is the worst relative mismatch.  Missing partners are structural
    failures (defect = inf).
    """
    threshold = DEFAULT_THRESHOLDS["detailed_balance"] if threshold is None else threshold
    beta = generator.beta if beta is None else beta
    terms = generator.jump_terms
    structural = []
    pairs = []
    matched = set()
    candidates = [[] for _ in terms]
    rows, cols = np.nonzero(_adjoint_partners(terms))  # row by row, columns ascending
    for i, j in zip(rows.tolist(), cols.tolist()):
        candidates[i].append(j)
    for i, term in enumerate(terms):
        if term.omega <= 0:
            continue
        partner = next((j for j in candidates[i] if j not in matched), None)  # first unmatched, list order
        if partner is None:
            structural.append(f"jump at omega={term.omega:.6g} has no adjoint partner")
            continue
        matched.add(partner)
        expected_up = term.rate * math.exp(-beta * term.omega)
        mismatch = abs(terms[partner].rate - expected_up) / max(term.rate, _RATE_FLOOR)
        pairs.append(
            {
                "omega": term.omega,
                "gamma_down": term.rate,
                "gamma_up": terms[partner].rate,
                "defect": mismatch,
            }
        )
    for j, other in enumerate(terms):
        if other.omega < 0 and j not in matched:
            structural.append(f"upward jump at omega={other.omega:.6g} has no downward partner")
        if other.omega == 0:
            structural.append("zero-frequency jump term present")
    defect = math.inf if structural else max((p["defect"] for p in pairs), default=0.0)
    return CheckResult(
        name="detailed_balance",
        defect=defect,
        threshold=threshold,
        details={"pairs": pairs, "structural_failures": structural, "beta": float(beta)},
    )


def spohn_monitor(trajectory, reference, slack=None):
    """Relative entropy to a reference state along a trajectory.

    Returns ([(t, S)], CheckResult): the check passes when S never
    increases by more than the per-step slack; steps where S is +inf
    (support violation) are marked inconclusive and skipped.  A NaN S
    anywhere makes the defect NaN, so the check fails.
    """
    slack = DEFAULT_THRESHOLDS["spohn"] if slack is None else slack
    entropies = relative_entropy(trajectory.states, reference)
    series = list(zip([float(t) for t in trajectory.times], entropies.tolist()))
    infinite = entropies == math.inf
    inconclusive = np.flatnonzero(infinite).tolist()
    steps = ~infinite[:-1] & ~infinite[1:]
    rises = entropies[1:][steps] - entropies[:-1][steps]
    worst = max(0.0, float(rises.max())) if rises.size else 0.0
    if np.isnan(entropies).any():
        worst = math.nan
    compared = int(steps.sum())
    result = CheckResult(
        name="spohn",
        defect=float(worst),
        threshold=slack,
        details={"inconclusive_steps": inconclusive, "steps_compared": compared},
    )
    return series, result


def run_standard_checks(generator, thresholds=None, label=""):
    """Run the full audit battery on a constructed generator.

    thresholds maps check names to overrides.  One Propagator, built with
    the generator's eigenoperator basis, serves check_fixed_point, check_cptp
    (at CPTP_TIME_GRID), check_spectral and check_structure_support (on L,
    so its on-support norm is L's), so L is split into sectors once and
    decomposed once: one batched eig per block size on the sector route, one
    eig of L whole on the dense route, of a real matrix when L preserves
    Hermiticity.  On the sector route check_cptp then makes one eigvalsh per
    Choi block size, and neither it nor check_commutation, which needs no
    Propagator, forms an N^2 x N^2 matrix.  The split and the Propagator
    are kept for the generator's L in its basis (see dynamics._kept_slot),
    so a second audit of an unchanged generator decomposes nothing.
    """
    th = dict(thresholds or {})
    l_mat = generator.superoperator
    prop = Propagator(l_mat, generator.basis)
    checks = [
        check_commutation(l_mat, generator.hamiltonian, th.get("commutation")),
        check_fixed_point(prop, generator.hamiltonian, generator.beta, th.get("fixed_point")),
        check_cptp(prop, threshold=th.get("cptp")),
        check_spectral(prop, generator.basis, th.get("spectral")),
        check_structure_support(prop, generator.basis, th.get("structure_support")),
        check_detailed_balance(generator, threshold=th.get("detailed_balance")),
    ]
    return ValidationReport(checks=checks, generator_label=label)
