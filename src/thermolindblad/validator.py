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
whole.  The frame of that split is the eigenoperator basis of the object
passed if it has one, else L's own Hamiltonian part, so a bare array is
split too.  The checks that read it (fixed_point, cptp, spectral) record
the route taken ("sector" or "dense") and the off-sector norm in their
details; structure_support is the off-sector norm of the dissipator under
the same sector labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _DIAGONALIZABLE_COND,
    Propagator,
    _propagator_of,
    _sectors_of,
    _superop_of,
    null_dimension,
    relative_entropy,
)
from .liouville import _conjugated, assemble_superop, change_basis, choi_matrix, vectorize
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
    """Relative Frobenius defect of [free-evolution superoperator, L]."""
    threshold = DEFAULT_THRESHOLDS["commutation"] if threshold is None else threshold
    l_mat = _superop_of(superoperator)
    h_tilde = assemble_superop("commutator", hamiltonian)
    l_norm = np.linalg.norm(l_mat)
    if l_norm == 0:
        defect = 0.0
    else:
        defect = float(np.linalg.norm(h_tilde @ l_mat - l_mat @ h_tilde) / l_norm)
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
    Hamiltonian part (L whole on the dense route)."""
    threshold = DEFAULT_THRESHOLDS["fixed_point"] if threshold is None else threshold
    l_mat = _superop_of(superoperator)
    sectors = _sectors_of(superoperator)
    rho_th = thermal_state(hamiltonian, beta)
    defect = float(np.linalg.norm(l_mat @ vectorize(rho_th)))
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for b in sectors.blocks(sectors.frame)])
    null_dim = null_dimension(np.sort(svals)[::-1])
    return CheckResult(
        name="fixed_point",
        defect=defect,
        threshold=threshold,
        details={"null_dimension": null_dim, "unique": null_dim == 1, "beta": float(beta), **_route_details(sectors)},
    )


def check_cptp(superoperator, times=CPTP_TIME_GRID, threshold=None):
    """Complete positivity (Choi spectrum) and trace preservation of
    exp(L t) across a time grid; the defect is the worst violation.
    superoperator may be a Propagator, whose decomposition is then reused;
    otherwise one is built as propagate builds it, in the frame of the
    object's basis if it has one, else of L's own Hamiltonian part.  On the
    sector route the maps and their Choi matrices are block diagonal in the
    energy frame, so the smallest Choi eigenvalue is taken block by block;
    vec(I) is the same in either frame."""
    threshold = DEFAULT_THRESHOLDS["cptp"] if threshold is None else threshold
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("complete positivity is only audited at t >= 0")
    prop = _propagator_of(superoperator)
    n2 = prop.superoperator.shape[0]
    eye_vec = vectorize(np.eye(int(round(np.sqrt(n2)))))
    min_eigs, tp_defects = [], []
    for t in times:
        lam = prop._frame_map(t)
        choi = choi_matrix(lam)
        choi = (choi + choi.conj().T) / 2
        min_eigs.append(min(float(np.linalg.eigvalsh(b).min()) for b in prop.sectors.blocks(choi)))
        tp_defects.append(float(np.linalg.norm(lam.conj().T @ eye_vec - eye_vec)))
    positivity = max(0.0, -min(min_eigs))
    trace_defect = max(tp_defects)
    defect = max(positivity, trace_defect)
    return CheckResult(
        name="cptp",
        defect=defect,
        threshold=threshold,
        details={
            "times": [float(t) for t in times],
            "min_choi_eigenvalue": min(min_eigs),
            "choi_eigenvalues_by_time": min_eigs,
            "trace_defects_by_time": tp_defects,
            **_route_details(prop.sectors),
        },
    )


def check_spectral(superoperator, basis=None, threshold=None):
    """Diagonalizability and stability of L.

    The defect is the worst of three normalized violations: eigenvector
    condition number against 1e8 (near-defectiveness), max real part of
    the spectrum against 1e-10, and, when an eigenoperator basis is
    supplied, the largest imaginary part of the population-block
    eigenvalues against 1e-9.  Raw numbers live in details.  The spectrum
    and the condition number are read from a Propagator, built here unless
    superoperator is one (split in the frame of the object's basis if it
    has one, else of L's own Hamiltonian part; the basis argument only adds
    the population block); on the sector route they come from the blocks.
    """
    threshold = DEFAULT_THRESHOLDS["spectral"] if threshold is None else threshold
    try:
        prop = _propagator_of(superoperator)
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
        block = change_basis(prop.superoperator, basis.projectors)
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


def check_structure_support(dissipator, basis, threshold=None):
    """Leakage of the dissipator outside its Bohr-frequency sectors.

    In the energy frame of basis, where index a + N b is |a><b|, entries
    are allowed only between indices with the same basis.sector_labels:
    within one group of equal Bohr frequency, the zero-frequency group
    holding the populations and the coherences between degenerate levels.
    The defect is the Frobenius norm of everything else: the off-sector
    norm, as Propagator measures it on L.
    """
    threshold = DEFAULT_THRESHOLDS["structure_support"] if threshold is None else threshold
    dissipator = np.asarray(dissipator, dtype=complex)
    labels = basis.sector_labels
    if dissipator.shape != (labels.size, labels.size):
        raise ValueError(f"basis has {basis.n_levels} levels, dissipator is {dissipator.shape}")
    frame = _conjugated(dissipator, basis.spectrum.vectors)
    allowed = labels[:, None] == labels[None, :]
    disallowed = frame[~allowed]
    defect = float(np.linalg.norm(disallowed))
    return CheckResult(
        name="structure_support",
        defect=defect,
        threshold=threshold,
        details={
            "max_off_support": float(np.max(np.abs(disallowed))) if disallowed.size else 0.0,
            "on_support_norm": float(np.linalg.norm(frame[allowed])),
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
    (at CPTP_TIME_GRID) and check_spectral, so L is split into sectors once and
    decomposed once: one batched eig per block size on the sector route, one
    eig of L on the dense route.
    """
    th = dict(thresholds or {})
    l_mat = generator.superoperator
    prop = Propagator(l_mat, generator.basis)
    checks = [
        check_commutation(l_mat, generator.hamiltonian, th.get("commutation")),
        check_fixed_point(prop, generator.hamiltonian, generator.beta, th.get("fixed_point")),
        check_cptp(prop, threshold=th.get("cptp")),
        check_spectral(prop, generator.basis, th.get("spectral")),
        check_structure_support(generator.dissipator, generator.basis, th.get("structure_support")),
        check_detailed_balance(generator, threshold=th.get("detailed_balance")),
    ]
    return ValidationReport(checks=checks, generator_label=label)
