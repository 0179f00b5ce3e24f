"""The audit battery: each check catches its target violation and stays
quiet on compliant generators."""
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolindblad import (
    CheckResult,
    Propagator,
    ThermoSpec,
    Trajectory,
    assemble_superop,
    build_restricted_generator,
    check_commutation,
    check_cptp,
    check_detailed_balance,
    check_fixed_point,
    check_spectral,
    check_structure_support,
    choi_matrix,
    conjugation_superop,
    devectorize,
    eigenoperator_basis,
    hs_inner,
    presets,
    propagate,
    run_standard_checks,
    spohn_monitor,
    vectorize,
)
from thermolindblad.dynamics import _Sectors
from thermolindblad.liouville import _conjugated, gkls_dissipator
from thermolindblad.reporting import to_jsonable

EXP_MINUS_ONE = 0.36787944117144233


def test_battery_passes_on_qubit(qubit_generator):
    report = run_standard_checks(qubit_generator, label="qubit")
    assert report.passed
    assert report.generator_label == "qubit"
    assert [c.name for c in report.checks] == [
        "commutation",
        "fixed_point",
        "cptp",
        "spectral",
        "structure_support",
        "detailed_balance",
    ]
    assert report.get("fixed_point").details["unique"]


def test_battery_passes_on_qutrit(qutrit_generator):
    report = run_standard_checks(qutrit_generator)
    assert report.passed
    for check in report.checks:
        assert check.defect <= check.threshold, check.name


def test_battery_passes_with_dephasing_and_mixing():
    spec = ThermoSpec(
        hamiltonian=presets.ladder(3, 1.0),
        beta=0.8,
        downward_rates={(0, 1): 1.0, (1, 2): 0.6, (0, 2): 0.2},
        alpha=np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]]),
        degenerate_mixing={1.0: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)},
    )
    report = run_standard_checks(build_restricted_generator(spec))
    assert report.passed


# -- commutation and support against a local dissipator ----------------------


def local_damping_superop(g):
    """Two coupled qubits with damping applied to the first one only."""
    h = presets.coupled_qubits(1.0, 1.0, g)
    lower_local = np.kron(presets.LOWER, np.eye(2))
    l_mat = -1j * assemble_superop("commutator", h) + assemble_superop(
        "dissipator_term", lower_local
    )
    return h, lower_local, l_mat


def test_local_dissipator_fails_when_coupled():
    h, lower_local, l_mat = local_damping_superop(0.2)
    result = check_commutation(l_mat, h)
    assert not result.passed
    assert result.defect > 1e-3
    basis = eigenoperator_basis(h)
    diss = assemble_superop("dissipator_term", lower_local)
    support = check_structure_support(diss, basis)
    assert not support.passed
    assert support.defect > 1e-3


def kron_commutation_defect(l_mat, h):
    """||[H~, L]||_F / ||L||_F with H~ = [H, .] formed by Kronecker products."""
    h_tilde = assemble_superop("commutator", h)
    return np.linalg.norm(h_tilde @ l_mat - l_mat @ h_tilde) / np.linalg.norm(l_mat)


@pytest.mark.parametrize("n", range(1, 9))
def test_commutation_matches_kron_formula(n, rng):
    h = presets.random_hermitian(n, rng)
    l_mat = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    result = check_commutation(l_mat, h)
    assert result.defect == pytest.approx(kron_commutation_defect(l_mat, h), rel=1e-14, abs=0.0)
    assert (result.defect > 0) == (n > 1)
    assert check_commutation(np.zeros((n * n, n * n)), h).defect == 0.0


def expression_commutation_defect(l_mat, h):
    """check_commutation's four O(N^5) products as one expression, each
    product and difference a fresh array."""
    n = h.shape[0]
    h_l = h @ l_mat.reshape(n, n, n * n) - (h.T @ l_mat.reshape(n, -1)).reshape(n, n, n * n)
    l_h = (l_mat.reshape(-1, n) @ h).reshape(n * n, n, n) - h @ l_mat.reshape(n * n, n, n)
    return float(np.linalg.norm(h_l.reshape(n * n, n * n) - l_h.reshape(n * n, n * n)) / np.linalg.norm(l_mat))


@pytest.mark.parametrize("n", [1, 2, 8, 20])
def test_commutation_buffers_match_expression_to_the_bit(n, rng):
    h = presets.random_hermitian(n, rng)
    l_mat = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    assert check_commutation(l_mat, h).defect == expression_commutation_defect(l_mat, h)
    assert check_commutation(np.zeros((n * n, n * n)), h).defect == 0.0


def test_local_dissipator_passes_when_decoupled():
    h, lower_local, l_mat = local_damping_superop(0.0)
    assert check_commutation(l_mat, h).defect < 1e-12
    diss = assemble_superop("dissipator_term", lower_local)
    assert check_structure_support(diss, eigenoperator_basis(h)).defect < 1e-10


def test_mixing_confined_to_degeneracy_block():
    spec = ThermoSpec(
        hamiltonian=presets.ladder(3, 1.0),
        beta=1.0,
        downward_rates={(0, 1): 1.0, (1, 2): 0.4},
        degenerate_mixing={1.0: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)},
    )
    gen = build_restricted_generator(spec)
    result = check_structure_support(gen.dissipator, gen.basis)
    assert result.passed
    # unequal rates through the mixing matrix couple the two omega=1
    # eigenoperators; that coupling lives inside the allowed block
    s1, s2 = [t for t in gen.basis.transitions if t.omega == 1.0]
    assert (s1.n, s1.m) != (s2.n, s2.m)
    coupled = devectorize(gen.dissipator @ vectorize(s2.operator))
    assert abs(hs_inner(s1.operator, coupled)) > 0.05


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# degenerate energy levels, so the zero-frequency sector holds coherences too
DEGENERATE_MIXING_SPECS = {
    "0,1,1": ThermoSpec(
        hamiltonian=np.diag([0.0, 1.0, 1.0]),
        beta=0.7,
        downward_rates={(0, 1): 1.0, (0, 2): 0.4},
        degenerate_mixing={1.0: HADAMARD},
    ),
    "0,0,1,2.5": ThermoSpec(
        hamiltonian=np.diag([0.0, 0.0, 1.0, 2.5]),
        beta=0.9,
        downward_rates={(0, 2): 1.0, (1, 2): 0.3, (0, 3): 0.8, (1, 3): 0.5, (2, 3): 0.6},
        degenerate_mixing={1.0: HADAMARD, 2.5: np.array([[0.6, 0.8], [0.8, -0.6]])},
    ),
}


def zero_sector_coupling(dissipator, basis):
    """Largest energy-frame entry of D between a population and a coherence
    of the zero-frequency sector, either way."""
    n = basis.n_levels
    labels = basis.sector_labels
    populations = np.arange(n) * (n + 1)
    coherences = np.setdiff1d(np.flatnonzero(labels == labels[0]), populations)
    frame = np.abs(_conjugated(dissipator, basis.spectrum.vectors))
    return float(max(frame[np.ix_(populations, coherences)].max(), frame[np.ix_(coherences, populations)].max()))


@pytest.mark.parametrize("name", sorted(DEGENERATE_MIXING_SPECS))
def test_degenerate_mixing_passes_every_check(name):
    gen = build_restricted_generator(DEGENERATE_MIXING_SPECS[name])
    report = run_standard_checks(gen)
    assert report.passed, [(c.name, c.defect) for c in report.checks if not c.passed]
    assert report.get("structure_support").defect <= 1e-12
    # the support check allows this coupling because it lies inside the zero sector
    assert zero_sector_coupling(gen.dissipator, gen.basis) > 1e-3


def rotated_dephasing(theta):
    """Dephasing by projectors onto a rotated basis of the degenerate
    eigenspace of H = diag(0, 1, 1)."""
    u = np.array([0.0, np.cos(theta), np.sin(theta)])
    v = np.array([0.0, -np.sin(theta), np.cos(theta)])
    projectors = np.array([np.diag([1.0, 0.0, 0.0]), np.outer(u, u), np.outer(v, v)])
    return np.diag([0.0, 1.0, 1.0]), gkls_dissipator(projectors, [0.5, 1.0, 0.7])


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.1])
def test_rotated_degenerate_dephasing_stays_in_support(theta):
    h, diss = rotated_dephasing(theta)
    basis = eigenoperator_basis(h)
    assert check_commutation(diss, h).defect <= 1e-14
    support = check_structure_support(diss, basis)
    assert support.passed
    assert support.defect <= 1e-12
    if theta:  # off the eigenbasis that eigh returns, D mixes populations and coherences
        assert zero_sector_coupling(diss, basis) > 1e-3


def test_kick_between_nonzero_sectors_fails_support(qutrit_generator):
    # X -> |0><0| X |1><2| maps |0><1| (omega 1) onto |0><2| (omega 3)
    gen = qutrit_generator
    p0 = np.diag([1.0, 0.0, 0.0])
    f12 = np.zeros((3, 3))
    f12[1, 2] = 1.0
    kick = 1e-6 * assemble_superop("sandwich", p0, f12)
    result = check_structure_support(gen.dissipator + kick, gen.basis)
    assert not result.passed
    assert result.defect == pytest.approx(1e-6, rel=1e-9)
    assert result.details["max_off_support"] == pytest.approx(1e-6, rel=1e-9)


def test_support_rejects_basis_of_wrong_size(qutrit_generator):
    for shape in ((16, 16), (9, 8)):  # the wrong size, and 9 rows that are not square
        with pytest.raises(ValueError, match="3 levels"):
            check_structure_support(np.zeros(shape), qutrit_generator.basis)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_foreign_dissipator_fails_support(n, rng):
    gen = foreign(n, rng)
    result = check_structure_support(gen.dissipator, gen.basis)
    assert not result.passed
    assert result.defect > 1e-3


@pytest.mark.parametrize("make", ["random", "ladder", "foreign", "0,1,1", "0,0,1,2.5", "rotated"])
def test_support_defect_is_the_sector_off_norm(make, rng):
    if make == "rotated":
        h, diss = rotated_dephasing(0.4)
        basis = eigenoperator_basis(h)
    else:
        if make in DEGENERATE_MIXING_SPECS:
            gen = build_restricted_generator(DEGENERATE_MIXING_SPECS[make])
        else:
            gen = {"random": random_restricted, "ladder": ladder_with_mixing, "foreign": foreign}[make](5, rng)
        diss, basis = gen.dissipator, gen.basis
    support = check_structure_support(diss, basis)
    assert support.defect == _Sectors(diss, basis).off_sector_norm


# -- fixed point -------------------------------------------------------------


def test_fixed_point_wrong_temperature(qubit_generator):
    right = check_fixed_point(qubit_generator.superoperator, qubit_generator.hamiltonian, 1.0)
    wrong = check_fixed_point(qubit_generator.superoperator, qubit_generator.hamiltonian, 2.0)
    assert right.passed
    assert not wrong.passed
    assert wrong.defect > 1e-3


def test_pure_dephasing_fixed_point_not_unique():
    spec = ThermoSpec(
        hamiltonian=presets.qubit(1.0),
        beta=1.0,
        downward_rates={},
        alpha=np.diag([1.0, 2.0]),
    )
    gen = build_restricted_generator(spec)
    result = check_fixed_point(gen.superoperator, gen.hamiltonian, 1.0)
    assert result.passed  # thermal is still stationary
    assert not result.details["unique"]
    assert result.details["null_dimension"] == 2


# -- complete positivity -----------------------------------------------------


def test_unitary_map_choi_is_rank_one(rng):
    u = presets.random_unitary(3, rng)
    choi = choi_matrix(conjugation_superop(u))
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert evals[-1] == pytest.approx(3.0, abs=1e-10)
    assert np.all(np.abs(evals[:-1]) < 1e-10)


def test_choi_equals_kraus_sum_oracle():
    # amplitude damping at p = 1 - e^{-t}: an independent Kraus-form
    # construction of the same channel
    gamma, t = 1.0, 0.7
    p = 1.0 - np.exp(-gamma * t)
    k0 = np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex)
    k1 = np.sqrt(p) * presets.LOWER
    lam = sum(np.kron(k.conj(), k) for k in (k0, k1))
    expected = sum(np.outer(vectorize(k), vectorize(k).conj()) for k in (k0, k1))
    assert np.allclose(choi_matrix(lam), expected, atol=1e-12)


def test_cptp_passes_on_restricted_generator(qutrit_generator):
    result = check_cptp(qutrit_generator.superoperator)
    assert result.passed
    assert result.details["times"] == [1e-3, 1e-1, 1.0, 10.0, 100.0]
    assert len(result.details["choi_eigenvalues_by_time"]) == 5


# The Choi blocks at +omega and -omega are not conjugate pairs: the block at
# omega holds the downward rate and the block at -omega the upward one, so an
# audit of one half would pass a negative rate in the other.
def assert_negative_qubit_rate_fails_cptp(jump):
    h = presets.qubit(1.0)
    l_mat = -1j * assemble_superop("commutator", h) - 0.5 * assemble_superop("dissipator_term", jump)
    assert Propagator(l_mat).route == "sector"
    result = check_cptp(l_mat, times=(0.01,))
    assert not result.passed
    assert result.defect > 1e-3


def test_negative_rate_breaks_complete_positivity():
    assert_negative_qubit_rate_fails_cptp(presets.LOWER)


def test_negative_upward_rate_breaks_complete_positivity():
    assert_negative_qubit_rate_fails_cptp(presets.LOWER.T)


@pytest.mark.parametrize("levels", [(0, 1), (1, 0)], ids=["downward", "upward"])
def test_one_negative_rate_of_a_detailed_balance_pair_breaks_complete_positivity(levels, qutrit_generator):
    # the rate of |n><m| on the (0, 1) transition turns negative while its partner stays positive
    gen = qutrit_generator
    (term,) = [t for t in gen.jump_terms if np.array_equal(t.operator, gen.basis.outers[levels])]
    l_mat = gen.superoperator - 2 * term.rate * assemble_superop("dissipator_term", term.operator)
    prop = Propagator(l_mat, gen.basis)
    assert prop.route == "sector"
    assert check_cptp(prop, times=(0.01,)).defect > 1e-3  # a short time: no second-order path is negative


def test_cptp_rejects_negative_times(qubit_generator):
    with pytest.raises(ValueError):
        check_cptp(qubit_generator.superoperator, times=(1.0, -0.5))


@pytest.mark.parametrize(
    "times",
    [(math.nan,), (math.inf,), (1.0, math.nan), (), ["0.5", "2"], [True], [[0.1, 1.0]], [0.5j], [True, 0.5]],
    ids=["nan", "inf", "mixed", "empty", "strings", "bool", "2-d", "complex", "bool-among-numbers"],
)
@pytest.mark.parametrize("route", ["sector", "dense"])
def test_cptp_rejects_non_finite_or_empty_grid(route, times, qubit_generator, monkeypatch):
    gen = qubit_generator if route == "sector" else foreign(4, np.random.default_rng(0))
    assert Propagator(gen.superoperator, gen.basis).route == route
    monkeypatch.setattr("thermolindblad.validator._propagator_of", None)  # the grid is read before L is split
    with pytest.raises(ValueError, match="nonempty grid of finite"):
        check_cptp(gen, times=times)


@pytest.mark.parametrize(
    "minima", [([0.0, math.nan], [0.0, 0.0]), ([0.0, 0.0], [math.nan, 0.0])], ids=["choi", "trace"]
)
@pytest.mark.parametrize("route", ["sector", "dense"])
def test_cptp_defect_keeps_a_nan(route, minima, qubit_generator, monkeypatch):
    gen = qubit_generator if route == "sector" else foreign(4, np.random.default_rng(0))
    name = f"thermolindblad.validator._{route}_choi_minima"
    monkeypatch.setattr(name, lambda prop, times: tuple(np.array(m) for m in minima))
    result = check_cptp(gen, times=(1.0, 2.0))
    assert math.isnan(result.defect) and not result.passed


# -- spectral ----------------------------------------------------------------


def test_spectral_passes_and_reports_condition(qutrit_generator):
    result = check_spectral(qutrit_generator.superoperator, qutrit_generator.basis)
    assert result.passed
    assert result.details["condition_number"] < 1e6
    assert not result.details["near_defective"]
    assert result.details["max_real_part"] < 1e-12
    assert result.details["population_imag_max"] < 1e-12


def test_jordan_block_flagged_near_defective():
    l_mat = np.zeros((4, 4), dtype=complex)
    l_mat[0, 1] = 1.0  # pure Jordan block: defective, undiagonalizable
    result = check_spectral(l_mat)
    assert not result.passed
    assert result.details["near_defective"]


def test_spectral_flags_unstable_generator():
    result = check_spectral(np.diag([0.5, -1.0, -1.0, 0.0]).astype(complex))
    assert not result.passed
    assert result.details["max_real_part"] == pytest.approx(0.5)


def test_spectral_eigensolver_failure_is_inconclusive(qubit_generator, monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    result = check_spectral(qubit_generator.superoperator, qubit_generator.basis)
    assert not result.passed
    assert result.defect == np.inf
    assert result.details["inconclusive"]
    # inf passes every check, inconclusive ones included
    assert check_spectral(qubit_generator.superoperator, threshold=math.inf).passed


def test_spectral_on_pure_commutator():
    h = presets.qutrit(0.0, 1.0, 3.0)
    result = check_spectral(-1j * assemble_superop("commutator", h), eigenoperator_basis(h))
    assert result.passed
    eigs = np.asarray(result.details["eigenvalues"])
    assert np.max(np.abs(eigs.real)) < 1e-12  # purely imaginary spectrum



# -- the pass rule -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    defect=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf), st.just(math.nan)),
    threshold=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_check_result_passes_iff_defect_within_threshold(defect, threshold):
    result = CheckResult(name="probe", defect=defect, threshold=threshold)
    # inf and NaN exceed every finite threshold
    expected = math.isfinite(defect) and defect <= threshold
    assert result.passed is expected
    assert to_jsonable(result)["passed"] is expected


def test_check_result_verdict_is_not_an_argument():
    assert [f.name for f in dataclasses.fields(CheckResult)] == ["name", "passed", "defect", "threshold", "details"]
    with pytest.raises(TypeError):
        CheckResult(name="probe", passed=True, defect=1.0, threshold=0.5)


# -- detailed balance --------------------------------------------------------


def fake_generator(jump_terms, beta):
    return types.SimpleNamespace(jump_terms=jump_terms, beta=beta)


def test_tampered_up_rate_detected(qubit_generator):
    from dataclasses import replace

    tampered = []
    for term in qubit_generator.jump_terms:
        if term.omega < 0:
            tampered.append(replace(term, rate=2.0 * term.rate))
        else:
            tampered.append(term)
    result = check_detailed_balance(fake_generator(tampered, 1.0))
    assert not result.passed
    assert result.defect == pytest.approx(EXP_MINUS_ONE, rel=1e-10)


def test_unpaired_jump_is_structural_failure(qubit_generator):
    down_only = [t for t in qubit_generator.jump_terms if t.omega > 0]
    result = check_detailed_balance(fake_generator(down_only, 1.0))
    assert not result.passed
    assert result.defect == np.inf
    assert result.details["structural_failures"]
    assert check_detailed_balance(fake_generator(down_only, 1.0), threshold=math.inf).passed


def test_zero_frequency_jump_is_structural_failure():
    term = types.SimpleNamespace(operator=np.diag([1.0, -1.0]).astype(complex), rate=1.0, omega=0.0)
    result = check_detailed_balance(fake_generator([term], 1.0))
    assert not result.passed
    assert "zero-frequency" in result.details["structural_failures"][0]


def test_detailed_balance_at_infinite_temperature():
    spec = ThermoSpec(hamiltonian=presets.qubit(1.0), beta=0.0, downward_rates={(0, 1): 0.4})
    gen = build_restricted_generator(spec)
    result = check_detailed_balance(gen)
    assert result.passed
    (pair,) = result.details["pairs"]
    assert pair["gamma_up"] == pytest.approx(pair["gamma_down"])


def reference_partners(terms, beta):
    """The pairing loop check_detailed_balance replaced: for each downward
    jump, the first unmatched term in list order at -omega whose operator is
    its adjoint."""
    pairs, structural, matched = [], [], set()
    for i, term in enumerate(terms):
        if term.omega <= 0:
            continue
        partner = None
        adjoint = term.operator.conj().T
        for j, other in enumerate(terms):
            if j == i or j in matched:
                continue
            if abs(other.omega + term.omega) <= 1e-9 * max(1.0, abs(term.omega)):
                if np.linalg.norm(other.operator - adjoint) <= 1e-10 * max(1.0, np.linalg.norm(adjoint)):
                    partner = j
                    break
        if partner is None:
            structural.append(f"jump at omega={term.omega:.6g} has no adjoint partner")
            continue
        matched.add(partner)
        pairs.append((term.omega, term.rate, terms[partner].rate))
    return pairs, structural


@pytest.mark.parametrize("n", [2, 3, 5])
def test_detailed_balance_pairs_match_reference_loop(n, rng):
    from dataclasses import replace

    gen = ladder_with_mixing(n, rng)
    terms = list(gen.jump_terms)
    up = next(t for t in terms if t.omega < 0)
    variants = [
        terms,
        terms[::-1],
        terms[1:],
        terms + terms[:3],
        terms + [replace(up, rate=2.0 * up.rate)],  # two candidates: the first one wins
        terms + [replace(terms[0], operator=terms[0].operator + 1e-11)],
        [replace(t, operator=t.operator + 1e-11) if t.omega < 0 else t for t in terms],
        [replace(t, omega=t.omega * (1 + 3e-10)) for t in terms],
    ]
    for variant in variants:
        result = check_detailed_balance(fake_generator(variant, gen.beta))
        pairs, structural = reference_partners(variant, gen.beta)
        assert [(p["omega"], p["gamma_down"], p["gamma_up"]) for p in result.details["pairs"]] == pairs
        downward = [m for m in result.details["structural_failures"] if m.startswith("jump at")]
        assert downward == structural


# -- entropy production ------------------------------------------------------


def test_spohn_monotone_along_relaxation(qubit_generator):
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(qubit_generator.superoperator, rho0, times)
    reference = presets.thermal_state(qubit_generator.hamiltonian, 1.0)
    series, result = spohn_monitor(traj, reference)
    assert result.passed
    assert len(series) == 200
    assert series[0][1] > series[-1][1]
    assert series[-1][1] < 1e-8


def test_spohn_constant_at_reference(qubit_generator):
    reference = presets.thermal_state(qubit_generator.hamiltonian, 1.0)
    traj = propagate(qubit_generator.superoperator, reference, np.linspace(0.0, 5.0, 6))
    series, result = spohn_monitor(traj, reference)
    assert result.passed
    assert all(abs(value) < 1e-12 for _, value in series)


def test_spohn_skips_infinite_steps(qubit_generator):
    # a pure initial state has infinite relative entropy to any state of
    # partial support; the monitor must not fail on that first step
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(qubit_generator.superoperator, rho0, np.linspace(0.0, 1.0, 5))
    reference = np.diag([0.0, 1.0]).astype(complex)
    series, result = spohn_monitor(traj, reference)
    assert 0 not in result.details["inconclusive_steps"] or result.details["steps_compared"] < 4


def test_spohn_decomposes_each_state_once(qutrit_generator, monkeypatch):
    traj = propagate(qutrit_generator, np.diag([0.0, 0.0, 1.0]), np.linspace(0.0, 10.0, 40))
    reference = presets.thermal_state(qutrit_generator.hamiltonian, 1.0)
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(matrix):
        calls.append(("eigh", np.shape(matrix)))
        return eigh(matrix)

    def counting_eigvalsh(matrix):
        calls.append(("eigvalsh", np.shape(matrix)))
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    series, result = spohn_monitor(traj, reference)
    # the eigenvalues of the state stack, and one decomposition of sigma
    assert sorted(calls) == [("eigh", (3, 3)), ("eigvalsh", (40, 3, 3))]
    assert result.passed is True
    assert type(result.defect) is float
    assert type(result.details["steps_compared"]) is int
    assert type(result.details["inconclusive_steps"]) is list
    assert all(type(t) is float and type(s) is float for t, s in series)


def test_spohn_compares_finite_neighbours_only():
    # sigma has no weight on |0>: states touching |0> are off support
    sigma = np.diag([0.0, 0.5, 0.5]).astype(complex)
    on = [np.diag([0.0, p, 1.0 - p]).astype(complex) for p in (0.9, 0.6, 0.8)]
    off = np.eye(3, dtype=complex) / 3
    states = np.array([on[0], off, on[1], on[2], off, off])
    traj = Trajectory(times=np.arange(6.0), states=states, hermitization_defects=np.zeros(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series, result = spohn_monitor(traj, sigma)
    rise = series[3][1] - series[2][1]
    assert rise > 0
    assert result.details == {"inconclusive_steps": [1, 4, 5], "steps_compared": 1}
    assert result.defect == rise
    assert result.passed is False


def test_spohn_fails_on_a_nan_entropy(qubit_generator):
    # a NaN state gives a NaN entropy; only +inf (off support) is inconclusive
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    states = np.concatenate([propagate(qubit_generator, rho0, [0.0, 1.0]).states, np.full((1, 2, 2), np.nan + 0j)])
    traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), states=states, hermitization_defects=np.zeros(3))
    reference = presets.thermal_state(qubit_generator.hamiltonian, 1.0)
    series, result = spohn_monitor(traj, reference)
    assert math.isnan(series[2][1])
    assert math.isnan(result.defect)
    assert result.passed is False
    assert result.details == {"inconclusive_steps": [], "steps_compared": 2}


def test_spohn_on_empty_trajectory(qubit_generator):
    reference = presets.thermal_state(qubit_generator.hamiltonian, 1.0)
    traj = propagate(qubit_generator, reference, [])
    series, result = spohn_monitor(traj, reference)
    assert series == []
    assert result.passed is True
    assert result.defect == 0.0
    assert result.details == {"inconclusive_steps": [], "steps_compared": 0}


def test_map_level_contraction(qutrit_generator, rng):
    from thermolindblad import Propagator, relative_entropy

    prop = Propagator(qutrit_generator.superoperator)
    lam = prop(1.0)
    for _ in range(5):
        rho = presets.random_density_matrix(3, rng)
        sigma = presets.random_density_matrix(3, rng)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(
            (lam @ vectorize(rho)).reshape(3, 3, order="F"),
            (lam @ vectorize(sigma)).reshape(3, 3, order="F"),
        )
        assert after <= before + 1e-9


# -- orchestration -----------------------------------------------------------


def test_battery_decomposes_generator_once(qutrit_generator, monkeypatch):
    calls, svds = [], []
    eig, svd = np.linalg.eig, np.linalg.svd

    def counting_eig(matrix):
        calls.append((np.shape(matrix), np.asarray(matrix).dtype))
        return eig(matrix)

    def counting_svd(matrix, *args, **kwargs):
        svds.append((np.shape(matrix)[-2:], np.asarray(matrix).dtype))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run_standard_checks(qutrit_generator)
    assert report.passed
    # sector route: one batched eig of the 3x3 zero-frequency block (the six
    # 1x1 coherence blocks need none), and no eig of the 9x9 L
    assert calls == [((1, 3, 3), np.complex128)]

    calls.clear()
    svds.clear()
    report = run_standard_checks(foreign(3, np.random.default_rng(0)))
    assert report.get("spectral").details["route"] == "dense"
    # the whole of L once, as the real matrix of the Hermitian operator
    # basis, and every 9x9 SVD (fixed point, eigenvector cond) real too
    assert calls == [((1, 9, 9), np.float64)]
    assert svds and all(dtype == np.float64 for shape, dtype in svds if shape == (9, 9))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize(("n", "beta", "failing"), [(3, 40.0, "spectral"), (5, 10.0, "cptp"), (6, 8.0, "cptp")])
def test_thermal_chain_with_wide_gibbs_spread_passes_its_audit(n, beta, failing):
    spec = ThermoSpec(
        hamiltonian=presets.ladder(n, 1.0),
        beta=beta,
        downward_rates={(i, i + 1): 1.0 for i in range(n - 1)},
    )
    report = run_standard_checks(build_restricted_generator(spec))
    assert report.get(failing).passed
    assert report.passed


def test_report_get_unknown_check(qubit_generator):
    report = run_standard_checks(qubit_generator)
    with pytest.raises(KeyError):
        report.get("no_such_check")


# -- change of basis against the Hilbert-Schmidt loop -----------------------


def reference_matrix(superop, ops):
    """Entry (i, j) = tr(ops[i]^dag superop[ops[j]]), one inner product at a time."""
    out = np.empty((len(ops), len(ops)), dtype=complex)
    for j, sj in enumerate(ops):
        image = devectorize(superop @ vectorize(sj))
        for i, si in enumerate(ops):
            out[i, j] = hs_inner(si, image)
    return out


def random_restricted(n, rng):
    a = rng.normal(size=(n, n))
    spec = ThermoSpec(
        hamiltonian=presets.random_hermitian(n, rng),
        beta=float(rng.uniform(0.5, 2.0)),
        downward_rates={(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)},
        alpha=a @ a.T / n,
    )
    return build_restricted_generator(spec)


def ladder_with_mixing(n, rng):
    spec = ThermoSpec(
        hamiltonian=presets.ladder(n, 1.0),
        beta=float(rng.uniform(0.5, 2.0)),
        downward_rates={(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)},
        degenerate_mixing={1.0: presets.random_unitary(n - 1, rng)},
    )
    return build_restricted_generator(spec)


def foreign(n, rng):
    """Random jump operators with no relation to the eigenbasis of H."""
    h = presets.random_hermitian(n, rng)
    diss = sum(
        assemble_superop("dissipator_term", rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for _ in range(n)
    )
    return types.SimpleNamespace(
        basis=eigenoperator_basis(h),
        hamiltonian=h,
        beta=1.0,
        jump_terms=[],
        dissipator=diss,
        superoperator=-1j * assemble_superop("commutator", h) + diss,
    )


@pytest.mark.parametrize("make", [random_restricted, ladder_with_mixing, foreign])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_matrices_match_reference_loop(make, n, rng):
    gen = make(n, rng)
    basis = gen.basis
    rows, cols = basis.transition_pairs
    ops = list(basis.outers[rows, cols]) + basis.invariants
    scale = max(1.0, np.linalg.norm(gen.superoperator))

    overlap = reference_matrix(gen.dissipator, ops)
    allowed = np.ones((n * n, n * n), dtype=bool)
    n_tr = len(basis.transitions)
    for i in range(n * n):
        for j in range(n * n):
            if i < n_tr or j < n_tr:
                allowed[i, j] = i < n_tr and j < n_tr and basis.group_of(i) == basis.group_of(j)
    support = check_structure_support(gen.dissipator, basis)
    assert support.defect == pytest.approx(np.linalg.norm(overlap[~allowed]), abs=1e-12 * scale)
    assert support.details["on_support_norm"] == pytest.approx(
        np.linalg.norm(overlap[allowed]), abs=1e-12 * scale
    )
    # the audit passes its Propagator, which holds L: -i[H, .] adds nothing
    # off the sectors, and the on-support norm is L's
    on_l = reference_matrix(gen.superoperator, ops)[allowed]
    support_l = check_structure_support(Propagator(gen.superoperator, basis), basis)
    assert support_l.defect == pytest.approx(np.linalg.norm(overlap[~allowed]), abs=1e-12 * scale)
    assert support_l.details["on_support_norm"] == pytest.approx(np.linalg.norm(on_l), abs=1e-12 * scale)

    block = reference_matrix(gen.superoperator, basis.projectors)
    spectral = check_spectral(gen.superoperator, basis)
    expected = np.linalg.eigvals(block)
    distance = np.abs(spectral.details["population_eigenvalues"][:, None] - expected[None, :])
    # conjugate pairs have equal real parts, so match nearest neighbours both ways
    assert max(distance.min(axis=0).max(), distance.min(axis=1).max()) <= 1e-12 * scale
