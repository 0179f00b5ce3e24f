"""Detailed-balance rates, dephasing decomposition, generator assembly,
and Kossakowski extraction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolindblad import (
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    dephasing_from_alpha,
    devectorize,
    eigenoperator_basis,
    fix_detailed_balance,
    flat_rate,
    gks_from_map,
    hs_inner,
    kms_rates,
    ohmic_rate,
    presets,
    run_standard_checks,
    vectorize,
)

# Frozen from direct evaluation of the closed forms; see the docstrings of
# the functions under test for the formulas.
EXP_MINUS_ONE = 0.36787944117144233
EXP_MINUS_TWENTY = 2.061153622438558e-09
OHMIC_DOWN = 1.5819767068693265  # kappa=1, omega=1, beta=1: 1 / (1 - e^-1)
OHMIC_UP = 0.5819767068693265  # OHMIC_DOWN * e^-1 = 1 / (e - 1)


# -- rate pairs --------------------------------------------------------------


def test_detailed_balance_frozen_values():
    pair = fix_detailed_balance(1.0, 1.0, 1.0)
    assert pair.gamma_down == 1.0
    assert pair.gamma_up == pytest.approx(EXP_MINUS_ONE, rel=1e-15)
    cold = fix_detailed_balance(2.0, 4.0, 5.0)
    assert cold.gamma_up == pytest.approx(2.0 * EXP_MINUS_TWENTY, rel=1e-12)


def test_detailed_balance_infinite_temperature():
    pair = fix_detailed_balance(0.7, 2.0, 0.0)
    assert pair.gamma_up == pair.gamma_down == 0.7


@pytest.mark.parametrize(
    "gamma,omega,beta",
    [(-1.0, 1.0, 1.0), (float("nan"), 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -0.5)],
)
def test_detailed_balance_rejections(gamma, omega, beta):
    with pytest.raises(ValueError):
        fix_detailed_balance(gamma, omega, beta)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_detailed_balance_rejects_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fix_detailed_balance(1.0, 1.0, beta)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_build_rejects_a_non_finite_beta(beta):
    spec = ThermoSpec(hamiltonian=presets.ladder(3, 1.0), beta=beta, downward_rates={(0, 1): 1.0})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        build_restricted_generator(spec)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_thermal_state_rejects_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        presets.thermal_state(presets.ladder(3, 1.0), beta)


def test_ohmic_frozen_values():
    gamma = ohmic_rate(1.0, 1.0)
    assert gamma(1.0) == pytest.approx(OHMIC_DOWN, rel=1e-15)
    pair = kms_rates(gamma, 1.0, 1.0)
    assert pair.gamma_down == pytest.approx(OHMIC_DOWN, rel=1e-15)
    assert pair.gamma_up == pytest.approx(OHMIC_UP, rel=1e-15)


def test_ohmic_small_frequency_limit():
    gamma = ohmic_rate(2.0, 0.5)
    assert gamma(0.0) == pytest.approx(4.0)
    assert gamma(1e-8) == pytest.approx(4.0, rel=1e-6)


def test_ohmic_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        ohmic_rate(1.0, 0.0)
    with pytest.raises(ValueError):
        ohmic_rate(-1.0, 1.0)


def test_flat_rate_at_infinite_temperature():
    pair = kms_rates(flat_rate(0.3), 1.5, 0.0)
    assert pair.gamma_down == pair.gamma_up == 0.3


def test_kms_rejects_bad_rate_function():
    with pytest.raises(ValueError):
        kms_rates(lambda omega: -1.0, 1.0, 1.0)


@given(
    gamma=st.floats(min_value=1e-6, max_value=1e6),
    omega=st.floats(min_value=1e-3, max_value=50.0),
    beta=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_rate_pair_ratio_property(gamma, omega, beta):
    pair = fix_detailed_balance(gamma, omega, beta)
    assert 0 <= pair.gamma_up <= pair.gamma_down
    assert pair.gamma_up == pytest.approx(pair.gamma_down * np.exp(-beta * omega), rel=1e-12)


# -- dephasing ---------------------------------------------------------------


def qubit_projectors():
    return [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def test_dephasing_identity_alpha():
    terms = dephasing_from_alpha(np.eye(2), qubit_projectors())
    assert sorted(t.weight for t in terms) == [0.5, 0.5]


def test_dephasing_rank_one_alpha_gives_trivial_dissipator():
    # alpha = ones(2) has eigenvector (1,1)/sqrt(2), so the only weighted
    # operator is proportional to the identity and the dissipator vanishes.
    terms = dephasing_from_alpha(np.ones((2, 2)), qubit_projectors())
    total = np.zeros((4, 4), dtype=complex)
    for t in terms:
        comm = assemble_superop("commutator", t.operator)
        total -= t.weight * (comm @ comm)
    assert np.linalg.norm(total) < 1e-14


def test_dephasing_matches_projector_form_oracle(rng):
    n = 3
    m = rng.normal(size=(n, n))
    alpha = m @ m.T  # real symmetric PSD
    h = presets.random_hermitian(n, rng)
    basis = eigenoperator_basis(h)
    projectors = basis.projectors
    terms = dephasing_from_alpha(alpha, projectors)
    built = np.zeros((n * n, n * n), dtype=complex)
    for t in terms:
        comm = assemble_superop("commutator", t.operator)
        built -= t.weight * (comm @ comm)
    # independent oracle: sum_ij alpha_ij (Pi_i X Pi_j - {Pi_i Pi_j, X}/2)
    oracle = np.zeros_like(built)
    for i in range(n):
        for j in range(n):
            oracle += alpha[i, j] * (
                assemble_superop("sandwich", projectors[i], projectors[j])
                - 0.5 * assemble_superop("anticommutator", projectors[i] @ projectors[j])
            )
    assert np.linalg.norm(built - oracle) < 1e-10
    gen = build_restricted_generator(ThermoSpec(hamiltonian=h, beta=1.0, alpha=alpha))
    assert np.linalg.norm(gen.dissipator - oracle) < 1e-10


@pytest.mark.parametrize(
    "alpha",
    [np.eye(3), [[1.0, 0.5], [0.4, 1.0]], [[1.0, 1j], [-1j, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
)
def test_dephasing_alpha_rejections(alpha):
    with pytest.raises(ValueError):
        dephasing_from_alpha(np.asarray(alpha), qubit_projectors())


# -- assembled generators ----------------------------------------------------


def test_qubit_generator_action_on_excited_state(qubit_generator):
    # from the excited state only the downward channel acts: population
    # flows to the ground level at rate gamma_down = 1
    excited = vectorize(np.diag([0.0, 1.0]).astype(complex))
    out = devectorize(qubit_generator.superoperator @ excited)
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-12)


def test_qubit_generator_fixes_thermal_state(qubit_generator):
    rho_th = presets.thermal_state(presets.qubit(1.0), 1.0)
    out = qubit_generator.superoperator @ vectorize(rho_th)
    assert np.linalg.norm(out) < 1e-14


def test_generator_jump_terms_recorded(qubit_generator):
    omegas = sorted(t.omega for t in qubit_generator.jump_terms)
    assert omegas == pytest.approx([-1.0, 1.0])
    rates = {round(t.omega, 6): t.rate for t in qubit_generator.jump_terms}
    assert rates[1.0] == pytest.approx(1.0)
    assert rates[-1.0] == pytest.approx(EXP_MINUS_ONE, rel=1e-15)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 5.0])
def test_dissipator_commutes_with_free_evolution(beta):
    spec = ThermoSpec(
        hamiltonian=presets.qutrit(0.0, 1.0, 3.0),
        beta=beta,
        downward_rates={(0, 1): 1.0, (0, 2): 0.5, (1, 2): 0.8},
    )
    gen = build_restricted_generator(spec)
    ham_part = -1j * assemble_superop("commutator", gen.hamiltonian)
    defect = np.linalg.norm(ham_part @ gen.dissipator - gen.dissipator @ ham_part)
    assert defect < 1e-12 * max(1.0, np.linalg.norm(gen.dissipator))


def test_jump_operators_are_dissipator_eigenvectors(qutrit_generator):
    # non-degenerate spectrum: each eigenoperator spans an invariant line
    # of the dissipator alone
    diss = qutrit_generator.dissipator
    for term in qutrit_generator.jump_terms:
        v = vectorize(term.operator)
        out = diss @ v
        coeff = np.vdot(v, out) / np.vdot(v, v)
        assert np.linalg.norm(out - coeff * v) < 1e-12


def test_degenerate_mixing_builds_cross_terms():
    h = presets.ladder(3, 1.0)
    y = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rates = {(0, 1): 1.0, (1, 2): 0.4}  # unequal, so mixing is observable
    mixed = build_restricted_generator(
        ThermoSpec(hamiltonian=h, beta=1.0, downward_rates=rates, degenerate_mixing={1.0: y})
    )
    bare = build_restricted_generator(
        ThermoSpec(hamiltonian=h, beta=1.0, downward_rates=rates)
    )
    # mixed jumps are combinations of |0><1| and |1><2|; both matrix
    # elements must appear in each downward operator
    downward = [t for t in mixed.jump_terms if t.omega > 1e-9]
    assert len(downward) == 2
    for term in downward:
        assert abs(term.operator[0, 1]) > 0.1
        assert abs(term.operator[1, 2]) > 0.1
    # the assembled dissipator picks up a cross-sandwich term
    # F1 . F2^dag with weight (gamma_1 - gamma_2)/2
    f1 = np.zeros((3, 3), dtype=complex)
    f1[0, 1] = 1.0
    f2 = np.zeros((3, 3), dtype=complex)
    f2[1, 2] = 1.0
    cross = assemble_superop("sandwich", f1, f2.conj().T)
    overlap = np.trace(cross.conj().T @ (mixed.dissipator - bare.dissipator))
    assert abs(overlap) > 0.1
    rho_th = presets.thermal_state(h, 1.0)
    assert np.linalg.norm(mixed.superoperator @ vectorize(rho_th)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_rates_and_no_alpha_give_zero_dissipator(n):
    gen = build_restricted_generator(ThermoSpec(hamiltonian=presets.ladder(n, 1.0), beta=1.0))
    assert gen.dissipator.shape == (n * n, n * n)
    assert not np.any(gen.dissipator)


def test_single_level_dephasing_gives_zero_dissipator():
    gen = build_restricted_generator(
        ThermoSpec(hamiltonian=presets.ladder(1, 1.0), beta=1.0, alpha=np.array([[0.8]]))
    )
    assert [t.weight for t in gen.dephasing_terms] == [0.4]
    assert np.linalg.norm(gen.dissipator) < 1e-15


def test_build_audit_and_assembly_run_without_np_kron(rng, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refused)
    for n in (4, 8):
        m = rng.normal(size=(n, n))
        spec = ThermoSpec(
            hamiltonian=presets.random_hermitian(n, rng),
            beta=1.0,
            downward_rates={(i, j): 1.0 for i in range(n) for j in range(i + 1, n)},
            alpha=m @ m.T,
        )
        assert run_standard_checks(build_restricted_generator(spec)).passed
        op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert assemble_superop("dissipator_term", op).shape == (n * n, n * n)


def test_mixing_preserves_commutation():
    h = presets.ladder(4, 1.0)
    y = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    spec = ThermoSpec(
        hamiltonian=h,
        beta=0.7,
        downward_rates={(0, 1): 1.0, (1, 2): 0.5, (2, 3): 0.25},
        degenerate_mixing={1.0: y},
    )
    gen = build_restricted_generator(spec)
    ham_part = -1j * assemble_superop("commutator", gen.hamiltonian)
    defect = np.linalg.norm(ham_part @ gen.dissipator - gen.dissipator @ ham_part)
    assert defect < 1e-12 * np.linalg.norm(gen.dissipator)


def test_mixing_column_acts_on_transition_in_level_order():
    # jump k of the unit-frequency group of ladder(8) is Y_k = sum_i y[k, i] F_i
    # with F_i = |i><i+1|; a permutation y sends jump k to F_perm[k]
    n = 8
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    y = np.eye(n - 1)[perm]
    rates = {(i, i + 1): 0.5 + 0.1 * i for i in range(n - 1)}
    gen = build_restricted_generator(
        ThermoSpec(hamiltonian=presets.ladder(n, 1.0), beta=1.0, downward_rates=rates, degenerate_mixing={1.0: y})
    )
    downward = [t for t in gen.jump_terms if t.omega > 0]
    assert len(downward) == n - 1
    for k, term in enumerate(downward):
        i = perm[k]
        expected = np.zeros((n, n), dtype=complex)
        expected[i, i + 1] = 1.0
        np.testing.assert_allclose(term.operator, expected, atol=1e-14)
        # the rate of jump k is the rate given for transition k in level order
        assert term.rate == rates[(k, k + 1)]


def test_build_rejections():
    h = presets.qutrit(0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(2, 1): 1.0})
        )
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(0, 3): 1.0})
        )
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(0, 1): -1.0})
        )
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=-1.0, downward_rates={(0, 1): 1.0})
        )
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(
                hamiltonian=presets.ladder(3, 1.0),
                beta=1.0,
                downward_rates={(0, 1): 1.0},
                degenerate_mixing={1.0: np.eye(3)},
            )
        )


def test_degenerate_levels_rejected_for_zero_frequency_pair():
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(0, 1): 1.0})
        )


def test_mixing_at_zero_frequency_rejected():
    # the zero-frequency group {|0><1|} would get jump terms at omega = +-0.0,
    # which the detailed-balance audit cannot judge
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="zero-frequency transitions carry no rate"):
        build_restricted_generator(
            ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(0, 2): 1.0}, degenerate_mixing={0.0: [[1]]})
        )


# -- Kossakowski extraction --------------------------------------------------


def test_gks_of_unitary_family_is_zero():
    h = presets.qubit(1.0)
    basis = eigenoperator_basis(h)
    energies, vectors = np.linalg.eigh(h)

    def family(t):
        u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
        return np.kron(u.conj(), u)

    coeffs = gks_from_map(family, basis)
    assert np.linalg.norm(coeffs.a) < 1e-8
    assert np.allclose(coeffs.hamiltonian, h - np.trace(h) / 2 * np.eye(2), atol=1e-7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gks_matches_kron_trace_formula(n, rng):
    h = presets.random_hermitian(n, rng)
    basis = eigenoperator_basis(h)
    l_mat = -1j * assemble_superop("commutator", h) + sum(
        assemble_superop("dissipator_term", rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for _ in range(2)
    )
    # a family linear in t makes the Richardson estimate exact at epsilon = 1
    coeffs = gks_from_map(lambda t: np.eye(n * n) + t * l_mat, basis, epsilon=1.0)

    ops = basis.full_basis()
    b = np.array(
        [[np.trace(np.kron(sj.conj(), si).conj().T @ l_mat) for sj in ops] for si in ops]
    )
    d = n * n - 1
    f_op = sum(b[i, d] * ops[i] for i in range(d)) / np.sqrt(n)
    scale = max(1.0, np.linalg.norm(l_mat))
    assert np.max(np.abs(coeffs.a - b[:d, :d])) <= 1e-12 * scale
    assert np.max(np.abs(coeffs.hamiltonian - (f_op.conj().T - f_op) / 2j)) <= 1e-12 * scale


def test_gks_round_trip_recovers_rates(qubit_generator):
    from scipy.linalg import expm

    basis = qubit_generator.basis
    superop = qubit_generator.superoperator
    coeffs = gks_from_map(lambda t: expm(superop * t), basis, epsilon=1e-5)
    assert coeffs.hermiticity_defect < 1e-8
    assert coeffs.min_eigenvalue > -1e-8
    # diagonal entries over the transition slots are the jump rates
    recovered = {}
    for k, term in enumerate(basis.transitions):
        recovered[round(term.omega, 6)] = coeffs.a[k, k].real
    assert recovered[1.0] == pytest.approx(1.0, rel=1e-4)
    assert recovered[-1.0] == pytest.approx(EXP_MINUS_ONE, rel=1e-4)


def test_gks_identity_check_rejects_shifted_family():
    basis = eigenoperator_basis(presets.qubit(1.0))
    with pytest.raises(ValueError):
        gks_from_map(lambda t: np.eye(4) * (1.0 + 0.1), basis)
