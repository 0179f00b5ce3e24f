"""Brute-force composite dynamics: exact reduced maps, the strict-coupling
commutation theorem, and the small-time defect expansion."""
import numpy as np
import pytest
from scipy.linalg import expm

from thermolindblad import (
    CompositeModel,
    build_strict_coupling,
    choi_matrix,
    contour_coefficient,
    devectorize,
    effective_generator,
    expansion_trace_formulas,
    partial_trace_env,
    partial_trace_sys,
    presets,
    tau_expansion,
    theorem1_defect,
    vectorize,
)

UPPER = presets.LOWER.conj().T


def exchange_model(g=0.3, beta=1.0):
    """Resonant qubits with an excitation-exchange coupling; the coupling
    commutes with the free Hamiltonian, so the commutation theorem applies
    exactly."""
    h = presets.qubit(1.0)
    coupling = g * (np.kron(UPPER, presets.LOWER) + np.kron(presets.LOWER, UPPER))
    return CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=coupling,
        env_state=presets.thermal_state(h, beta),
    )


def nonconserving_model(strength=0.5, beta=1.0):
    h = presets.qubit(1.0)
    return CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=strength * np.kron(presets.SIGMA_X, presets.SIGMA_X),
        env_state=presets.thermal_state(h, beta),
    )


# -- partial traces ----------------------------------------------------------


def test_partial_traces_match_loop_oracle(rng):
    n_sys, n_env = 2, 3
    joint = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    t = joint.reshape(n_sys, n_env, n_sys, n_env)
    env_traced = np.zeros((n_sys, n_sys), dtype=complex)
    sys_traced = np.zeros((n_env, n_env), dtype=complex)
    for i in range(n_sys):
        for k in range(n_sys):
            for j in range(n_env):
                env_traced[i, k] += t[i, j, k, j]
    for j in range(n_env):
        for l in range(n_env):
            for i in range(n_sys):
                sys_traced[j, l] += t[i, j, i, l]
    assert np.allclose(partial_trace_env(joint, n_sys, n_env), env_traced, atol=1e-14)
    assert np.allclose(partial_trace_sys(joint, n_sys, n_env), sys_traced, atol=1e-14)


def test_partial_traces_are_trace_preserving(rng):
    joint = presets.random_density_matrix(6, rng)
    assert np.trace(partial_trace_env(joint, 2, 3)) == pytest.approx(1.0)
    assert np.trace(partial_trace_sys(joint, 2, 3)) == pytest.approx(1.0)


# -- reduced maps ------------------------------------------------------------


def test_reduced_map_identity_at_zero():
    model = nonconserving_model()
    assert np.allclose(model.reduced_map(0.0), np.eye(4), atol=1e-13)


def test_decoupled_model_reduces_to_free_conjugation():
    h = presets.qubit(1.0)
    model = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=presets.ladder(3, 1.0),
        coupling=np.zeros((6, 6)),
        env_state=presets.thermal_state(presets.ladder(3, 1.0), 1.0),
    )
    for t in (0.2, 1.0, 4.0):
        assert np.linalg.norm(model.reduced_map(t) - model.free_conjugation(t)) < 1e-12


def test_reduced_map_matches_brute_force(rng):
    model = nonconserving_model()
    rho_env = model.env_state
    for tau in (0.17, 1.3):
        lam = model.reduced_map(tau)
        u = expm(-1j * model.total_hamiltonian * tau)
        for _ in range(20):
            rho_s = presets.random_density_matrix(2, rng)
            joint = u @ np.kron(rho_s, rho_env) @ u.conj().T
            expected = partial_trace_env(joint, 2, 2)
            got = devectorize(lam @ vectorize(rho_s))
            assert np.linalg.norm(got - expected) < 1e-12


def test_kraus_set_is_complete_and_reconstructs(rng):
    model = nonconserving_model()
    kraus = model.kraus_set(0.9)
    assert kraus.completeness_defect < 1e-12
    lam = model.reduced_map(0.9)
    for _ in range(5):
        rho_s = presets.random_density_matrix(2, rng)
        rebuilt = sum(k @ rho_s @ k.conj().T for k in kraus.operators)
        assert np.linalg.norm(rebuilt - devectorize(lam @ vectorize(rho_s))) < 1e-12


def _loop_reference(model, tau):
    """Reduced map and Kraus operators from the per-environment-index double
    loop: one block <chi_j|U|chi_i> per pair, i outer and j inner."""
    ns, ne = model.n_sys, model.n_env
    evals, chi = np.linalg.eigh(model.env_state)
    u4 = model.total_unitary(tau).reshape(ns, ne, ns, ne)
    v4 = model.total_unitary(-tau).reshape(ns, ne, ns, ne)
    lam = np.zeros((ns * ns, ns * ns), dtype=complex)
    kraus = []
    for i in range(ne):
        for j in range(ne):
            left = np.einsum("a,iakb,b->ik", chi[:, j].conj(), u4, chi[:, i])
            right = np.einsum("a,iakb,b->ik", chi[:, i].conj(), v4, chi[:, j])
            if abs(evals[i]) > 1e-15:
                lam += evals[i] * np.kron(right.T, left)
            if max(evals[i], 0.0) > 1e-15:
                kraus.append(np.sqrt(evals[i]) * left)
    return lam, kraus


@pytest.mark.parametrize("ns,ne", [(2, 2), (2, 4), (3, 6)])
@pytest.mark.parametrize("env", ["thermal", "pure"])
def test_reduced_map_and_kraus_match_double_loop(ns, ne, env, rng):
    h_env = presets.ladder(ne, 1.0)
    ground = np.diag([1.0] + [0.0] * (ne - 1)).astype(complex)
    env_state = presets.thermal_state(h_env, 0.8) if env == "thermal" else ground
    model = CompositeModel(
        system_hamiltonian=presets.random_hermitian(ns, rng),
        env_hamiltonian=h_env,
        coupling=presets.random_hermitian(ns * ne, rng, scale=0.5),
        env_state=env_state,
    )
    for tau in (0.7, 0.1 * np.exp(0.9j)):
        reference, _ = _loop_reference(model, tau)
        got = model.reduced_map(tau)
        assert np.linalg.norm(got - reference) <= 1e-13 * max(1.0, np.linalg.norm(reference))
    _, reference_ops = _loop_reference(model, 0.7)
    ops = model.kraus_set(0.7).operators
    assert len(ops) == len(reference_ops) == (ne * ne if env == "thermal" else ne)
    for got, ref in zip(ops, reference_ops):
        assert np.linalg.norm(got - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


def test_reduced_map_makes_no_kron_call(monkeypatch):
    model = nonconserving_model()
    kron = np.kron
    calls = []

    def counting(a, b):
        calls.append(np.shape(a))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counting)
    model.reduced_map(0.4)
    assert calls == []


def test_choi_of_reduced_map_matches_kraus_sum():
    model = nonconserving_model()
    kraus = model.kraus_set(1.1)
    choi = choi_matrix(model.reduced_map(1.1))
    expected = sum(np.outer(vectorize(k), vectorize(k).conj()) for k in kraus.operators)
    assert np.linalg.norm(choi - expected) < 1e-10
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() > -1e-12


# -- the commutation theorem -------------------------------------------------


def test_exchange_coupling_satisfies_theorem():
    model = exchange_model()
    assert model.coupling_commutation_defect() < 1e-12
    assert model.env_stationarity_defect() < 1e-14
    for t in (0.1, 1.0, 10.0):
        assert theorem1_defect(model, t) < 1e-10


def test_random_strict_couplings_satisfy_theorem(rng):
    h_sys = presets.qubit(1.0)
    h_env = presets.ladder(4, 1.0)
    for _ in range(3):
        coupling, induces = build_strict_coupling(h_sys, h_env, rng, scale=0.8)
        assert induces  # shared gap of 1 gives a genuine exchange sector
        model = CompositeModel(
            system_hamiltonian=h_sys,
            env_hamiltonian=h_env,
            coupling=coupling,
            env_state=presets.thermal_state(h_env, 0.7),
        )
        assert model.coupling_commutation_defect() < 1e-10
        for t in (0.1, 1.0, 10.0):
            assert theorem1_defect(model, t) < 1e-10


def test_strict_coupling_on_unevenly_spaced_qutrit(rng):
    h_sys = presets.qutrit(0.0, 1.0, 3.0)
    h_env = presets.ladder(4, 1.0)
    coupling, induces = build_strict_coupling(h_sys, h_env, rng)
    assert induces
    h_free = np.kron(h_sys, np.eye(4)) + np.kron(np.eye(3), h_env)
    assert np.linalg.norm(h_free @ coupling - coupling @ h_free) < 1e-12


def test_strict_coupling_without_resonance_induces_nothing(rng):
    h_sys = presets.qubit(1.0)
    h_env = presets.qubit(2.35)
    coupling, induces = build_strict_coupling(h_sys, h_env, rng, scale=1.0)
    assert not induces
    assert np.linalg.norm(coupling) == pytest.approx(1.0)
    # with no shared gap the coupling is diagonal in the product basis, so
    # the reduced dynamics only dephases: populations never move
    model = CompositeModel(
        system_hamiltonian=h_sys,
        env_hamiltonian=h_env,
        coupling=coupling,
        env_state=presets.thermal_state(h_env, 1.0),
    )
    rho = presets.random_density_matrix(2, rng)
    out = devectorize(model.reduced_map(1.7) @ vectorize(rho))
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)


def test_nonconserving_coupling_breaks_theorem():
    model = nonconserving_model()
    assert model.coupling_commutation_defect() > 0.1
    assert theorem1_defect(model, 1.0) > 1e-3


def test_nonstationary_environment_breaks_theorem():
    base = exchange_model()
    plus = np.full((2, 2), 0.5, dtype=complex)  # (|0>+|1>)/sqrt(2)
    model = CompositeModel(
        system_hamiltonian=base.system_hamiltonian,
        env_hamiltonian=base.env_hamiltonian,
        coupling=base.coupling,
        env_state=plus,
    )
    assert model.coupling_commutation_defect() < 1e-12
    assert model.env_stationarity_defect() > 0.1
    assert theorem1_defect(model, 1.0) > 1e-6


# -- small-time expansion ----------------------------------------------------


def test_strict_model_sits_at_numerical_zero():
    scan = tau_expansion(exchange_model(), np.diag([0.5, 0.5]).astype(complex))
    assert np.all(scan.defects < 1e-13)
    assert np.isnan(scan.fitted_slope)
    assert scan.upsilon_norm < 1e-12
    assert scan.xi_norm < 1e-12


def test_scan_carries_its_floor_verdict():
    assert tau_expansion(exchange_model(), np.diag([0.5, 0.5]).astype(complex)).at_floor is True
    assert tau_expansion(nonconserving_model(), superposition_state()).at_floor is False


def superposition_state():
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return np.outer(psi, psi)


def test_cubic_onset_and_trace_formulas():
    model = nonconserving_model()
    scan = tau_expansion(model, superposition_state())
    assert scan.fitted_slope == pytest.approx(3.0, abs=0.05)
    # thermal environment and sigma_x coupling: the mean field vanishes,
    # so the quadratic coefficient is zero and the cubic one is governed
    # by the first trace formula
    assert np.linalg.norm(scan.coefficient_two) < 1e-10
    assert scan.tau3_coefficient > 1e-3
    assert scan.upsilon_relative_error < 1e-6
    assert scan.xi_relative_error < 1e-6


def test_commuting_system_factor_kills_defect_entirely():
    # [A_S, H_S] = 0 makes [H, H_S (x) I] = 0, so the reduced map commutes
    # with free evolution at every order even though the coupling does not
    # conserve free energy
    h = presets.qubit(1.0)
    model = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=0.7 * np.kron(presets.SIGMA_Z, presets.SIGMA_X),
        env_state=presets.thermal_state(h, 1.0),
    )
    assert model.coupling_commutation_defect() > 0.1
    scan = tau_expansion(model, superposition_state())
    assert np.all(scan.defects < 1e-13)
    assert scan.upsilon_norm < 1e-13
    assert scan.xi_norm < 1e-13


def test_mean_field_gives_quadratic_onset():
    h = presets.qubit(1.0)
    model = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=0.5 * np.kron(presets.SIGMA_X, np.diag([1.0, 0.0])),
        env_state=presets.thermal_state(h, 1.0),
    )
    assert np.linalg.norm(model.mean_field_hamiltonian()) > 0.1
    rho_s = superposition_state()
    scan = tau_expansion(model, rho_s)
    assert scan.fitted_slope == pytest.approx(2.0, abs=0.05)
    c2_formula, _, _ = expansion_trace_formulas(model, rho_s)
    assert np.linalg.norm(c2_formula) > 1e-3
    rel = np.linalg.norm(scan.coefficient_two - c2_formula) / np.linalg.norm(c2_formula)
    assert rel < 1e-8


def test_mean_field_of_product_coupling():
    h = presets.qubit(1.0)
    rho_env = presets.thermal_state(h, 1.0)
    b_env = np.diag([2.0, -1.0]).astype(complex)
    model = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=np.kron(presets.SIGMA_X, b_env),
        env_state=rho_env,
    )
    expected = presets.SIGMA_X * np.trace(b_env @ rho_env)
    assert np.allclose(model.mean_field_hamiltonian(), expected, atol=1e-13)


class CountingModel(CompositeModel):
    def __post_init__(self):
        super().__post_init__()
        self.maps = self.unitary_blocks = 0

    def _map_of_blocks(self, blocks, inverse_blocks):
        self.maps += 1
        return super()._map_of_blocks(blocks, inverse_blocks)

    def _env_blocks(self, tau):
        self.unitary_blocks += 1
        return super()._env_blocks(tau)


def test_tau_expansion_samples_each_contour_point_once():
    base = nonconserving_model()
    model = CountingModel(base.system_hamiltonian, base.env_hamiltonian, base.coupling, base.env_state)
    rho_s = superposition_state()
    scan = tau_expansion(model, rho_s, contour_points=32)
    assert model.maps == len(scan.taus) + 32
    # U(tau) and U(-tau) per grid point; one U per contour point, which
    # also serves the opposite point's inverse
    assert model.unitary_blocks == 2 * len(scan.taus) + 32
    # the shared samples give every order what the one-order call gives
    for order, coefficient in zip((2, 3, 4), (scan.coefficient_two, scan.coefficient_three, scan.coefficient_four)):
        assert np.array_equal(coefficient, contour_coefficient(model, rho_s, order))


def reference_contour_sums(model, rho_s, orders, radius, points):
    """The per-order Cauchy sums the FFT replaced, with the largest sample."""
    thetas = [2 * np.pi * j / points for j in range(points)]
    samples = [model.defect_state(radius * np.exp(1j * theta), rho_s) for theta in thetas]
    sums = []
    for order in orders:
        acc = np.zeros((model.n_sys, model.n_sys), dtype=complex)
        for theta, sample in zip(thetas, samples):
            acc += sample * np.exp(-1j * order * theta)
        sums.append(acc / (points * radius**order))
    return sums, max(np.max(np.abs(x)) for x in samples)


@pytest.mark.parametrize("make", [nonconserving_model, exchange_model])
def test_contour_fft_matches_per_order_sums(make):
    model = make()
    rho_s = superposition_state()
    orders = (1, 2, 3, 4, 7)
    expected, largest = reference_contour_sums(model, rho_s, orders, 0.1, 32)
    for order, reference in zip(orders, expected):
        # both sum 32 samples, so they agree to a few ulps of the largest,
        # amplified by 1 / radius^order
        tol = 1e-14 * largest / 0.1**order
        assert np.max(np.abs(contour_coefficient(model, rho_s, order) - reference)) <= tol


def test_odd_contour_matches_per_order_sums():
    # no contour point is the negative of another, so each inverse is its own
    model = nonconserving_model()
    rho_s = superposition_state()
    expected, largest = reference_contour_sums(model, rho_s, (3,), 0.1, 9)
    tol = 1e-14 * largest / 0.1**3
    assert np.max(np.abs(contour_coefficient(model, rho_s, 3, points=9) - expected[0])) <= tol


def test_contour_rejects_orders_the_samples_alias():
    model = nonconserving_model()
    with pytest.raises(ValueError, match="contour orders"):
        contour_coefficient(model, superposition_state(), 8, points=8)
    with pytest.raises(ValueError, match="contour orders"):
        tau_expansion(model, superposition_state(), contour_points=4)


def test_contour_matches_finite_difference_ratio():
    # the tau^3 coefficient from the contour must reproduce the measured
    # defect at small tau
    model = nonconserving_model()
    rho_s = superposition_state()
    c3 = contour_coefficient(model, rho_s, 3)
    tau = 1e-3
    measured = theorem1_defect(model, tau, rho_s)
    assert measured == pytest.approx(np.linalg.norm(c3) * tau**3, rel=1e-3)


# -- model validation and the effective generator ----------------------------


def test_model_rejects_bad_inputs():
    h = presets.qubit(1.0)
    thermal = presets.thermal_state(h, 1.0)
    with pytest.raises(ValueError):
        CompositeModel(h, h, np.kron(presets.LOWER, UPPER), thermal)  # not Hermitian
    with pytest.raises(ValueError):
        CompositeModel(h, h, np.zeros((6, 6)), thermal)  # wrong joint dimension
    with pytest.raises(ValueError):
        CompositeModel(h, h, np.zeros((4, 4)), 2.0 * thermal)  # trace != 1
    # unit trace and Hermitian, but not positive: the reduced map would not
    # be completely positive
    with pytest.raises(ValueError, match="env_state.*negative eigenvalue"):
        CompositeModel(h, h, 0.3 * np.kron(presets.SIGMA_X, presets.SIGMA_X), np.diag([1.5, -0.5]))


def test_model_rejects_env_state_of_the_wrong_shape():
    # a two-level state for a one-level environment
    with pytest.raises(ValueError, match="env_state must have the shape"):
        CompositeModel(presets.qubit(1.0), [[0.5]], np.zeros((2, 2)), np.eye(2) / 2)


def test_kraus_set_and_reduced_map_share_the_env_support():
    # an eigenvalue below zero by less than the validator's tolerance is
    # outside the support for both the map and its Kraus operators
    h = presets.qubit(1.0)
    model = CompositeModel(h, h, 0.3 * np.kron(presets.SIGMA_X, presets.SIGMA_X), np.diag([1.0 + 1e-12, -1e-12]))
    kraus = model.kraus_set(0.8)
    assert len(kraus.operators) == 2
    rebuilt = sum(np.kron(k.conj(), k) for k in kraus.operators)
    assert np.linalg.norm(rebuilt - model.reduced_map(0.8)) < 1e-14


def test_effective_generator_reconstructs_map():
    model = exchange_model()
    l_eff, defect = effective_generator(model, 0.5)
    assert np.all(np.isfinite(l_eff))
    assert defect < 1e-10
    # trace preservation survives the log: the identity is a left fixed
    # point of the effective generator
    eye = vectorize(np.eye(2))
    assert np.linalg.norm(l_eff.conj().T @ eye) < 1e-8
