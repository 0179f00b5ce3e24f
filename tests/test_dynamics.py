"""Propagation, stationary states, heat currents, relative entropy, and
multi-bath transport."""
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import expm

from thermolindblad import (
    BathSpec,
    Propagator,
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    build_transport_model,
    check_commutation,
    check_cptp,
    check_fixed_point,
    check_spectral,
    devectorize,
    eigenoperator_basis,
    heat_current,
    flat_rate,
    presets,
    propagate,
    relative_entropy,
    steady_state,
    transport_steady_report,
    vectorize,
)
from thermolindblad import dynamics
from thermolindblad.dynamics import check_density_matrix

THERMAL_QUBIT_POPULATIONS = (0.7310585786300049, 0.2689414213699951)  # beta=omega=1
REL_ENTROPY_BIASED_VS_FLAT = 0.3680642071684971  # diag(.9,.1) || diag(.5,.5)


# -- propagation -------------------------------------------------------------


def test_propagator_identity_at_zero(qubit_generator):
    prop = Propagator(qubit_generator.superoperator)
    assert np.allclose(prop(0.0), np.eye(4), atol=1e-14)


def test_propagator_matches_direct_exponential(qutrit_generator):
    prop = Propagator(qutrit_generator.superoperator)
    for t in (0.1, 1.0, 7.3):
        direct = expm(qutrit_generator.superoperator * t)
        assert np.linalg.norm(prop(t) - direct) < 1e-10


def test_semigroup_property(qubit_generator):
    prop = Propagator(qubit_generator.superoperator)
    assert np.allclose(prop(0.7) @ prop(1.5), prop(2.2), atol=1e-12)


def test_relaxation_to_thermal_populations(qubit_generator):
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = propagate(qubit_generator.superoperator, rho0, [50.0])
    final = traj.states[-1]
    assert final[0, 0].real == pytest.approx(THERMAL_QUBIT_POPULATIONS[0], abs=1e-8)
    assert final[1, 1].real == pytest.approx(THERMAL_QUBIT_POPULATIONS[1], abs=1e-8)
    assert abs(final[0, 1]) < 1e-12


def test_purity_preserved_without_dissipation():
    h = presets.qutrit(0.0, 1.0, 3.0)
    l_mat = -1j * assemble_superop("commutator", h)
    psi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    rho0 = np.outer(psi, psi.conj())
    traj = propagate(l_mat, rho0, np.linspace(0.0, 5.0, 20))
    for rho in traj.states:
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_trajectory_records_hermitization_defects(qubit_generator):
    traj = propagate(qubit_generator.superoperator, np.eye(2) / 2, [0.0, 1.0])
    assert traj.hermitization_defects.shape == (2,)
    assert np.all(traj.hermitization_defects < 1e-12)


@pytest.mark.parametrize(
    "rho0",
    [
        np.diag([0.6, 0.6]),  # trace 1.2
        np.array([[0.5, 0.9], [0.9, 0.5]]),  # negative eigenvalue
        np.array([[0.5, 0.5j], [0.5j, 0.5]]),  # not Hermitian
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # NaN, which compares false
        np.full((2, 2), np.nan),
    ],
)
def test_propagate_rejects_invalid_states(qubit_generator, rho0):
    with pytest.raises(ValueError):
        propagate(qubit_generator.superoperator, np.asarray(rho0, dtype=complex), [1.0])


@pytest.mark.parametrize("rho", [[[np.nan, 0.0], [0.0, 1.0]], np.full((2, 2), np.nan), [[0.5, 0.0], [0.0, np.nan]]])
def test_check_density_matrix_fails_a_nan(rho):
    with pytest.raises(ValueError, match="state"):
        check_density_matrix(rho)


@pytest.mark.parametrize(
    "rho", [[[np.inf, 0.0], [0.0, 1.0]], [[0.5, -np.inf], [np.inf, 0.5]], [[0.5, 0.0], [0.0, np.nan]]]
)
def test_check_density_matrix_names_a_non_finite_state_without_a_warning(rho):
    # the suite turns warnings into errors, so inf - inf in the Hermiticity
    # test would surface as a RuntimeWarning instead
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(rho)


def random_generator(n, rng):
    rates = {(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)}
    spec = ThermoSpec(hamiltonian=presets.random_hermitian(n, rng), beta=1.0, downward_rates=rates)
    return build_restricted_generator(spec)


@pytest.mark.parametrize("n", range(2, 7))
def test_propagate_matches_full_map(n, rng):
    gen = random_generator(n, rng)
    rho0 = presets.random_density_matrix(n, rng)
    times = np.linspace(0.0, 5.0, 11)
    traj = propagate(gen, rho0, times)
    prop = Propagator(gen.superoperator)
    assert prop.diagonalizable
    assert traj.states.shape == (times.size, n, n)
    for t, state in zip(times, traj.states):
        assert np.abs(state - devectorize(prop(t) @ vectorize(rho0))).max() < 1e-12


def test_propagate_on_defective_generator_uses_expm():
    # populations relax through a Jordan block, coherences decay at rate 2
    l_mat = np.diag([-1.0, -2.0, -2.0, -1.0]).astype(complex)
    l_mat[0, 3] = 1.0
    assert not Propagator(l_mat).diagonalizable
    rho0 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    times = np.array([0.0, 0.5, 2.0, 10.0])
    traj = propagate(l_mat, rho0, times)
    for t, state in zip(times, traj.states):
        assert np.abs(state - devectorize(expm(l_mat * t) @ vectorize(rho0))).max() < 1e-12


def test_propagate_builds_no_full_map(qutrit_generator, monkeypatch):
    calls = []
    call = Propagator.__call__

    def counting_call(self, t):
        calls.append(t)
        return call(self, t)

    monkeypatch.setattr(Propagator, "__call__", counting_call)
    assert Propagator(qutrit_generator.superoperator).diagonalizable
    propagate(qutrit_generator, np.eye(3) / 3, np.linspace(0.0, 5.0, 50))
    assert calls == []


def test_propagate_on_empty_time_grid(qubit_generator):
    traj = propagate(qubit_generator, np.eye(2) / 2, [])
    assert traj.states.shape == (0, 2, 2)
    assert traj.hermitization_defects.shape == (0,)
    # one number is a grid of one time
    np.testing.assert_array_equal(propagate(qubit_generator, np.eye(2) / 2, 1.0).times, [1.0])


def test_no_stack_of_one_by_one_blocks_reaches_lapack(rng, monkeypatch):
    # a nondegenerate H has N(N - 1) coherence sectors of size 1: each is its
    # own eigenvalue, inverse (1) and singular value (|x|), in closed form
    gen = random_generator(6, rng)
    rho0, times = presets.random_density_matrix(6, rng), np.linspace(0.0, 5.0, 20)
    shapes = []
    for name in ("svd", "inv", "eig"):

        def counting(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            shapes.append((_name, np.shape(a)))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    prop = Propagator(gen.superoperator, gen.basis)
    for obj in (prop, gen, gen.superoperator):
        propagate(obj, rho0, times)
        steady_state(obj)
        check_fixed_point(obj, gen.hamiltonian, gen.beta)
    assert {name for name, _ in shapes} == {"svd", "inv", "eig"}
    assert [(name, shape) for name, shape in shapes if shape[-2:] == (1, 1)] == []


def peak_bytes_above_inputs(fn):
    """The largest traced allocation total while fn runs, counted from its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_path_makes_few_state_sized_temporaries(rng):
    gen = random_generator(8, rng)
    rho0, times = presets.random_density_matrix(8, rng), np.linspace(0.0, 20.0, 200)
    prop = Propagator(gen.superoperator, gen.basis)
    states = propagate(prop, rho0, times).states  # also measures the split's Hermiticity once
    reference = presets.thermal_state(gen.hamiltonian, gen.beta)
    # one state-sized buffer for the Hermitian part, plus small ones
    assert peak_bytes_above_inputs(lambda: relative_entropy(states, reference)) <= 2.0 * states.nbytes
    # two state-sized buffers: the evolved frame entries, which the second
    # frame product overwrites, and the first product, which the states overwrite
    assert peak_bytes_above_inputs(lambda: propagate(prop, rho0, times)) <= 3.0 * states.nbytes


@pytest.mark.parametrize(
    "times",
    [[np.nan], [np.inf], [0.0, -1.0], [[0.0, 1.0]], np.zeros((2, 2)), ["1.0"], [True], [None], [1.0 + 1j],
     [True, 0.5], (0.5, np.True_), [0.5, np.array(True)]],
    ids=["nan", "inf", "negative", "nested", "matrix", "string", "bool", "none", "complex",
         "bool-among-numbers", "numpy-bool-among-numbers", "bool-array-among-numbers"],
)
def test_propagate_rejects_a_bad_time_grid_before_splitting(times, monkeypatch):
    spec = ThermoSpec(hamiltonian=presets.ladder(3, 1.0), beta=1.0, downward_rates={(0, 1): 1.0})
    gen = build_restricted_generator(spec)

    def forbidden(*args):
        raise AssertionError("L was split")

    monkeypatch.setattr(dynamics, "_kept_propagator", forbidden)
    with pytest.raises(ValueError, match="1-d grid of finite times"):
        propagate(gen, np.eye(3) / 3, times)


def test_a_refused_bool_is_named_in_the_message(qubit_generator):
    with pytest.raises(ValueError, match=re.escape("got [True, 0.5]")):
        propagate(qubit_generator, np.eye(2) / 2, [True, 0.5])


# -- stationary states -------------------------------------------------------


def test_steady_state_is_thermal(qutrit_generator):
    ss = steady_state(qutrit_generator.superoperator)
    assert ss.unique
    assert ss.null_dimension == 1
    expected = presets.thermal_state(presets.qutrit(0.0, 1.0, 3.0), 1.0)
    assert np.allclose(ss.rho, expected, atol=1e-10)
    assert ss.residual < 1e-10


def test_pure_dephasing_steady_state_not_unique():
    spec = ThermoSpec(
        hamiltonian=presets.qubit(1.0),
        beta=1.0,
        downward_rates={},
        alpha=np.diag([1.0, 2.0]),
    )
    gen = build_restricted_generator(spec)
    ss = steady_state(gen.superoperator)
    assert not ss.unique
    assert ss.null_dimension == 2


def test_no_stationary_state_raises():
    # a strictly contracting map with no null direction
    l_mat = -np.eye(4, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        steady_state(l_mat)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(np.inf, 1.0), np.nan])
def test_one_level_generator_that_is_not_finite_has_no_stationary_state(entry):
    # its one 1x1 block has singular value |x|, infinite or NaN: no null direction
    with pytest.raises(np.linalg.LinAlgError, match="no stationary state"):
        steady_state(np.array([[entry]], dtype=complex))


# numpy warns of the inf * 0 and inf - inf that the split and the Gibbs residual form
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("with_basis", [False, True], ids=["bare", "basis"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_that_is_not_finite_has_no_null_space_at_any_size(n, entry, with_basis, monkeypatch):
    l_mat = np.zeros((n * n, n * n), dtype=complex)
    l_mat[0, 0] = entry
    h = np.diag(np.arange(n, dtype=float))
    target = types.SimpleNamespace(superoperator=l_mat, basis=eigenoperator_basis(h)) if with_basis else l_mat

    def forbidden(*args, **kwargs):
        # LAPACK's SVD may never return on a matrix with an infinite entry
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    result = check_fixed_point(target, h, 1.0)
    assert not result.passed and result.details["null_dimension"] == 0
    with pytest.raises(np.linalg.LinAlgError, match="no stationary state"):
        steady_state(target)
    if n > 1:  # eig refuses the matrix
        with pytest.raises(np.linalg.LinAlgError):
            Propagator(l_mat, target.basis if with_basis else None)
        with pytest.raises(np.linalg.LinAlgError):
            check_cptp(target)


SHAPE_CALLS = {
    "Propagator": Propagator,
    "propagate": lambda l_mat: propagate(l_mat, np.eye(2) / 2, [0.0, 1.0]),
    "steady_state": steady_state,
    "check_fixed_point": lambda l_mat: check_fixed_point(l_mat, np.eye(2), 1.0),
    "check_cptp": check_cptp,
    "check_spectral": check_spectral,
}


@pytest.mark.parametrize("shape", [(0, 0), (4, 3), (12,), (2, 2, 2)], ids=["empty", "4x3", "1-d", "3-d"])
@pytest.mark.parametrize("call", sorted(SHAPE_CALLS))
def test_superoperator_must_be_square_and_nonempty(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"superoperator must be square and nonempty, got {shape}")):
        SHAPE_CALLS[call](np.zeros(shape, dtype=complex))
    assert not dynamics._kept


# -- heat currents -----------------------------------------------------------


def test_heat_current_vanishes_at_steady_state(qubit_generator):
    rho_th = presets.thermal_state(qubit_generator.hamiltonian, 1.0)
    j = heat_current(qubit_generator.hamiltonian, qubit_generator.dissipator, rho_th)
    assert abs(j) < 1e-14


def test_heat_flows_out_of_excited_system(qubit_generator):
    excited = np.diag([0.0, 1.0]).astype(complex)
    j = heat_current(qubit_generator.hamiltonian, qubit_generator.dissipator, excited)
    assert j < -0.1  # decay releases energy to the bath


# -- relative entropy --------------------------------------------------------


def test_relative_entropy_frozen_value():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert relative_entropy(rho, sigma) == pytest.approx(REL_ENTROPY_BIASED_VS_FLAT, rel=1e-12)


def test_relative_entropy_of_state_with_itself(rng):
    rho = presets.random_density_matrix(3, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_infinite_off_support():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy(rho, sigma) == np.inf


def test_relative_entropy_pure_vs_thermal_finite():
    rho = np.diag([0.0, 1.0]).astype(complex)
    sigma = presets.thermal_state(presets.qubit(1.0), 1.0)
    value = relative_entropy(rho, sigma)
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(THERMAL_QUBIT_POPULATIONS[1]), rel=1e-12)


def test_relative_entropy_nonnegative(rng):
    for _ in range(10):
        rho = presets.random_density_matrix(4, rng)
        sigma = presets.random_density_matrix(4, rng)
        assert relative_entropy(rho, sigma) >= -1e-12


def test_relative_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


@pytest.mark.parametrize("n", [2, 6, 8, 9])
def test_relative_entropy_of_stack_matches_single_states(n, rng):
    # sigma has a null direction: full-rank states are off support (inf),
    # states inside its range, pure or mixed, are finite
    u = presets.random_unitary(n, rng)
    weights = np.concatenate([[0.0], rng.uniform(0.1, 1.0, n - 1)])
    sigma = (u * (weights / weights.sum())) @ u.conj().T
    support = u[:, 1:]
    inside = support @ presets.random_density_matrix(n - 1, rng) @ support.conj().T
    pure = np.outer(support[:, 0], support[:, 0].conj())
    states = [inside, presets.random_density_matrix(n, rng), pure, inside]
    for reference in (sigma, presets.random_density_matrix(n, rng)):
        single = [relative_entropy(state, reference) for state in states]
        assert all(isinstance(value, float) for value in single)
        stacked = relative_entropy(np.array(states), reference)
        assert stacked.shape == (len(states),)
        assert np.array_equal(stacked, single)
    assert np.isinf(single).tolist() == [False] * len(states)
    assert np.isinf(relative_entropy(np.array(states), sigma)).tolist() == [False, True, False, False]


def overlap_relative_entropy(rho, sigma, support_cutoff=1e-12):
    """S(rho || sigma) from both eigendecompositions: the cross term as
    sum_ij p_i |<u_i|v_j>|^2 ln q_j over the support of sigma."""
    rho, sigma = (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    p = np.clip(p, 0.0, None)
    null_vecs = v[:, q <= support_cutoff]
    if np.trace(null_vecs.conj().T @ rho @ null_vecs).real > support_cutoff:
        return np.inf
    keep = q > support_cutoff
    overlaps = np.abs(u.conj().T @ v[:, keep]) ** 2
    log_q = np.log(np.clip(q[keep], 1e-300, None))
    return float(np.sum(p * np.log(np.where(p > 0.0, p, 1.0))) - p @ overlaps @ log_q)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_relative_entropy_matches_overlap_formula(n, rng):
    u = presets.random_unitary(n, rng)
    weights = np.concatenate([[0.0], rng.uniform(0.1, 1.0, n - 1)]) if n > 1 else np.ones(1)
    partial = (u * (weights / weights.sum())) @ u.conj().T
    support = u[:, 1:] if n > 1 else u
    pure = np.outer(support[:, -1], support[:, -1].conj())
    states = [presets.random_density_matrix(n, rng), pure, support @ support.conj().T / support.shape[1]]
    for sigma in (partial, presets.random_density_matrix(n, rng), pure):
        for rho in states:
            expected = overlap_relative_entropy(rho, sigma)
            value = relative_entropy(rho, sigma)
            if np.isinf(expected):
                assert value == np.inf
            else:
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    if n > 1:
        # full-rank states are off the support of a rank-deficient sigma
        assert relative_entropy(states[0], partial) == np.inf


# -- transport ---------------------------------------------------------------


def cycle_model():
    """Qutrit worked by two baths: the cold one drives both ladder steps,
    the hot one drives the direct 0 <-> 2 transition."""
    return build_transport_model(
        presets.qutrit(0.0, 1.0, 3.0),
        [
            BathSpec(beta=1.0, downward_rates={(0, 1): 1.0, (1, 2): 1.0}, label="cold"),
            BathSpec(beta=0.5, downward_rates={(0, 2): 1.0}, label="hot"),
        ],
    )


def test_transport_model_reassembles(qutrit_generator):
    model = cycle_model()
    rebuilt = -1j * assemble_superop("commutator", model.hamiltonian)
    for gen in model.generators:
        rebuilt = rebuilt + gen.dissipator
    # the first generator's L supplies the commutator part, bit for bit
    assert np.array_equal(rebuilt, model.superoperator)
    # each bath dissipator commutes with the free part, so the sum does
    assert check_commutation(model.superoperator, model.hamiltonian).passed


def test_cycle_carries_heat():
    report = transport_steady_report(cycle_model())
    assert report.steady.unique
    assert report.steady.residual < 1e-10
    labels = [b.label for b in cycle_model().baths]
    currents = dict(zip(labels, report.currents))
    assert currents["hot"] > 1e-3  # heat in from the hot bath
    assert currents["cold"] < -1e-3  # heat dumped to the cold bath
    assert abs(report.current_sum) < 1e-12  # first law at steady state
    assert report.max_coherence < 1e-10


def test_two_bath_ladder_has_no_cycle_current():
    # both baths drive disjoint transitions of a qutrit; the steady state
    # is diagonal and, without a closed transition loop, carries no heat
    model = build_transport_model(
        presets.qutrit(0.0, 1.0, 3.0),
        [
            BathSpec(beta=1.0, downward_rates={(0, 1): 1.0}, label="cold"),
            BathSpec(beta=0.5, downward_rates={(1, 2): 0.5}, label="hot"),
        ],
    )
    report = transport_steady_report(model)
    assert report.max_coherence < 1e-10
    assert abs(report.current_sum) < 1e-12
    for j in report.currents:
        assert abs(j) < 1e-12


def test_coherence_inside_degenerate_eigenspace_is_not_energy_coherence():
    # H = diag(0, 1, 1): the hot bath's Hadamard-mixed jumps leave a
    # stationary coherence between the degenerate levels 1 and 2, which
    # commutes with H; only pairs at nonzero Bohr frequency count
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rates = {(0, 1): 1.0, (0, 2): 0.5}
    model = build_transport_model(
        np.diag([0.0, 1.0, 1.0]),
        [
            BathSpec(beta=0.1, downward_rates=rates, degenerate_mixing={1.0: hadamard}, label="hot"),
            BathSpec(beta=5.0, downward_rates=rates, label="cold"),
        ],
    )
    report = transport_steady_report(model)
    assert report.steady.unique
    assert abs(report.steady.rho[1, 2]) > 1e-2
    assert report.max_coherence <= 1e-10


def test_equal_temperature_baths_thermalize():
    model = build_transport_model(
        presets.qutrit(0.0, 1.0, 3.0),
        [
            BathSpec(beta=1.0, downward_rates={(0, 1): 1.0, (1, 2): 1.0}),
            BathSpec(beta=1.0, downward_rates={(0, 2): 0.7}),
        ],
    )
    report = transport_steady_report(model)
    expected = presets.thermal_state(presets.qutrit(0.0, 1.0, 3.0), 1.0)
    assert np.allclose(report.steady.rho, expected, atol=1e-10)
    for j in report.currents:
        assert abs(j) < 1e-12


def test_rate_function_covers_every_transition():
    model = build_transport_model(
        presets.qutrit(0.0, 1.0, 3.0),
        [BathSpec(beta=1.0, rate_function=flat_rate(0.5))],
    )
    (gen,) = model.generators
    downward = sorted(t.omega for t in gen.jump_terms if t.omega > 0)
    assert downward == pytest.approx([1.0, 2.0, 3.0])
    assert all(
        t.rate == pytest.approx(0.5) for t in gen.jump_terms if t.omega > 0
    )


def test_rate_function_skips_zero_bohr_frequencies():
    # levels 1 and 2 are degenerate: the pair (1, 2) is at omega = 0 and gets
    # no rate, the pairs (0, 1) and (0, 2) get one each
    model = build_transport_model(np.diag([0.0, 1.0, 1.0]), [BathSpec(beta=1.0, rate_function=flat_rate(1.0))])
    (gen,) = model.generators
    assert len(gen.jump_terms) == 4
    assert sorted(t.omega for t in gen.jump_terms) == [-1.0, -1.0, 1.0, 1.0]


def test_explicit_rates_take_precedence_over_rate_function():
    model = build_transport_model(
        presets.qubit(1.0),
        [BathSpec(beta=1.0, downward_rates={(0, 1): 2.0}, rate_function=flat_rate(0.5))],
    )
    (gen,) = model.generators
    (down,) = [t for t in gen.jump_terms if t.omega > 0]
    assert down.rate == pytest.approx(2.0)


def test_transport_requires_baths():
    with pytest.raises(ValueError):
        build_transport_model(presets.qubit(1.0), [])


def test_transport_model_decomposes_hamiltonian_once(monkeypatch):
    import thermolindblad.dynamics as dynamics_module
    import thermolindblad.generator as generator_module

    calls = []
    original = dynamics_module.eigenoperator_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics_module, "eigenoperator_basis", counting)
    monkeypatch.setattr(generator_module, "eigenoperator_basis", counting)
    baths = [
        BathSpec(beta=beta, downward_rates={(0, 1): 1.0, (1, 2): 0.5}, label=f"bath{k}")
        for k, beta in enumerate((0.5, 1.0, 2.0))
    ]
    model = build_transport_model(presets.ladder(3, 1.0), baths)
    assert len(calls) == 1
    assert all(gen.basis is model.generators[0].basis for gen in model.generators)
    for gen, bath in zip(model.generators, baths):
        alone = build_restricted_generator(ThermoSpec(presets.ladder(3, 1.0), bath.beta, bath.downward_rates))
        np.testing.assert_array_equal(gen.superoperator, alone.superoperator)
