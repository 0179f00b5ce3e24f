"""Config parsing, report serialization, and the command-line surface."""
import json
from pathlib import Path

import numpy as np
import pytest

import thermolindblad.cli as cli_module
from thermolindblad import dynamics
from thermolindblad.cli import main
from thermolindblad.config import (
    EXPERIMENTS,
    MAX_TIME_COUNT,
    PhysicsError,
    SchemaError,
    parse_config,
    parse_hamiltonian,
    resolve_state,
)
from thermolindblad.reporting import emit_json, float_token, to_jsonable
from thermolindblad.validator import DEFAULT_THRESHOLDS
from thermolindblad import presets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_config(**extra):
    cfg = {
        "system": {"hamiltonian": "qubit(1.0)"},
        "baths": [{"beta": 1.0, "rates": {"0->1": 1.0}}],
        "experiment": "validate",
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- config parsing ----------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.experiment == "validate"
    assert cfg.system_label == "qubit(1.0)"
    assert cfg.seed == 0
    assert len(cfg.baths) == 1
    assert cfg.baths[0].beta == 1.0
    assert cfg.baths[0].rates == {(0, 1): 1.0}


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config(minimal_config(banana=1))
    assert "banana" in str(err.value)


def test_unknown_nested_key_names_path():
    payload = minimal_config()
    payload["baths"][0]["bananas"] = 2
    with pytest.raises(SchemaError) as err:
        parse_config(payload)
    assert "baths[0]" in str(err.value)


def test_unknown_experiment_rejected():
    with pytest.raises(SchemaError):
        parse_config(minimal_config(experiment="warp"))


@pytest.mark.parametrize(
    "spec",
    ["qubit(1.0, 2.0)", "ladder(1)", "pentagon(1.0)", "qubit(", "ladder(2.5)"],
)
def test_bad_hamiltonian_specs(spec):
    with pytest.raises(SchemaError):
        parse_hamiltonian(spec, "t")


def test_hamiltonian_presets_parse():
    matrix, label = parse_hamiltonian("qutrit(0, 1, 3)", "t")
    assert label == "qutrit(0, 1, 3)"
    assert np.allclose(matrix, presets.qutrit(0.0, 1.0, 3.0))
    matrix, _ = parse_hamiltonian("ladder(4)", "t")
    assert matrix.shape == (4, 4)


def test_literal_hamiltonian_must_be_hermitian():
    with pytest.raises(PhysicsError):
        parse_config(minimal_config(system={"hamiltonian": [[0.0, 1.0], [0.0, 0.0]]}))


def test_complex_entries_parse_as_pairs():
    cfg = parse_config(minimal_config(system={"hamiltonian": [[0.0, [0.0, -0.5]], [[0.0, 0.5], 1.0]]}))
    assert cfg.system_hamiltonian[0, 1] == pytest.approx(-0.5j)


def test_negative_rate_is_physics_error():
    payload = minimal_config()
    payload["baths"][0]["rates"] = {"0->1": -1.0}
    with pytest.raises(PhysicsError) as err:
        parse_config(payload)
    assert "0->1" in str(err.value)


def test_rate_key_must_be_upward_ordered():
    payload = minimal_config()
    payload["baths"][0]["rates"] = {"1->0": 1.0}
    with pytest.raises(SchemaError):
        parse_config(payload)


def test_bath_requires_some_content():
    payload = minimal_config()
    payload["baths"] = [{"beta": 1.0}]
    with pytest.raises(SchemaError):
        parse_config(payload)


def test_times_block_parses():
    payload = minimal_config(
        experiment="evolve",
        evolve={"times": {"start": 0.0, "stop": 10.0, "count": 11}},
    )
    cfg = parse_config(payload)
    assert cfg.evolve.times == pytest.approx(np.linspace(0.0, 10.0, 11))


def test_log_times_block_parses():
    payload = minimal_config(
        experiment="evolve",
        evolve={"times": {"start": 1e-2, "stop": 1e2, "count": 5, "log": True}},
    )
    cfg = parse_config(payload)
    assert cfg.evolve.times == pytest.approx(np.geomspace(1e-2, 1e2, 5))


def test_bad_times_rejected():
    payload = minimal_config(experiment="evolve", evolve={"times": {"start": 0.0}})
    with pytest.raises(SchemaError):
        parse_config(payload)


# np.geomspace(1, -1, 3) is [1, nan, -1], and a stop of 0 raises a ValueError
LOG_TIMES_BLOCKS = {
    "evolve": ("evolve", "times"),
    "theorem1": ("theorem1", "times"),
    "tau-scan": ("tau_scan", "taus"),
}


@pytest.mark.parametrize("stop", [-1.0, -10.0, 0.0])
@pytest.mark.parametrize("experiment", sorted(LOG_TIMES_BLOCKS))
def test_log_times_need_positive_stop(tmp_path, experiment, stop, capsys):
    section, key = LOG_TIMES_BLOCKS[experiment]
    block = {"start": 1.0, "stop": stop, "count": 3, "log": True}
    path = write_config(tmp_path, minimal_config(experiment=experiment, **{section: {key: block}}))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "stop > 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


TAU_SCAN_XX = {"system": {"hamiltonian": "qubit(1.0)"}, "experiment": "tau-scan"}


@pytest.mark.parametrize(
    "taus", [[-0.004, -0.002, -0.001, 0.001, 0.002], {"start": -1e-3, "stop": 1e-2, "count": 5}]
)
def test_negative_tau_is_schema_error(tmp_path, taus, capfd):
    # a negative tau has no logarithm for the slope fit
    with pytest.raises(SchemaError, match="tau_scan.taus: must start at tau >= 0"):
        parse_config({**TAU_SCAN_XX, "tau_scan": {"taus": taus}})
    path = write_config(tmp_path, {**TAU_SCAN_XX, "tau_scan": {"taus": taus}})
    assert main(["tau-scan", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "DLASCL" not in capfd.readouterr().err


def test_linear_taus_from_zero_run(tmp_path):
    path = write_config(tmp_path, {**TAU_SCAN_XX, "tau_scan": {"taus": {"stop": 1e-2, "count": 6}}})
    assert main(["tau-scan", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_ascending_test_fails_a_nan_time():
    # NaN compares false, so a test written as "no step <= 0" would pass it
    block = {"start": -1.7e308, "stop": 1.7e308, "count": 2}
    with np.errstate(all="ignore"):
        assert np.isnan(np.linspace(block["start"], block["stop"], 2)[0])
        with pytest.raises(SchemaError, match="strictly ascending"):
            parse_config(minimal_config(experiment="evolve", evolve={"times": block}))


def test_tolerance_names_validated():
    with pytest.raises(SchemaError):
        parse_config(minimal_config(tolerances={"warp_factor": 1e-3}))
    cfg = parse_config(minimal_config(tolerances={"fixed_point": 1e-8, "theorem1": 1e-9}))
    assert cfg.tolerances["fixed_point"] == 1e-8


def test_theorem1_and_tau_scan_are_exclusive():
    payload = minimal_config(experiment="theorem1", theorem1={}, tau_scan={})
    with pytest.raises(SchemaError):
        parse_config(payload)


def test_resolve_state_presets():
    h = presets.qubit(1.0)
    ground = resolve_state("ground", h, 1.0)
    assert np.allclose(ground, np.diag([1.0, 0.0]))
    thermal = resolve_state("thermal", h, 1.0)
    assert np.allclose(thermal, presets.thermal_state(h, 1.0))
    sup = resolve_state("superposition", h, 1.0)
    assert np.allclose(sup, np.full((2, 2), 0.5))


def test_resolve_state_rejects_unnormalized_literal():
    with pytest.raises(PhysicsError, match="initial state literal"):
        resolve_state(np.eye(2), presets.qubit(1.0), 1.0)
    with pytest.raises(PhysicsError, match="env_state literal"):
        resolve_state(np.eye(2), presets.qubit(1.0), 1.0, "env_state")


def test_resolve_state_nonstationary_preset():
    # the equal superposition of the two lowest levels
    rho = resolve_state("nonstationary", presets.ladder(3, 1.0), 1.0, "env_state")
    expected = np.zeros((3, 3))
    expected[:2, :2] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)
    with pytest.raises(PhysicsError, match="env_state.*two levels"):
        resolve_state("nonstationary", np.array([[0.5]]), 1.0, "env_state")


def test_initial_state_cannot_be_nonstationary():
    with pytest.raises(SchemaError):
        parse_config(minimal_config(evolve={"initial_state": "nonstationary"}))
    with pytest.raises(SchemaError):
        parse_config(minimal_config(tau_scan={"initial_state": "nonstationary"}))


def test_time_count_limit_is_accepted():
    times = {"stop": 1.0, "count": MAX_TIME_COUNT}
    assert len(parse_config(minimal_config(evolve={"times": times})).evolve.times) == MAX_TIME_COUNT


# -- reporting ---------------------------------------------------------------


def test_float_tokens():
    assert float_token(1.0) == "1.0"
    assert float_token(0.5) == "0.5"
    assert float_token(float("inf")) == "Infinity"
    assert float_token(float("-inf")) == "-Infinity"
    assert float_token(float("nan")) == "NaN"
    # round-trip at full precision
    assert float(float_token(0.1 + 0.2)) == 0.1 + 0.2


def test_emit_json_is_sorted_and_stable():
    doc = {"b": [1, 2.5], "a": {"y": True, "x": None}}
    text = emit_json(doc)
    assert text.index('"a"') < text.index('"b"')
    assert emit_json(doc) == emit_json({"a": {"x": None, "y": True}, "b": [1, 2.5]})


def test_to_jsonable_handles_arrays_and_complex():
    out = to_jsonable({"m": np.array([[1.0, 2.0]]), "z": 1 + 2j, "k": {(0, 1): 3.0}})
    assert out["m"] == [[1.0, 2.0]]
    assert out["z"] == {"re": 1.0, "im": 2.0}
    assert out["k"] == {"0->1": 3.0}


# -- CLI ---------------------------------------------------------------------


def test_validate_command_passes(tmp_path):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] is True
    assert report["experiment"] == "validate"
    assert len(report["checks"]) == 6
    # envelope: version, resolved config echo, and the thresholds in force
    assert report["version"]
    assert report["config"]["system_label"] == "qubit(1.0)"
    assert all(c["threshold"] > 0 for c in report["checks"])


def count_eig_calls(monkeypatch):
    """Record (name, shape) of every np.linalg.eig and eigvals call."""
    calls = []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)

        def counting(matrix, _solver=solver, _name=name):
            calls.append((_name, np.shape(matrix)))
            return _solver(matrix)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_validate_decomposes_generator_once(tmp_path, monkeypatch):
    payload = minimal_config(system={"hamiltonian": "qutrit(0.0, 1.0, 3.0)"})
    payload["baths"][0]["rates"] = {"0->1": 1.0, "0->2": 0.5, "1->2": 0.8}
    path = write_config(tmp_path, payload)
    calls = count_eig_calls(monkeypatch)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    # the spectral check's eigenvalues also feed the generator summary; L is
    # decomposed once, by sector: one batched eig of its 3x3 zero-frequency
    # block and none of the 9x9 L; the only eigvals call is on the 3x3
    # population block
    assert calls == [("eig", (1, 3, 3)), ("eigvals", (3, 3))]


def test_build_reads_the_validate_spectrum(tmp_path, monkeypatch):
    payload = minimal_config(system={"hamiltonian": "qutrit(0.0, 1.0, 3.0)"})
    payload["baths"][0]["rates"] = {"0->1": 1.0, "0->2": 0.5, "1->2": 0.8}
    payload["baths"][0]["alpha"] = [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]]
    path = write_config(tmp_path, payload)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "validate")]) == 0
    calls = count_eig_calls(monkeypatch)
    assert main(["build", "--config", path, "--out", str(tmp_path / "build")]) == 0
    # one batched eig of the 3x3 zero-frequency block, as in validate
    assert calls == [("eig", (1, 3, 3))]
    built, validated = (json.loads((tmp_path / d / "report.json").read_text()) for d in ("build", "validate"))
    # the same floats, so the same tokens in both reports
    assert built["generator"]["eigenvalues"] == validated["generator"]["eigenvalues"]


def test_tol_override_can_force_failure(tmp_path):
    path = write_config(tmp_path, minimal_config())
    code = main(
        [
            "validate",
            "--config",
            path,
            "--out",
            str(tmp_path / "out"),
            "--tol",
            "fixed_point=1e-30",
        ]
    )
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] is False
    assert report["tolerances_used"]["fixed_point"] == 1e-30


def test_unknown_tol_name_is_schema_error(tmp_path):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate", "--config", path, "--tol", "warp=1"]) == 2


def test_missing_config_file_is_schema_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2


def test_negative_rate_exits_with_physics_code(tmp_path):
    payload = minimal_config()
    payload["baths"][0]["rates"] = {"0->1": -2.0}
    path = write_config(tmp_path, payload)
    assert main(["validate", "--config", path]) == 3


def test_non_psd_env_state_literal_exits_with_physics_code(tmp_path, capsys):
    payload = minimal_config(experiment="tau-scan", tau_scan={"env_state": [[1.5, 0.0], [0.0, -0.5]]})
    path = write_config(tmp_path, payload)
    assert main(["tau-scan", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "env_state literal" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,section", [("theorem1", "theorem1"), ("tau-scan", "tau_scan")])
def test_one_level_nonstationary_env_exits_with_physics_code(tmp_path, capsys, experiment, section):
    payload = minimal_config(
        experiment=experiment,
        **{section: {"environment": [[0.5]], "env_state": "nonstationary", "coupling": "nonconserving"}},
    )
    path = write_config(tmp_path, payload)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "two levels" in capsys.readouterr().err


def test_env_state_of_the_wrong_shape_exits_with_physics_code(tmp_path, capsys):
    # a valid two-level state for a one-level environment
    payload = minimal_config(
        experiment="tau-scan", tau_scan={"environment": [[0.5]], "env_state": [[0.5, 0.0], [0.0, 0.5]]}
    )
    path = write_config(tmp_path, payload)
    assert main(["tau-scan", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "env_state must have the shape" in capsys.readouterr().err


def test_complex_alpha_literal_exits_with_physics_code(tmp_path, capsys):
    payload = minimal_config()
    payload["baths"][0]["alpha"] = [[1.0, [0.0, 0.2]], [[0.0, -0.2], 1.0]]  # Hermitian, not real
    with pytest.raises(PhysicsError, match=r"config\.baths\[0\]\.alpha: alpha must be real"):
        parse_config(payload)
    path = write_config(tmp_path, payload)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "alpha must be real" in capsys.readouterr().err


def test_real_alpha_literal_is_kept_as_given():
    alpha = [[1.0, 0.3], [0.3, [0.8, 0.0]]]  # a zero imaginary part is real
    payload = minimal_config()
    payload["baths"][0]["alpha"] = alpha
    parsed = parse_config(payload).baths[0].alpha
    assert parsed.dtype == float
    assert parsed.tolist() == [[1.0, 0.3], [0.3, 0.8]]


def test_coupling_literal_is_run_as_given(tmp_path):
    exchange = [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.3, 0.0], [0.0, 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    payload = minimal_config(experiment="theorem1", theorem1={"environment": "qubit(1.0)", "coupling": exchange})
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["theorem1", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["composite"]["coupling_kind"] == "matrix"
    payload["theorem1"]["coupling"] = [[0.0, 1.0], [1.0, 0.0]]  # not on the joint space
    path = write_config(tmp_path, payload)
    assert main(["theorem1", "--config", path, "--out", str(tmp_path / "out2")]) == 2


def test_evolve_without_a_unique_steady_state_uses_the_thermal_reference(tmp_path):
    # level 2 is coupled to nothing, so every mixture of the 0-1 steady state
    # with it is stationary
    payload = {
        "system": {"hamiltonian": "qutrit(0, 1, 3)"},
        "baths": [{"beta": 1.0, "rates": {"0->1": 1.0}}],
        "experiment": "evolve",
    }
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["entropy_reference"] == "thermal"
    assert report["steady_state"]["unique"] is False


@pytest.mark.parametrize("count", [MAX_TIME_COUNT + 1, 10**13])
def test_huge_time_count_exits_with_schema_code(tmp_path, count):
    payload = minimal_config(experiment="evolve", evolve={"times": {"stop": 1.0, "count": count}})
    path = write_config(tmp_path, payload)
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_unnormalized_tau_scan_initial_state_exits_with_physics_code(tmp_path, capsys):
    payload = minimal_config(experiment="tau-scan", tau_scan={"initial_state": [[0.6, 0.0], [0.0, 0.6]]})
    path = write_config(tmp_path, payload)
    assert main(["tau-scan", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "initial state literal" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate", "--config", path, "--seed", "-4"]) == 2


def test_evolve_writes_trajectory(tmp_path):
    payload = minimal_config(
        experiment="evolve",
        evolve={"times": {"start": 0.0, "stop": 5.0, "count": 6}, "initial_state": "excited"},
    )
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 rows
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "rho_re_00"
    assert header[-2] == "S_rel"
    assert header[-1] == "trace_defect"


def test_theorem1_passes_for_strict_default(tmp_path):
    payload = minimal_config(experiment="theorem1")
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["theorem1", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["composite"]["coupling_kind"] == "strict"
    assert report["composite"]["induces_transitions"] is True


def test_theorem1_fails_for_nonconserving_coupling(tmp_path):
    payload = minimal_config(
        experiment="theorem1",
        theorem1={"coupling": "nonconserving", "environment": "qubit(1.0)"},
    )
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["theorem1", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    (check,) = report["checks"]
    assert check["name"] == "theorem1"
    assert check["defect"] > 1e-3


def test_tau_scan_writes_scan_table(tmp_path):
    payload = minimal_config(experiment="tau-scan")
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["tau-scan", "--config", path, "--out", str(out)]) == 0
    lines = (out / "tauscan.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "tau"
    assert len(lines) == 9  # header + default 8-point grid
    report = json.loads((out / "report.json").read_text())
    slope = report["scan"]["fitted_slope"]
    assert abs(slope - 3.0) < 0.05


def test_tau_scan_at_the_rounding_floor_passes_its_slope_check(tmp_path):
    # a strict coupling and a thermal environment: every defect is zero to rounding
    payload = minimal_config(experiment="tau-scan", tau_scan={"coupling": "strict"})
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["tau-scan", "--config", path, "--out", str(out)]) == 0
    slope_check = json.loads((out / "report.json").read_text())["checks"][0]
    assert slope_check["details"]["all_defects_at_floor"] is True
    assert slope_check["defect"] == 0.0


def test_transport_needs_two_baths(tmp_path):
    path = write_config(tmp_path, minimal_config(experiment="transport"))
    assert main(["transport", "--config", path]) == 2


def test_transport_cycle_runs(tmp_path):
    payload = {
        "system": {"hamiltonian": "qutrit(0, 1, 3)"},
        "baths": [
            {"beta": 1.0, "rates": {"0->1": 1.0, "1->2": 1.0}, "label": "cold"},
            {"beta": 0.5, "rates": {"0->2": 1.0}, "label": "hot"},
        ],
        "experiment": "transport",
    }
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["transport", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    currents = report["currents"]
    assert currents["hot"] > 0
    assert currents["cold"] < 0
    assert abs(report["current_sum"]) < 1e-12
    assert report["max_coherence"] < 1e-10


def test_numerical_failure_writes_partial_report(tmp_path, monkeypatch):
    def explode(model):
        raise np.linalg.LinAlgError("no stationary state found")

    monkeypatch.setattr(cli_module, "transport_steady_report", explode)
    payload = {
        "system": {"hamiltonian": "qutrit(0, 1, 3)"},
        "baths": [
            {"beta": 1.0, "rates": {"0->1": 1.0}},
            {"beta": 0.5, "rates": {"0->2": 1.0}},
        ],
        "experiment": "transport",
    }
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["transport", "--config", path, "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] is False
    assert "stationary" in report["error"]


def test_build_reports_structure(tmp_path):
    path = write_config(tmp_path, minimal_config(experiment="build"))
    out = tmp_path / "out"
    assert main(["build", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["generator"]["dim"] == 2
    assert len(report["generator"]["jump_terms"]) == 2


def test_reports_are_byte_identical_across_runs(tmp_path):
    payload = minimal_config(experiment="theorem1", seed=7)
    path = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["theorem1", "--config", path, "--out", str(out_a)]) == 0
    assert main(["theorem1", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_theorem1_nan_defect_fails(tmp_path):
    # the phases exp(-i E t) overflow at t = 10 only; max() would keep the
    # finite defects of t = 0.1 and 1 and drop the NaN that follows them
    payload = {"system": {"hamiltonian": "qubit(1.0)"}, "experiment": "theorem1", "theorem1": {"coupling_scale": 1e308}}
    path = write_config(tmp_path, payload)
    with np.errstate(all="ignore"):
        assert main(["theorem1", "--config", path, "--out", str(tmp_path / "out")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (check,) = report["checks"]
    defects = [d for _, d in check["details"]["defects_by_time"]]
    assert np.isfinite(defects[:2]).all() and np.isnan(defects[2])
    assert np.isnan(check["defect"]) and not check["passed"]
    assert report["overall"] is False


def test_seed_changes_strict_coupling(tmp_path):
    payload = minimal_config(experiment="theorem1")
    path = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["theorem1", "--config", path, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["theorem1", "--config", path, "--out", str(out_b), "--seed", "2"]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["seed"] == 1 and rep_b["seed"] == 2
    assert rep_a["composite"]["mean_field_norm"] != rep_b["composite"]["mean_field_norm"]


# -- non-finite numbers ------------------------------------------------------


QUBIT = '"qubit(1.0)"'
NON_FINITE_CONFIGS = {
    # Python's json reads NaN, Infinity and 1e400 (as inf) without complaint
    "times_nan": ("evolve", QUBIT, "1.0", ', "evolve": {"times": [0.0, NaN]}'),
    "beta_nan": ("validate", QUBIT, "NaN", ""),
    "beta_infinity": ("validate", QUBIT, "Infinity", ""),
    "beta_1e400": ("validate", QUBIT, "1e400", ""),
    "beta_huge_integer": ("validate", QUBIT, "1" + "0" * 400, ""),
    "tolerance_nan": ("validate", QUBIT, "1.0", ', "tolerances": {"cptp": NaN}'),
    "matrix_entry_nan": ("validate", "[[0.0, 0.0], [0.0, NaN]]", "1.0", ""),
    "matrix_pair_infinity": ("validate", "[[0.0, [0.0, Infinity]], [0.0, 1.0]]", "1.0", ""),
    "preset_argument_nan": ("validate", '"qubit(nan)"', "1.0", ""),
    "preset_argument_inf": ("validate", '"ladder(3, inf)"', "1.0", ""),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CONFIGS))
def test_non_finite_numbers_are_schema_errors(tmp_path, case, capsys):
    experiment, hamiltonian, beta, extra = NON_FINITE_CONFIGS[case]
    text = (
        f'{{"system": {{"hamiltonian": {hamiltonian}}}, '
        f'"baths": [{{"beta": {beta}, "rates": {{"0->1": 1.0}}}}], "experiment": "{experiment}"{extra}}}'
    )
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_tol_override_is_schema_error(tmp_path, value):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out"), "--tol", f"cptp={value}"]) == 2


# -- one threshold table, one command table ----------------------------------


def test_every_threshold_name_is_settable_both_ways():
    overrides = {name: 0.5 for name in DEFAULT_THRESHOLDS}
    assert len(overrides) == 11
    assert parse_config(minimal_config(tolerances=overrides)).tolerances == overrides
    assert cli_module._parse_tol_overrides([f"{name}=0.5" for name in DEFAULT_THRESHOLDS]) == overrides


def test_unknown_threshold_name_is_rejected_alike():
    with pytest.raises(SchemaError) as from_config:
        parse_config(minimal_config(tolerances={"warp": 1.0}))
    with pytest.raises(SchemaError) as from_flag:
        cli_module._parse_tol_overrides(["warp=1.0"])
    known = "(known: " + ", ".join(DEFAULT_THRESHOLDS) + ")"
    assert str(from_config.value).endswith(known)
    assert str(from_flag.value).endswith(known)


def test_experiment_thresholds_default_from_the_table(tmp_path):
    path = write_config(tmp_path, minimal_config(experiment="tau-scan"))
    out = tmp_path / "out"
    assert main(["tau-scan", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {c["name"]: c["threshold"] for c in report["checks"]} == {"tau_slope": 0.05, "tau_formula": 1e-6}
    assert report["tolerances_used"] == {}


@pytest.mark.parametrize(
    "experiment, env_hamiltonian, env_label, coupling",
    [
        ("theorem1", np.diag([0.0, 1.0, 2.0, 3.0]), "ladder(4, 1.0)", "strict"),
        ("tau-scan", np.diag([-0.5, 0.5]), "qubit(1.0)", "nonconserving"),
    ],
)
def test_absent_composite_section_takes_the_defaults(experiment, env_hamiltonian, env_label, coupling):
    comp = parse_config(minimal_config()).composite_for(experiment)
    assert np.array_equal(comp.env_hamiltonian, env_hamiltonian)
    assert comp.env_label == env_label
    assert comp.env_beta == 1.0
    assert comp.env_state == "thermal"
    assert comp.coupling == coupling
    assert comp.coupling_scale == 0.5
    assert np.array_equal(comp.times, [0.1, 1.0, 10.0])
    assert np.array_equal(comp.taus, np.geomspace(1e-4, 1e-2, 8))
    assert comp.initial_state == "superposition"


def test_given_composite_section_overrides_key_by_key():
    cfg = parse_config(minimal_config(experiment="tau-scan", tau_scan={"coupling_scale": 0.3}))
    comp = cfg.composite_for("tau-scan")
    assert comp.coupling_scale == 0.3
    assert comp.coupling == "nonconserving"
    assert comp.env_label == "qubit(1.0)"
    assert cfg.theorem1 is None
    assert cfg.composite_for("theorem1").coupling == "strict"


def test_every_experiment_has_exactly_one_command():
    assert tuple(cli_module._COMMANDS) == EXPERIMENTS


def test_evolve_splits_the_generator_once(tmp_path, monkeypatch):
    payload = minimal_config(experiment="evolve", evolve={"times": {"start": 0.0, "stop": 5.0, "count": 6}})
    path = write_config(tmp_path, payload)
    splits = []

    build = dynamics.Propagator._build.__func__

    def counting(cls, l_mat, basis=None):
        splits.append(l_mat.shape)
        return build(cls, l_mat, basis)

    monkeypatch.setattr(dynamics.Propagator, "_build", classmethod(counting))
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "out")]) == 0
    # the generator's kept Propagator serves propagate and steady_state
    assert splits == [(4, 4)]


# -- the shipped configs -----------------------------------------------------

# theorem1_nonconserving fails its check by design
SHIPPED_EXIT_CODES = {
    "evolve_qubit": 0,
    "tau_scan_xx": 0,
    "theorem1_nonconserving": 1,
    "theorem1_strict": 0,
    "transport_cycle": 0,
    "validate_qutrit": 0,
}


def test_shipped_configs_are_the_documented_ones():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED_EXIT_CODES)


@pytest.mark.parametrize("name", sorted(SHIPPED_EXIT_CODES))
def test_shipped_config_exit_code_and_stable_report(tmp_path, name):
    path = CONFIG_DIR / f"{name}.json"
    experiment = json.loads(path.read_text())["experiment"]
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([experiment, "--config", str(path), "--out", str(out)]) == SHIPPED_EXIT_CODES[name]
        reports.append((out / "report.json").read_bytes())
    assert json.loads(reports[0])["overall"] is (SHIPPED_EXIT_CODES[name] == 0)
    assert reports[0] == reports[1]
