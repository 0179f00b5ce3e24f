"""Config parsing, report serialization, and the command-line surface."""
import json

import numpy as np
import pytest

from thermolindblad.cli import main
from thermolindblad.config import (
    PhysicsError,
    SchemaError,
    parse_config,
    parse_hamiltonian,
    resolve_state,
)
from thermolindblad.reporting import emit_json, float_token, to_jsonable
from thermolindblad import presets


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
    with pytest.raises(PhysicsError):
        resolve_state(np.eye(2), presets.qubit(1.0), 1.0)


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


def test_validate_decomposes_generator_once(tmp_path, monkeypatch):
    payload = minimal_config(system={"hamiltonian": "qutrit(0.0, 1.0, 3.0)"})
    payload["baths"][0]["rates"] = {"0->1": 1.0, "0->2": 0.5, "1->2": 0.8}
    path = write_config(tmp_path, payload)
    calls = []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)

        def counting(matrix, _solver=solver, _name=name):
            calls.append((_name, np.shape(matrix)))
            return _solver(matrix)

        monkeypatch.setattr(np.linalg, name, counting)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    # the spectral check's eigenvalues also feed the generator summary; L is
    # decomposed once, by sector: one batched eig of its 3x3 zero-frequency
    # block and none of the 9x9 L; the only eigvals call is on the 3x3
    # population block
    assert calls == [("eig", (1, 3, 3)), ("eigvals", (3, 3))]


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
    import thermolindblad.cli as cli_module

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
