"""Property test of the command line's exit-code contract: whatever small
config it is given, main returns 0, 1, 2, 3 or 4 and no exception escapes."""
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermolindblad.cli import main
from thermolindblad.config import EXPERIMENTS, STATE_PRESETS

HAMILTONIANS = ["qubit(1.0)", "ladder(3, 1.0)", "qutrit(0, 1, 3)", [[0.5]], [[0.0, 0.3], [0.3, 1.0]]]
STATES = [*STATE_PRESETS, "nonstationary", [[0.6, 0.1], [0.1, 0.4]], [[1.5, 0.0], [0.0, -0.5]]]
ENV_STATES = ["thermal", "nonstationary", [[0.7, 0.0], [0.0, 0.3]], [[1.5, 0.0], [0.0, -0.5]]]
BETAS = [0.0, 1.0, 50.0]
# listed composite times: ascending, with a zero or a negative entry among them
TIME_LISTS = [[0.1, 1.0], [0.0, 1e-3, 2e-3], [-0.004, -0.002, -0.001, 0.001, 0.002], [-1.0, 0.5]]
BATH_CONTENTS = [
    {"rates": {"0->1": 1.0}},
    {"rates": {"0->2": 0.5, "1->2": 1.0}},
    {"rate_function": {"kind": "ohmic", "kappa": 0.5}},
    {"rate_function": {"kind": "flat"}},
    {"alpha": [[1.0, 0.2], [0.2, 0.5]]},
]

# tau = 0 has defect 0 up to rounding, which can be positive here: the
# log-log slope fit must leave that point out, not take log(0)
TAU_ZERO_CONFIG = dict(
    experiment="tau-scan",
    system=[[0.0, 0.3], [0.3, 1.0]],
    bath_list=[{"beta": 0.0, "rates": {"0->1": 1.0}}],
    initial_state="excited",
    section="tau_scan",
    environment="qubit(1.0)",
    env_state="thermal",
    env_beta=0.0,
    coupling="nonconserving",
    times=[0.1, 1.0],
    taus=[0.0, 1e-3, 2e-3],
)

baths = st.lists(
    st.builds(lambda beta, content: {"beta": beta, **content}, st.sampled_from(BETAS), st.sampled_from(BATH_CONTENTS)),
    min_size=1,
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    system=st.sampled_from(HAMILTONIANS),
    bath_list=baths,
    initial_state=st.sampled_from(STATES),
    section=st.sampled_from(["theorem1", "tau_scan"]),
    environment=st.sampled_from(HAMILTONIANS),
    env_state=st.sampled_from(ENV_STATES),
    env_beta=st.sampled_from(BETAS),
    coupling=st.sampled_from(["strict", "nonconserving"]),
    times=st.sampled_from(TIME_LISTS),
    taus=st.sampled_from(TIME_LISTS),
)
@example(
    experiment="tau-scan",
    system="qubit(1.0)",
    bath_list=[{"beta": 1.0, "rates": {"0->1": 1.0}}],
    initial_state="superposition",
    section="tau_scan",
    environment="qubit(1.0)",
    env_state="thermal",
    env_beta=1.0,
    coupling="nonconserving",
    times=[0.1, 1.0],
    taus=[-0.004, -0.002, -0.001, 0.001, 0.002],
)
@example(
    experiment="theorem1",
    system="qubit(1.0)",
    bath_list=[{"beta": 1.0, "rates": {"0->1": 1.0}}],
    initial_state="superposition",
    section="theorem1",
    environment=[[0.5]],
    env_state="nonstationary",
    env_beta=1.0,
    coupling="nonconserving",
    times=[0.1, 1.0],
    taus=[1e-3, 2e-3],
)
@example(**TAU_ZERO_CONFIG)
def test_every_config_exits_with_a_contract_code(
    experiment, system, bath_list, initial_state, section, environment, env_state, env_beta, coupling, times, taus
):
    assert run_config(experiment, system, bath_list, initial_state, section, environment, env_state, env_beta,
                      coupling, times, taus) in (0, 1, 2, 3, 4)


def run_config(experiment, system, bath_list, initial_state, section, environment, env_state, env_beta, coupling,
               times, taus):
    """The exit code of main on the config these arguments describe."""
    doc = {
        "system": {"hamiltonian": system},
        "baths": bath_list,
        "experiment": experiment,
        "evolve": {"initial_state": initial_state, "times": {"stop": 2.0, "count": 5}},
        section: {
            "environment": environment,
            "env_state": env_state,
            "env_beta": env_beta,
            "coupling": coupling,
            "initial_state": initial_state,
            "times": times,
            "taus": taus,
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return main([experiment, "--config", path, "--out", os.path.join(tmp, "out")])


def test_tau_scan_with_tau_zero_among_its_taus_exits_with_a_verdict():
    assert run_config(**TAU_ZERO_CONFIG) in (0, 1)
