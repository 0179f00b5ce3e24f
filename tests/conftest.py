import numpy as np
import pytest

from thermolindblad import ThermoSpec, build_restricted_generator, dynamics, presets


@pytest.fixture(autouse=True)
def no_kept_split():
    """Every test starts with no split kept of a bare array."""
    dynamics._kept.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def qubit_generator():
    spec = ThermoSpec(hamiltonian=presets.qubit(1.0), beta=1.0, downward_rates={(0, 1): 1.0})
    return build_restricted_generator(spec)


@pytest.fixture
def qutrit_generator():
    spec = ThermoSpec(
        hamiltonian=presets.qutrit(0.0, 1.0, 3.0),
        beta=1.0,
        downward_rates={(0, 1): 1.0, (0, 2): 0.5, (1, 2): 0.8},
    )
    return build_restricted_generator(spec)
