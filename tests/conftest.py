import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pilotforge as pf
from pilotforge.ambiguity import SidelobeRegion
from pilotforge.optimizer import EdaConfig, run_eda
from pilotforge.resolution import SrlSearch

OFFLINE_NOISE = 0.1778
FS = 120e3


@pytest.fixture(scope="session")
def layout_single():
    return pf.BandLayout.single(256, FS, 3.5e9)


@pytest.fixture(scope="session")
def layout_multi():
    return pf.BandLayout.multiband(
        [pf.Subband(3.5e9, FS, 127), pf.Subband(3.9e9, FS, 127)])


@pytest.fixture(scope="session")
def default_region():
    # two full-band main-lobe widths up to half the unambiguous delay range
    return SidelobeRegion(65.1e-9, 4.1666667e-6)


@pytest.fixture(scope="session")
def calibration_region():
    # the narrow window that reproduces the reference absolute ISL levels
    return SidelobeRegion(200e-9, 400e-9)


@pytest.fixture(scope="session")
def eda_single_paper(layout_single, default_region):
    """Paper-scale single-band EDA run shared by the acceptance tests."""
    cfg = EdaConfig(budgets=(128, 128), region=default_region,
                    population=400, elite=200, iterations=60, seed=1)
    return cfg, run_eda(layout_single, cfg)


@pytest.fixture(scope="session")
def eda_multi_paper(layout_multi, default_region):
    """Paper-scale multiband EDA run shared by the acceptance tests."""
    cfg = EdaConfig(budgets=(127, 127), region=default_region,
                    population=400, elite=200, iterations=60, seed=1)
    return cfg, run_eda(layout_multi, cfg)


@pytest.fixture(scope="session")
def toy_search():
    # small toy bands resolve far worse than the default 50 ns window
    return SrlSearch(tau_lo_s=0.05e-9, tau_hi_s=400e-9, step_s=0.05e-9, tol_s=1e-13)


def user_responses(layout, delays, gains):
    """(G, Z, N) channel responses of (G, Z, P) path arrays, one user at a time,
    as ``run_extrapolation_sim`` computes its truth."""
    return np.array([[pf.channel_frequency_response(layout, d, a) for d, a in zip(d_g, a_g)]
                     for d_g, a_g in zip(delays, gains)])
