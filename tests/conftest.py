import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from discflux import PiecewiseFlux, custom_flux, linear_flux, preset, quadratic_flux
from discflux.cli import convergence_report


@pytest.fixture(scope="session")
def experiment1_study():
    """Convergence report for the first reference study, with its wall time."""
    start = time.perf_counter()
    report = convergence_report(preset("experiment1"))
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def experiment2_study():
    start = time.perf_counter()
    report = convergence_report(preset("experiment2"))
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def three_interface_model():
    """Transport | Burgers | u + 0.1 sin u | concave -0.2 u^2/2 + 2u, interfaces at -0.5, 0, 0.5.

    Every law kind, including a custom one that the inversion solves
    iteratively, and a concave quadratic that is increasing on the data
    (0.5 to 2).
    """
    return PiecewiseFlux((-0.5, 0.0, 0.5), (
        linear_flux(1.0),
        quadratic_flux(1.0, interval=(0.05, 4.0)),
        custom_flux(lambda u: u + 0.1 * np.sin(u), lambda u: 1.0 + 0.1 * np.cos(u),
                    interval=(0.0, 4.0)),
        quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),
    ))
