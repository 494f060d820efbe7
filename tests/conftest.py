import time
from dataclasses import dataclass

import pytest

import orthowall as ow
from orthowall import verify


@dataclass
class Timed:
    value: object
    seconds: float


@pytest.fixture(scope="session")
def p15():
    return ow.derive_params(0.1, 1.5)


@pytest.fixture(scope="session")
def profile15(p15):
    t0 = time.perf_counter()
    prof = ow.heteroclinic_solve(p15)
    return Timed(prof, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def sweep15():
    t0 = time.perf_counter()
    fit = verify.scaling_sweep(1.5, [0.2, 0.1, 0.05, 0.025])
    return Timed(fit, time.perf_counter() - t0)
