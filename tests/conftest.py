"""Shared fixtures.

The ignition profile is expensive to build (speed search, shooting and piece table), so
the standard theta=0.3 family is constructed once per session and reused.
"""

import json
import math

import pytest
from hypothesis import settings

from curvedfronts import (
    BarrierSet,
    auto_parameters,
    build_profile,
    make_combustion,
    symmetric_v,
)

# Property tests draw the same examples on every run and are not timed out
# per example, so Tier-1 results do not depend on the machine's load.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def nl03():
    return make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)


@pytest.fixture(scope="session")
def profile03(nl03):
    return build_profile(nl03)


@pytest.fixture(scope="session")
def cfg_v(profile03):
    # Symmetric two-wave V in the plane, opening angle pi/3 on each side.
    return symmetric_v(math.pi / 3, profile03.speed)


@pytest.fixture(scope="session")
def params03(cfg_v, profile03, nl03):
    return auto_parameters(cfg_v, profile03, nl03)


@pytest.fixture(scope="session")
def barriers03(cfg_v, profile03, nl03, params03):
    return BarrierSet(cfg_v, profile03, nl03, params03)


@pytest.fixture(scope="session")
def strict_loads():
    # json.loads that rejects NaN and Infinity, as strict JSON readers do
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return lambda text: json.loads(text, parse_constant=reject)
