import math

import pytest

from alphatail import FamilyKind, FamilySpec, make_distribution, parse_spec


@pytest.fixture(scope="session")
def power2():
    return make_distribution(FamilySpec(FamilyKind.POWER, {"lambda": 2.0}))


@pytest.fixture(scope="session")
def geom2():
    return make_distribution(FamilySpec(FamilyKind.GEOMETRIC, {"a": 2.0}))


@pytest.fixture(scope="session")
def geom_e():
    return make_distribution(FamilySpec(FamilyKind.GEOMETRIC, {"a": math.e}))


@pytest.fixture(scope="session")
def uniform10():
    return make_distribution(FamilySpec(FamilyKind.FINITE, {"p": [0.1] * 10}))


@pytest.fixture(scope="session")
def uniform2():
    return make_distribution(FamilySpec(FamilyKind.FINITE, {"p": [0.5, 0.5]}))


@pytest.fixture(scope="session")
def congregated2():
    return make_distribution(parse_spec("congregated:base=(geometric:a=2)"))


@pytest.fixture(scope="session")
def pairavg2():
    return make_distribution(parse_spec("pairavg:base=(geometric:a=2)"))


@pytest.fixture(scope="session")
def diffusion14():
    return make_distribution(parse_spec("diffusion:stages=14"))


@pytest.fixture(scope="session")
def logpower2():
    return make_distribution(parse_spec("logpower:lambda=2,k0=2"))
