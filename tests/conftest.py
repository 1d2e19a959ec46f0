import pathlib

import pytest

from toriclg import parse_fan_file

FAN_DIR = pathlib.Path(__file__).resolve().parent.parent / "fans"

SUITE_NAMES = ("p1", "p2", "p1xp1", "hirzebruch1", "blowup_c2", "c_x_p1", "zero2")


def fan_text(name: str) -> str:
    return (FAN_DIR / f"{name}.json").read_text(encoding="utf-8")


def load_fan(name: str):
    return parse_fan_file(fan_text(name))[0]


def load_fan_and_polyhedron(name: str):
    return parse_fan_file(fan_text(name))


def cn_data(n: int) -> dict:
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return {"rank": n, "rays": rays, "max_cones": [list(range(1, n + 1))]}


@pytest.fixture(scope="session")
def suite():
    return {name: load_fan(name) for name in SUITE_NAMES}


@pytest.fixture(scope="session")
def p1():
    return load_fan("p1")


@pytest.fixture(scope="session")
def p2():
    return load_fan("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return load_fan("p1xp1")


@pytest.fixture(scope="session")
def hirzebruch():
    return load_fan("hirzebruch1")


@pytest.fixture(scope="session")
def blowup():
    return load_fan("blowup_c2")


@pytest.fixture(scope="session")
def cxp1():
    return load_fan("c_x_p1")


@pytest.fixture(scope="session")
def zero2():
    return load_fan("zero2")
