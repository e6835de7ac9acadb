import numpy as np
import pytest

from mixedsums import build_field


@pytest.fixture(scope="session")
def f5():
    return build_field(5, 1)


@pytest.fixture(scope="session")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def f13():
    return build_field(13, 1)


@pytest.fixture(scope="session")
def f17():
    return build_field(17, 1)


@pytest.fixture(scope="session")
def f25():
    return build_field(5, 2)


def assert_matches(got, expect):
    """got has the shape of expect and matches it to within
    1e-9 * (1 + |expect|) at every entry: stricter than the harness policy
    at tol = 1e-8.  A NaN or inf never matches."""
    got, expect = np.asarray(got), np.asarray(expect, dtype=complex)
    assert got.shape == expect.shape
    assert np.all(np.abs(got - expect) <= 1e-9 * (1 + np.abs(expect)))
