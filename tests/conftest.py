import numpy as np
import pytest

import zetamoments as zm


@pytest.fixture(scope="session")
def tau_1e5():
    return zm.tau_table(10**5)


@pytest.fixture(scope="session")
def atilde_1e5(tau_1e5):
    return zm.normalize(tau_1e5)


@pytest.fixture(scope="session")
def atilde_16e4():
    return zm.normalize(zm.tau_table(160000))


@pytest.fixture(scope="session")
def rankin_16e4(atilde_16e4):
    return zm.rankin_c(atilde_16e4)


@pytest.fixture(scope="session")
def d2_1e6():
    return zm.sieve_dk(2, 10**6)


@pytest.fixture(scope="session")
def gammas():
    return zm.stieltjes_constants(8)


@pytest.fixture(scope="session")
def ones_2e5():
    return zm.sieve_dk(1, 2 * 10**5)


def brute_divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def brute_dk(k: int, n: int) -> int:
    """Ordered k-factorizations of n by recursion (independent oracle)."""
    if k == 1:
        return 1
    return sum(brute_dk(k - 1, n // d) for d in range(1, n + 1) if n % d == 0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
