from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

# Three rows in R^2: two axes and their diagonal. Small enough that every
# quantity below is checkable by hand, rich enough to exercise everything.
REFERENCE_A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
REFERENCE_X_STAR = np.array([1.0, 1.0])
REFERENCE_B = np.array([1.0, 1.0, 2.0])


def exact_esp(values, n_max: int) -> list[Fraction]:
    """e_0..e_{n_max} of the doubles in values, exactly (oracle).

    Every double is an integer over a power of two, so the recursion runs on
    integers over a common denominator.
    """
    fracs = [Fraction(float(v)) for v in values]
    den = max((f.denominator for f in fracs), default=1)
    e = [1] + [0] * n_max
    for f in fracs:
        v = f.numerator * (den // f.denominator)
        for k in range(n_max, 0, -1):
            e[k] += v * e[k - 1]
    return [Fraction(ek, den**k) for k, ek in enumerate(e)]


def exact_hats(sigma_sq, j: int, n_max: int) -> list[Fraction]:
    """sigma_j^2 e_{n-1}(sigma^2 without j) for n = 1..n_max, exactly."""
    others = np.delete(np.asarray(sigma_sq, dtype=np.float64), j)
    return [Fraction(float(sigma_sq[j])) * ek for ek in exact_esp(others, n_max - 1)]


def rel_err(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(float(got)) - exact) / exact)


@pytest.fixture
def reference_A():
    return REFERENCE_A.copy()


@pytest.fixture
def reference_system():
    from kacz import make_linear_system

    return make_linear_system(REFERENCE_A, x_star=REFERENCE_X_STAR)
