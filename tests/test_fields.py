import numpy as np
import pytest

from vfindex.fields import (CallableField, central_difference,
                            random_polynomial_field)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_central_difference_matches_exact_jacobians(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        v = random_polynomial_field(rng, n, 3)
        x = rng.uniform(-1.5, 1.5, size=(16, n))
        exact = v.jacobian(x)
        got = central_difference(v.value, x)
        assert got.shape == (16, n, n)
        assert np.max(np.abs(got - exact)) < 1e-6
        # a callable field without jac= differentiates the same way
        assert np.max(np.abs(CallableField(n, v.value).jacobian(x)
                             - exact)) < 1e-6


def test_central_difference_of_a_complex_scalar_map():
    # q = (x1 + i x2)^2 + x3, with gradient (2w, 2iw, 1) for w = x1 + i x2
    def q(x):
        return (x[:, 0] + 1j * x[:, 1]) ** 2 + x[:, 2]

    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(8, 3))
    w = x[:, 0] + 1j * x[:, 1]
    exact = np.stack([2 * w, 2j * w, np.ones(8)], axis=-1)
    got = central_difference(q, x, 1e-4)
    assert got.shape == (8, 3)
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - exact)) < 1e-6
