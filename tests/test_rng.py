import numpy as np
import pytest

from copaug import rng


def reference_permutation(n, gen):
    """Fisher-Yates over a numpy index array, one swap target per uniform."""
    idx = np.arange(n)
    u = gen.random(max(n - 1, 0))
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 128, 11000])
@pytest.mark.parametrize("seed", [0, 1, 11, 2**63 + 5])
def test_permutation_matches_reference_fisher_yates(n, seed):
    expected = reference_permutation(n, rng.stream(seed))
    got = rng.permutation(n, seed)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


def test_permutation_consumes_the_generator_like_the_reference():
    a, b = rng.stream(7), rng.stream(7)
    for n in (5, 300, 1):
        np.testing.assert_array_equal(rng.permutation(n, a), reference_permutation(n, b))
    assert a.random() == b.random()
