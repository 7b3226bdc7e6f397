import numpy as np
import pytest

from coalflow.rng import RngStream


def test_identical_address_identical_draws():
    a = RngStream(123, (1, 2, 3)).generator().random(256)
    b = RngStream(123, (1, 2, 3)).generator().random(256)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = RngStream(123, (0,)).generator().random(64)
    b = RngStream(123, (1,)).generator().random(64)
    assert not np.array_equal(a, b)


def test_child_extends_path():
    s = RngStream(5, (7,))
    assert s.child(3, 4).path == (7, 3, 4)
    assert s.child(3).child(4).path == (7, 3, 4)


def test_substream_cross_correlation_battery():
    k, n = 8, 20000
    draws = np.stack([RngStream(99, (2, i)).generator().standard_normal(n)
                      for i in range(k)])
    corr = np.corrcoef(draws)
    off = corr[~np.eye(k, dtype=bool)]
    assert np.max(np.abs(off)) < 4.5 / np.sqrt(n)


def test_seed_and_path_bounds():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, (2**40,))

