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



@pytest.mark.parametrize("seed, path", [
    (1, (25.0,)), (1, (True,)), (1, (0, "3")), (1.0, ()), (False, (2,))])
def test_non_integer_seed_or_path_rejected_at_construction(seed, path):
    with pytest.raises(TypeError):
        RngStream(seed, path)


@pytest.mark.parametrize("index", [25.0, True, np.float64(2.0), "3"])
def test_non_integer_child_index_rejected(index):
    with pytest.raises(TypeError):
        RngStream(1, (2,)).child(index)


def test_numpy_integer_path_entries_are_plain_ints():
    s = RngStream(np.uint64(123), (np.int64(4), np.uint32(5)))
    assert s == RngStream(123, (4, 5)) and s.child(np.int32(6)).path == (4, 5, 6)
    assert all(type(p) is int for p in s.child(np.int32(6)).path)
    assert np.array_equal(s.generator().random(8),
                          RngStream(123, (4, 5)).generator().random(8))
