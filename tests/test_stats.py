import math

import numpy as np
import pytest

from coalflow.rng import RngStream
from coalflow.stats import (_center, _pairwise_block,
                            distance_correlation_test, energy_two_sample,
                            ks_against_normal, ks_against_uniform,
                            ks_two_sample)


def test_ks_wrappers():
    gen = RngStream(1, (0,)).generator()
    x = gen.standard_normal(4000)
    _, p = ks_against_normal(x, 0.0, 1.0)
    assert p > 0.01
    _, p = ks_against_normal(x + 0.5, 0.0, 1.0)
    assert p < 1e-6
    u = gen.random(4000)
    _, p = ks_against_uniform(u)
    assert p > 0.01
    _, p = ks_two_sample(x, gen.standard_normal(4000))
    assert p > 0.01


def test_energy_two_sample_null_and_alternative():
    gen = RngStream(2, (0,)).generator()
    a = gen.standard_normal((1500, 3))
    b = gen.standard_normal((1500, 3))
    _, p_null = energy_two_sample(a, b, RngStream(2, (1,)), permutations=99)
    assert p_null > 0.01
    c = gen.standard_normal((1500, 3)) + 0.25
    _, p_alt = energy_two_sample(a, c, RngStream(2, (2,)), permutations=99)
    assert p_alt <= 0.01


def test_energy_accepts_1d_inputs():
    gen = RngStream(2, (3,)).generator()
    _, p = energy_two_sample(gen.standard_normal(800),
                             gen.standard_normal(800),
                             RngStream(2, (4,)), permutations=99)
    assert p > 0.01


def test_distance_correlation_independent_vs_dependent():
    gen = RngStream(3, (0,)).generator()
    x = gen.standard_normal(1200)
    y = gen.standard_normal(1200)
    _, p_ind = distance_correlation_test(x, y, RngStream(3, (1,)),
                                         permutations=99)
    assert p_ind > 0.01
    z = x ** 2 + 0.3 * gen.standard_normal(1200)  # nonlinear dependence
    dcor, p_dep = distance_correlation_test(x, z, RngStream(3, (2,)),
                                            permutations=99)
    assert dcor > 0.2
    assert p_dep <= 0.01


# Reference loops: one statistic per permutation, drawn in the same order
# from the same stream, on the same float32 distance matrix but in float64.

def _energy_reference(a, b, rng, permutations):
    """Boolean membership mask and one matvec per permutation."""
    combined = np.vstack([a.reshape(len(a), -1), b.reshape(len(b), -1)])
    D = _pairwise_block(combined, combined).astype(np.float64)
    N, n = len(combined), len(a)
    m = N - n
    total = D.sum()

    def stat(mask):
        row_a = D @ mask
        s_aa = row_a[mask].sum()
        s_ab = row_a[~mask].sum()
        s_bb = total - s_aa - 2.0 * s_ab
        return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)

    observed = stat(np.arange(N) < n)
    gen = rng.generator()
    geq = 0
    for _ in range(permutations):
        mask = np.zeros(N, dtype=bool)
        mask[gen.permutation(N)[:n]] = True
        geq += stat(mask) >= observed
    return observed, (1.0 + geq) / (permutations + 1.0)


def _dcor_reference(x, y, rng, permutations):
    """Centred matrices in float64 and an np.ix_ gather per permutation."""
    x, y = x.reshape(len(x), -1), y.reshape(len(y), -1)
    A = _center(_pairwise_block(x, x).astype(np.float64))
    B = _center(_pairwise_block(y, y).astype(np.float64))
    dvar = math.sqrt(max((A * A).mean() * (B * B).mean(), 1e-300))
    obs = (A * B).mean() / dvar
    gen = rng.generator()
    geq = 0
    for _ in range(permutations):
        perm = gen.permutation(len(y))
        geq += (A * B[np.ix_(perm, perm)]).mean() / dvar >= obs
    return math.sqrt(max(obs, 0.0)), (1.0 + geq) / (permutations + 1.0)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("N", [30, 150, 1000])
def test_energy_equals_reference_loop(N, dim):
    gen = RngStream(4, (N, dim)).generator()
    a = gen.standard_normal((N, dim))
    b = (1.0 + 1.5 / math.sqrt(N)) * gen.standard_normal((N + 7, dim))
    if dim == 1:
        a, b = a[:, 0], b[:, 0]
    stat, p = energy_two_sample(a, b, RngStream(4, (1,)), permutations=99)
    ref_stat, ref_p = _energy_reference(a, b, RngStream(4, (1,)), 99)
    assert p == ref_p
    assert abs(stat - ref_stat) <= 1e-5 * abs(ref_stat)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("N", [30, 150, 1000])
def test_dcor_equals_reference_loop(N, dim):
    gen = RngStream(5, (N, dim)).generator()
    x = gen.standard_normal((N, 2))
    y = gen.standard_normal((N, dim)) + 1.5 / math.sqrt(N) * x[:, :1] ** 2
    if dim == 1:
        y = y[:, 0]
    stat, p = distance_correlation_test(x, y, RngStream(5, (1,)),
                                        permutations=99)
    ref_stat, ref_p = _dcor_reference(x, y, RngStream(5, (1,)), 99)
    assert p == ref_p
    assert abs(stat - ref_stat) <= 1e-5 * ref_stat
