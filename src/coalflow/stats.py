"""Two-sample and independence tests used by the verification battery.

KS tests come from scipy; the multivariate energy-distance two-sample test
and the distance-correlation independence test are permutation tests over a
precomputed pairwise distance matrix (float32, blockwise) since scipy has no
multivariate versions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from .rng import RngStream


def ks_two_sample(a: np.ndarray, b: np.ndarray):
    res = sps.ks_2samp(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return float(res.statistic), float(res.pvalue)


def ks_against_normal(x: np.ndarray, mean: float, sd: float):
    res = sps.kstest(np.asarray(x, dtype=float), "norm", args=(mean, sd))
    return float(res.statistic), float(res.pvalue)


def ks_against_uniform(x: np.ndarray, lo: float = 0.0, hi: float = 1.0):
    res = sps.kstest(np.asarray(x, dtype=float), "uniform",
                     args=(lo, hi - lo))
    return float(res.statistic), float(res.pvalue)


def _pairwise_block(a: np.ndarray, b: np.ndarray, block: int = 2048) -> np.ndarray:
    """Euclidean distance matrix in float32, built in row blocks."""
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m), dtype=np.float32)
    bb = b.astype(np.float64)
    bsq = np.einsum("ij,ij->i", bb, bb)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        aa = a[lo:hi].astype(np.float64)
        asq = np.einsum("ij,ij->i", aa, aa)
        g = asq[:, None] + bsq[None, :] - 2.0 * (aa @ bb.T)
        np.maximum(g, 0.0, out=g)
        out[lo:hi] = np.sqrt(g, dtype=np.float64).astype(np.float32)
    return out


def _energy_from_sums(D: np.ndarray, mask_a: np.ndarray, total: float) -> float:
    """Energy statistic 2 E|X-Y| - E|X-X'| - E|Y-Y'| from a combined distance
    matrix, its total float(D.sum()) and a boolean first-sample membership
    mask."""
    n = int(mask_a.sum())
    m = mask_a.size - n
    row_a = D @ mask_a.astype(np.float32)         # sum over columns in A
    s_aa = float(row_a[mask_a].sum())
    s_ab = float(row_a[~mask_a].sum())
    s_bb = total - s_aa - 2.0 * s_ab
    return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)


def energy_two_sample(a: np.ndarray, b: np.ndarray, rng: RngStream,
                      permutations: int = 199):
    """Permutation two-sample energy test; returns (statistic, p_value).

    Consistent against all alternatives; the permutation null sidesteps the
    statistic's unknown distribution.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    combined = np.vstack([a, b])
    n = a.shape[0]
    D = _pairwise_block(combined, combined)
    mask = np.zeros(combined.shape[0], dtype=bool)
    mask[:n] = True
    total = float(D.sum())
    observed = _energy_from_sums(D, mask, total)
    gen = rng.generator()
    geq = 0
    for _ in range(permutations):
        perm = gen.permutation(combined.shape[0])
        pm = np.zeros_like(mask)
        pm[perm[:n]] = True
        if _energy_from_sums(D, pm, total) >= observed:
            geq += 1
    pvalue = (1.0 + geq) / (permutations + 1.0)
    return observed, pvalue


def _center(D: np.ndarray) -> np.ndarray:
    rm = D.mean(axis=1, keepdims=True)
    cm = D.mean(axis=0, keepdims=True)
    return D - rm - cm + D.mean()


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    A = _center(_pairwise_block(x, x).astype(np.float64))
    B = _center(_pairwise_block(y, y).astype(np.float64))
    dcov2 = (A * B).mean()
    dvar_x = (A * A).mean()
    dvar_y = (B * B).mean()
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    return float(math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_x * dvar_y)))


def distance_correlation_test(x: np.ndarray, y: np.ndarray, rng: RngStream,
                              permutations: int = 199):
    """Permutation independence test on the distance correlation; returns
    (dcor, p_value)."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    A = _center(_pairwise_block(x, x).astype(np.float64))
    B = _center(_pairwise_block(y, y).astype(np.float64))
    dvar = math.sqrt(max((A * A).mean() * (B * B).mean(), 1e-300))
    obs = (A * B).mean() / dvar
    gen = rng.generator()
    geq = 0
    for _ in range(permutations):
        perm = gen.permutation(len(y))
        if (A * B[np.ix_(perm, perm)]).mean() / dvar >= obs:
            geq += 1
    pvalue = (1.0 + geq) / (permutations + 1.0)
    return float(max(obs, 0.0) ** 0.5 if obs > 0 else 0.0), pvalue
