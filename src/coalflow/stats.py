"""Two-sample and independence tests used by the verification battery.

KS tests come from scipy; the multivariate energy-distance two-sample test
and the distance-correlation independence test are permutation tests over a
precomputed float32 pairwise distance matrix, since scipy has no
multivariate versions.  Neither gathers nor rescans a whole matrix per
permutation:

* energy: the observed split and every permuted split are the rows of one
  float32 membership-mask block, so one GEMM ``D @ masks.T`` gives every
  split's within-A row sums, and s_AA, s_AB and s_BB follow from them in
  float64;
* dcor: x's distance matrix is double-centred once, and since its row and
  column sums vanish, sum_ij A_ij B_{p_i p_j} equals sum_ij A_ij Dy_{p_i p_j}
  with y's raw distance matrix Dy.  Each permutation (and the observed
  statistic, at the identity) is scored over triangular row blocks: the
  rows p[lo:hi] and columns p[lo:] of Dy against A's upper triangle, so
  each permutation gathers about half of Dy, in cache-sized pieces.

Both draw one ``permutation`` per permuted statistic, in order, from the
generator of the given stream.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from .rng import RngStream

# rows per block of the dcor permutation scores
DCOR_BLOCK = 64


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
    N, n = combined.shape[0], a.shape[0]
    m = N - n
    D = _pairwise_block(combined, combined)
    # row 0 is the observed split, row k the k-th permuted one
    masks = np.zeros((permutations + 1, N), dtype=np.float32)
    masks[0, :n] = 1.0
    gen = rng.generator()
    for row in masks[1:]:
        row[gen.permutation(N)[:n]] = 1.0
    row_a = D @ masks.T                 # row_a[i, k]: sum of D[i, j] over j in A_k
    s_aa = np.einsum("ik,ki->k", row_a, masks, dtype=np.float64)
    s_ab = row_a.sum(axis=0, dtype=np.float64) - s_aa
    s_bb = D.sum(dtype=np.float64) - s_aa - 2.0 * s_ab
    energy = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    geq = int(np.count_nonzero(energy[1:] >= energy[0]))
    return float(energy[0]), (1.0 + geq) / (permutations + 1.0)


def _center(D: np.ndarray) -> np.ndarray:
    rm = D.mean(axis=1, keepdims=True)
    cm = D.mean(axis=0, keepdims=True)
    return D - rm - cm + D.mean()


def _dcor_setup(x: np.ndarray, y: np.ndarray):
    """(blocks, Dy, scale) for the distance correlation of x and y.

    Dy is y's float32 distance matrix.  blocks holds, for each run of
    DCOR_BLOCK rows [lo, hi), the float32 weights W = A[lo:hi, lo:] of x's
    double-centred distance matrix A, doubled off the diagonal block, so that
    _dcov_sum gives sum_ij A_ij Dy[p_i, p_j] from the upper triangle alone.
    scale = n^2 sqrt(dVar^2(x) dVar^2(y)) turns that sum into dCor^2.
    """
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    n = len(y)
    A = _center(_pairwise_block(x, x).astype(np.float64))
    Dy = _pairwise_block(y, y)
    B = _center(Dy.astype(np.float64))
    dvar = math.sqrt(max((A * A).mean() * (B * B).mean(), 1e-300))
    del B
    blocks = []
    for lo in range(0, n, DCOR_BLOCK):
        hi = min(lo + DCOR_BLOCK, n)
        W = 2.0 * A[lo:hi, lo:]
        W[:, :hi - lo] *= 0.5
        blocks.append((lo, hi, W.astype(np.float32)))
    return blocks, Dy, n * n * dvar


def _dcov_sum(blocks, Dy: np.ndarray, p: np.ndarray) -> float:
    """sum_ij A_ij Dy[p_i, p_j].  A is double-centred (zero row and column
    sums), so this equals the sum against y's centred distance matrix
    permuted by p."""
    total = 0.0
    for lo, hi, W in blocks:
        rows = Dy.take(p[lo:hi], axis=0).take(p[lo:], axis=1)
        total += float(np.vdot(W, rows))
    return total


def distance_correlation_test(x: np.ndarray, y: np.ndarray, rng: RngStream,
                              permutations: int = 199):
    """Permutation independence test on the distance correlation; returns
    (dcor, p_value)."""
    blocks, Dy, scale = _dcor_setup(x, y)
    n = len(Dy)
    obs = _dcov_sum(blocks, Dy, np.arange(n))
    gen = rng.generator()
    geq = sum(_dcov_sum(blocks, Dy, gen.permutation(n)) >= obs
              for _ in range(permutations))
    return math.sqrt(max(obs, 0.0) / scale), (1.0 + geq) / (permutations + 1.0)
