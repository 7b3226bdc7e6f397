"""Output checks.  Each returns a list of (name, ok) pairs, one per
operation counted in ``attempted``.

References are computed here, apart from the program: closed-form laws
(reflection principle, OU moments, the erf pair law, the density oracle),
exact identities the construction must satisfy, or the CLI's own other
outputs.  Nothing is compared with a stored copy of earlier output.

Fault level.  A run is seeded, and one evaluation of this benchmark makes
about a hundred runs.  A statistical gate at alpha = 0.01 would therefore
flag a correct program in most evaluations, so a check counts as failed
only at the fault level: a Monte Carlo estimate more than Z_FAULT standard
errors from its exact value (or above its bound), or a family of
continuous p-values whose smallest is below ALPHA_FAULT (Bonferroni).  The
gate's own verdict is printed next to each check.  Permutation p-values
are floored at 1/(permutations + 1) = 0.005 and can never reach the fault
level, so they are printed but not counted.
"""

from __future__ import annotations

import math

Z_FAULT = 5.0
ALPHA_FAULT = 1e-6


def within(est: float, ref: float, se: float) -> bool:
    return abs(est - ref) <= Z_FAULT * se


def pvalue_family(prefix: str, pvalues) -> list:
    """Continuous p-values of one test family, Bonferroni at ALPHA_FAULT."""
    each = ALPHA_FAULT / max(len(pvalues), 1)
    return [(f"{prefix}[{i}]", p > each) for i, p in enumerate(pvalues)]


# ---------------------------------------------------------------------------
# shift-law


def shift_invariance(reports) -> list:
    """The per-query two-sample KS reports of test_shift_invariance (the
    joint energy reports are permutation tests and are only printed)."""
    ks = [r for r in reports if "_ks_" in r.name]
    return pvalue_family("shift_ks", [r.mc_std_error for r in ks])


def exact_reports(reports) -> list:
    """Zero-violation identity reports (cocycle, shift group)."""
    return [(r.name, r.statistic == 0 and r.replicas > 0) for r in reports]


# ---------------------------------------------------------------------------
# stopped-law


def pair_meeting_law(t: float, gap: float) -> float:
    """P(two independent standard Brownian motions gap apart have met by
    t) = 1 - erf(gap / (2 sqrt t)), by reflection of the gap process."""
    return 1.0 - math.erf(gap / (2.0 * math.sqrt(t)))


def stopped_sample(name: str, sample, cp_steps, dt: float, gap: float) -> list:
    """Stopped two-point paths, columns (x1, x2) per checkpoint then the
    meeting time.  Once met, both coordinates freeze at one value, so "met
    by checkpoint c" reads as equal coordinates there:

    * at each checkpoint the share met matches the reflection law within
      Z_FAULT standard errors;
    * equal coordinates at a checkpoint if and only if the recorded meeting
      step is at or before it (only "if" at the horizon, where the meeting
      time also stands for "never met").
    """
    n = len(sample)
    meet_step = [round(row[-1] / dt) for row in sample]
    out = []
    consistent = len(sample[0]) == 2 * len(cp_steps) + 1
    for c, k in enumerate(cp_steps):
        met = [row[2 * c] == row[2 * c + 1] for row in sample]
        p = pair_meeting_law(k * dt, gap)
        se = math.sqrt(p * (1.0 - p) / n)
        out.append((f"{name}_reflection_t{k * dt:g}",
                    within(sum(met) / n, p, se)))
        last = c == len(cp_steps) - 1
        for m, s in zip(met, meet_step):
            if (m and s > k) or (not m and s <= k and not last):
                consistent = False
    out.append((f"{name}_meeting_time_consistent", consistent))
    return out


# ---------------------------------------------------------------------------
# mc-laws


def no_meet_law(report, x: float, y: float, t: float, tol: float) -> list:
    """C3: no-meet frequency against erf((y-x)/(2 sqrt t)) within the gate
    tolerance (about 6.6 standard errors at 1e5 replicas)."""
    ref = math.erf((y - x) / (2.0 * math.sqrt(t)))
    return [("C3_erf_two_point_law", abs(report.statistic - ref) <= tol)]


def under_bound(name: str, report, bound: float) -> list:
    """C4/C5: estimate <= bound + Z_FAULT standard errors."""
    return [(name, report.statistic <= bound + Z_FAULT * report.mc_std_error)]


def ou_moments(sample, rate: float, sigma: float, x: float, t: float) -> list:
    """C7: sample mean and variance of the OU endpoint against the exact
    transition moments."""
    n = len(sample)
    mean = sum(sample) / n
    var = sum((v - mean) ** 2 for v in sample) / (n - 1)
    mean_ref = x * math.exp(-rate * t)
    var_ref = sigma * sigma * (1.0 - math.exp(-2.0 * rate * t)) / (2.0 * rate)
    return [("C7_ou_mean", within(mean, mean_ref, math.sqrt(var_ref / n))),
            ("C7_ou_variance",
             within(var, var_ref, var_ref * math.sqrt(2.0 / (n - 1))))]


def counterexample(reports) -> list:
    """C9: exact composition and distinguisher identity, uniform marginals
    (continuous KS p-values), decorrelated twin within Z_FAULT standard
    errors.  The two dcor independence tests are permutation tests."""
    by = {r.name: r for r in reports}
    out = [("C9_composition_exact",
            by["composition_identity"].statistic == 0),
           ("C9_psi_identical",
            by["distinguisher_psi_identical"].statistic
            == by["distinguisher_psi_identical"].reference)]
    marg = sorted(n for n in by if n.startswith("marginal_uniform"))
    out += pvalue_family("C9_marginal_uniform",
                         [by[n].mc_std_error for n in marg])
    dec = by["distinguisher_psi_tilde_decorrelated"]
    out.append(("C9_psi_tilde_decorrelated",
                dec.statistic <= Z_FAULT / math.sqrt(dec.replicas)))
    return out


def density_oracle(report, n_starts: int, duration: float) -> list:
    """Mean distinct clusters of a dense unit row against the pairwise
    survival oracle 1 + (n-1) erf(dx / (2 sqrt t))."""
    dx = 1.0 / n_starts
    oracle = 1.0 + (n_starts - 1) * math.erf(dx / (2.0 * math.sqrt(duration)))
    return [("cluster_density_oracle",
             within(report.statistic, oracle, report.mc_std_error))]


# ---------------------------------------------------------------------------
# harris-export


def export_rows(name: str, queries, rows, expected, traj, stride: int,
                dt: float) -> list:
    """One (name, ok) per query row of an export pass.

    queries: (s, x, t, group) in file order; group rows share (s, t) and are
    sorted by x.  rows: parsed output (value, trajectory id, status).
    expected: per row None (plain query), "above_range", or the exact value
    the row must reproduce (F1 composition).  traj: step -> set of
    (trajectory id, position) from simulate's trajectories.csv.
    """
    if len(rows) != len(queries):
        return [(f"{name}_row_count", False)]
    out = []
    prev = {}
    for (s, x, t, group), (value, tid, status), want in zip(queries, rows,
                                                            expected):
        if want == "above_range":
            out.append((name, status == "above_range"))
            continue
        ok = status == "ok"
        if ok and want is not None:
            ok = value == want
        if ok and group in prev:
            ok = value >= prev[group]          # F5: monotone in x
        if ok:
            prev[group] = value
            k = round(t / dt)
            if k % stride == 0:
                ok = (tid, value) in traj.get(k, ())
        out.append((name, ok))
    return out
