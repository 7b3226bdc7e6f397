import math
from fractions import Fraction

import numpy as np
import pytest

from coalflow.errors import AboveRange
from coalflow.flows import (AnalyticFlow, AxiomPlan, ConstantFlow, EvalQuery,
                            FlowElement, analytic_flow_element,
                            characterize_lt, check_flow_axioms, cocycle,
                            evaluate, find_lt_witness, is_fresh, range_at,
                            shift, skeleton_flow_element)
from coalflow.motions import DiffusionSpec
from coalflow.rng import RngStream
from coalflow.skeleton import SkeletonConfig, build_skeleton


@pytest.fixture(scope="module")
def skel_flow():
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=0.75,
                              dt=1e-3, model=DiffusionSpec.arratia(),
                              row_period=0.025)
    return skeleton_flow_element(build_skeleton(cfg, RngStream(21, (0,))))


# ---------------------------------------------------------------------------
# analytic backend


def test_analytic_identity_at_equal_times():
    f = analytic_flow_element()
    for x in (0.0, 0.3, -1.7, 2.25):
        assert evaluate(f, EvalQuery(0.5, x, 0.5)) == Fraction(x)


def test_analytic_example_value():
    f = analytic_flow_element()
    assert evaluate(f, EvalQuery(0.0, 0.0, 1.0)) == Fraction(1, 2)
    assert cocycle(1.0, f, 0.0) == Fraction(1, 2)


def test_analytic_integer_translation_symmetry():
    f = analytic_flow_element()
    for (s, x, t) in ((0.0, 0.25, 1.0), (0.5, -0.75, 2.0), (1.0, 1.5, 3.5)):
        assert evaluate(f, EvalQuery(s, x + 1, t)) == \
            evaluate(f, EvalQuery(s, x, t)) + 1


def test_analytic_range_excludes_integers():
    f = analytic_flow_element()
    vals = range_at(f, 0.3)
    assert not np.any(vals == np.round(vals))
    assert is_fresh(f, 0.3, 1.0)
    assert not is_fresh(f, 0.3, 0.5 + 1.0 / 64)


def test_analytic_cocycle_exact_zero_tolerance():
    f = analytic_flow_element()
    gen = RngStream(3, (0,)).generator()
    for _ in range(500):
        s = Fraction(int(gen.integers(0, 512)), 512)
        t = Fraction(int(gen.integers(0, 512)), 512)
        x = Fraction(int(gen.integers(-2048, 2048)), 1024)
        lhs = cocycle(float(t + s), f, x)
        rhs = cocycle(float(t), shift(f, float(s)), cocycle(float(s), f, x))
        assert lhs == rhs


def test_shift_group_law_exact():
    f = analytic_flow_element()
    q = EvalQuery(0.25, 0.3, 1.0)
    assert evaluate(shift(f, 0.0), q) == evaluate(f, q)
    assert evaluate(shift(shift(f, 0.125), 0.25), q) == \
        evaluate(shift(f, 0.375), q)
    assert evaluate(shift(f, 0.5), q) == evaluate(f, EvalQuery(0.75, 0.3, 1.5))


# ---------------------------------------------------------------------------
# skeleton envelope backend


def test_envelope_ties_continue_the_skeleton(skel_flow):
    skel = skel_flow.backend.skeleton
    pts = skel.positions_at(0.25)
    tid, pos = pts[len(pts) // 2]
    v = evaluate(skel_flow, EvalQuery(0.25, pos, 0.5))
    assert v == skel.value(tid, skel.snap_index(0.5))


def test_envelope_below_range_takes_lowest(skel_flow):
    skel = skel_flow.backend.skeleton
    pts = skel.positions_at(0.25)
    lowest_id, lowest = pts[0]
    v = evaluate(skel_flow, EvalQuery(0.25, lowest - 5.0, 0.5))
    assert v == skel.value(lowest_id, skel.snap_index(0.5))


def test_envelope_above_range_raises(skel_flow):
    with pytest.raises(AboveRange):
        evaluate(skel_flow, EvalQuery(0.25, 50.0, 0.5))


def test_skeleton_cocycle_exact(skel_flow):
    gen = RngStream(3, (1,)).generator()
    checked = 0
    for _ in range(300):
        s = round(float(gen.integers(0, 300)) * 1e-3, 3)
        t = round(float(gen.integers(0, 300)) * 1e-3, 3)
        x = float(gen.uniform(0.05, 0.8))
        lhs = cocycle(t + s, skel_flow, x)
        rhs = cocycle(t, shift(skel_flow, s), cocycle(s, skel_flow, x))
        assert lhs == rhs
        checked += 1
    assert checked == 300


def test_skeleton_shift_commutes_exactly(skel_flow):
    q = EvalQuery(0.25, 0.4, 0.5)
    assert evaluate(shift(skel_flow, 0.125), q) == \
        evaluate(skel_flow, EvalQuery(0.375, 0.4, 0.625))


def test_range_at_strictly_before(skel_flow):
    # at the very first grid time nothing started strictly earlier
    assert range_at(skel_flow, 0.0).size == 0
    assert range_at(skel_flow, 0.25).size > 0


# ---------------------------------------------------------------------------
# axiom battery


def test_axioms_pass_on_analytic():
    reports = check_flow_axioms(analytic_flow_element(), RngStream(5, (0,)),
                                AxiomPlan(n_composition=400, n_monotone=400,
                                          n_f4_points=60))
    assert all(r.passed for r in reports), [
        (r.name, r.statistic) for r in reports if not r.passed]


def test_axioms_pass_on_skeleton():
    cfg = SkeletonConfig.rows(window=(0.0, 1.0), dx=1.0 / 32, t0=0.0, t1=0.6,
                              dt=1e-3, model=DiffusionSpec.arratia())
    f = skeleton_flow_element(build_skeleton(cfg, RngStream(23, (0,))))
    reports = check_flow_axioms(f, RngStream(23, (1,)),
                                AxiomPlan(n_composition=400, n_monotone=400,
                                          n_f4_points=60, s_hi=0.5))
    assert all(r.passed for r in reports), [
        (r.name, r.statistic, r.reference) for r in reports if not r.passed]


def test_constant_flow_fails_f4_only():
    reports = check_flow_axioms(FlowElement(ConstantFlow()),
                                RngStream(5, (1,)),
                                AxiomPlan(n_composition=100, n_monotone=100,
                                          n_f4_points=30))
    by = {r.name: r for r in reports}
    assert not by["F4_fresh_origin"].passed
    assert by["F1_composition"].passed
    assert by["F5_monotone"].passed


# ---------------------------------------------------------------------------
# measurability characterization


def test_characterize_soundness_and_completeness_analytic():
    f = analytic_flow_element()
    q = EvalQuery(0.5, 0.3, 1.0)
    v = evaluate(f, q)
    assert not characterize_lt(f, q, float(v))
    assert not characterize_lt(f, q, float(v) - 0.5)
    w = find_lt_witness(f, q, float(v) + 1.0)
    assert w is not None
    p, u = w
    assert p < q.s
    assert evaluate(f, EvalQuery(p, u, q.s)) >= Fraction(q.x)
    assert evaluate(f, EvalQuery(p, u, q.t)) < Fraction(v) + 1


def test_characterize_fresh_born_at_s_analytic():
    f = analytic_flow_element()
    q = EvalQuery(0.5, 1.0, 1.0)  # integer start: trajectory born at s
    v = evaluate(f, q)
    w = find_lt_witness(f, q, float(v) + 0.25)
    assert w is not None
    p, u = w
    assert p < q.s
    assert evaluate(f, EvalQuery(p, u, q.s)) >= Fraction(1)
    assert evaluate(f, EvalQuery(p, u, q.t)) < Fraction(v) + Fraction(1, 4)


def test_characterize_agrees_with_evaluate_off_rows(skel_flow):
    # query times strictly between start rows: every cluster at s predates s,
    # so the witness relation must agree with evaluate(f,q) < c exactly
    gen = RngStream(5, (2,)).generator()
    agree = 0
    total = 0
    for _ in range(60):
        s = 0.025 * int(gen.integers(1, 20)) + 0.013
        t = s + 0.2
        x = float(gen.uniform(0.1, 0.8))
        q = EvalQuery(round(s, 3), x, round(t, 3))
        v = float(evaluate(skel_flow, q))
        for c in (v - 0.1, v, v + 0.1, v + 1.0, math.inf):
            total += 1
            agree += characterize_lt(skel_flow, q, c) == (v < c)
    assert agree == total


def test_characterize_infinity_sentinel(skel_flow):
    q = EvalQuery(0.262, -3.0, 0.5)
    assert characterize_lt(skel_flow, q, math.inf)
