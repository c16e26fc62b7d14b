"""Annulus certificates, dominance conditions, and root counters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import scalar_certificate_events
from heavyroots.localization import (
    associated_polynomial,
    check_matching_condition,
    check_product_criterion,
    count_annulus,
    count_sector,
    evaluate_certificate_events,
    max_dominates_sum,
    pellet_certify,
    product_condition,
    threshold_condition,
    threshold_logmag,
)
from heavyroots.roots import aberth_solve, polynomial
from heavyroots.sampler import (
    VARIANTS,
    CoefficientDistribution,
    CoefficientVector,
    sample_coefficients,
)
from heavyroots.xnum import (
    XONE,
    XReal,
    XZERO,
    from_float,
    xcomplex,
    xlogsumexp,
)
from heavyroots.xvec import as_arrays, from_arrays


def _vec(*coeffs, tau=None):
    lm, ph = as_arrays(coeffs)
    if tau is None:
        tau = int(np.argmax(lm))
    return CoefficientVector(lm, ph, tau, 0, 0)


def _poly(*coeffs):
    return polynomial(*as_arrays(coeffs))


def _poly_from_lms(lms, phases=None):
    ph = phases or [0.0] * len(lms)
    return _poly(*(xcomplex(l, p) for l, p in zip(lms, ph)))


def _log_moduli(*values):
    """A log-modulus array; None marks an exact zero."""
    return np.array([-math.inf if v is None else v for v in values])


# --- associated polynomial ------------------------------------------------------------


def test_associated_polynomial_negates_only_k():
    p = _poly(XONE, from_float(10.0), XONE)
    g = associated_polynomial(p, 1)
    assert g.ph.tolist() == [0.0, math.pi, 0.0]
    assert g.lm.tolist() == [0.0, math.log(10.0), 0.0]


def test_associated_polynomial_takes_moduli():
    p = _poly(xcomplex(2.0, -1.3), xcomplex(0.5, 3.0), xcomplex(1.0, 0.7))
    g = associated_polynomial(p, 1)
    assert g.lm.tolist() == [2.0, 0.5, 1.0]
    assert g.ph.tolist() == [0.0, math.pi, 0.0]


def test_associated_polynomial_keeps_zero_coefficients():
    p = _poly(XONE, XZERO, from_float(-2.0), XONE)
    g = associated_polynomial(p, 2)
    assert g.lm[1] == -math.inf and g.ph[1] == 0.0
    assert g.ph[2] == math.pi


def test_associated_polynomial_rejects_boundary_k():
    p = _poly(XONE, XONE, XONE)
    with pytest.raises(ValueError):
        associated_polynomial(p, 0)
    with pytest.raises(ValueError):
        associated_polynomial(p, 2)


# --- annulus certification ------------------------------------------------------------


def test_pellet_certificate_simple_quadratic():
    # z^2 + 10 z + 1: the associated polynomial z^2 - 10 z + 1 is negative
    # exactly on (5 - sqrt(24), 5 + sqrt(24)); the certified boundaries sit
    # strictly inside and the polynomial's own roots straddle the annulus.
    p = _poly(XONE, from_float(10.0), XONE)
    pc = pellet_certify(p, 1)
    assert pc is not None and pc.k == 1
    lo = math.log(5.0 - math.sqrt(24.0))
    hi = math.log(5.0 + math.sqrt(24.0))
    assert pc.r_logmag == pytest.approx(lo, abs=1e-6)
    assert pc.R_logmag == pytest.approx(hi, abs=1e-6)
    assert lo < pc.r_logmag < pc.R_logmag < hi

    rs = aberth_solve(p)
    assert np.count_nonzero(rs.lm < pc.r_logmag) == 1
    assert np.count_nonzero(rs.lm > pc.R_logmag) == 1
    assert count_annulus(rs, pc.r_logmag, pc.R_logmag) == 0


def test_pellet_no_certificate_for_balanced_quadratic():
    assert pellet_certify(_poly(XONE, XONE, XONE), 1) is None


def test_pellet_certificate_huge_middle_coefficient():
    p = _poly(XONE, xcomplex(100.0, 0.0), XONE)
    pc = pellet_certify(p, 1)
    assert pc is not None
    assert -100.0 < pc.r_logmag < -100.0 + 1e-6
    assert 100.0 - 1e-6 < pc.R_logmag < 100.0


def test_pellet_zero_pivot_coefficient_returns_none():
    p = _poly(XONE, XZERO, XONE, XONE)
    assert pellet_certify(p, 1) is None


def test_pellet_rejects_boundary_k():
    p = _poly(XONE, XONE, XONE)
    with pytest.raises(ValueError):
        pellet_certify(p, 0)
    with pytest.raises(ValueError):
        pellet_certify(p, 2)


def test_pellet_consistency_with_solver():
    # Whenever a certificate exists, the solved roots must split exactly
    # k inside / n-k outside, with the certified annulus empty.
    rng = np.random.default_rng(512)
    found = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        lms = rng.uniform(-30.0, 30.0, n + 1)
        k = int(rng.integers(1, n))
        lms[k] += rng.uniform(20.0, 120.0)
        phases = rng.uniform(-math.pi, math.pi, n + 1)
        p = _poly_from_lms(lms.tolist(), phases.tolist())
        pc = pellet_certify(p, k)
        if pc is None:
            continue
        found += 1
        rs = aberth_solve(p)
        assert rs.converged
        assert np.count_nonzero(rs.lm < pc.r_logmag) == k
        assert np.count_nonzero(rs.lm > pc.R_logmag) == n - k
        assert count_annulus(rs, pc.r_logmag, pc.R_logmag) == 0
    assert found >= 40


# --- matching condition ---------------------------------------------------------------


def test_matching_condition_rejects_all_ones():
    p = _poly(XONE, XONE, XONE, XONE)
    assert not check_matching_condition(p, 1, 0.5)
    assert not check_matching_condition(p, 2, 0.5)


def test_matching_condition_dominant_middle():
    p = _poly(xcomplex(-200.0, 0.0), xcomplex(200.0, 0.0), XONE)
    assert check_matching_condition(p, 1, 0.5)


def test_matching_condition_monotone_in_pivot_magnitude():
    seen_true = False
    for lm in [0.0, 5.0, 10.0, 20.0, 40.0, 80.0]:
        p = _poly(XONE, xcomplex(lm, 0.0), XONE)
        ok = check_matching_condition(p, 1, 0.5)
        if seen_true:
            assert ok
        seen_true = seen_true or ok
    assert seen_true


def test_matching_condition_requires_monic():
    p = _poly(XONE, from_float(10.0), from_float(2.0))
    with pytest.raises(ValueError):
        check_matching_condition(p, 1, 0.5)


def test_matching_condition_zero_pivot_is_false():
    p = _poly(XONE, XZERO, XONE, XONE)
    assert not check_matching_condition(p, 1, 0.5)


def test_matching_condition_validates_inputs():
    p = _poly(XONE, from_float(10.0), XONE)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            check_matching_condition(p, 1, eps)
    with pytest.raises(ValueError):
        check_matching_condition(p, 2, 0.5)


# --- product and threshold conditions ---------------------------------------------


def test_product_condition_boundary_255():
    # n=2, k=1, others (1, 0): the requirement is 8 log 2 <= log(1 + A),
    # which flips exactly at A = 255.
    assert product_condition(_log_moduli(0.0, math.log(255.1), None), 1)
    assert not product_condition(_log_moduli(0.0, math.log(254.9), None), 1)


def test_product_condition_trivial_when_others_vanish():
    assert product_condition(_log_moduli(None, None, None), 1)
    assert product_condition(_log_moduli(None, -50.0, None), 1)


def test_threshold_logmag_plug_in():
    # independent plug-in at n=2, eps=1/2:
    # log 2 + (16/7) log 2 + (32/7) log 2 + (32/7) log 2.5
    expected = (
        math.log(2.0)
        + (16.0 / 7.0) * math.log(2.0)
        + (32.0 / 7.0) * math.log(2.0)
        + (32.0 / 7.0) * math.log(2.5)
    )
    assert threshold_logmag(2, 0.5) == pytest.approx(expected, rel=1e-14)


def test_threshold_condition_flips_at_threshold():
    t = threshold_logmag(2, 0.5)
    assert threshold_condition(_log_moduli(None, t + 1e-9, None), 1, 0.5)
    assert not threshold_condition(_log_moduli(None, t - 1e-9, None), 1, 0.5)
    assert not threshold_condition(_log_moduli(None, None, None), 1, 0.5)


def test_product_criterion_validates_inputs():
    a = _log_moduli(None, 500.0, None)
    with pytest.raises(ValueError):
        check_product_criterion(a, 1, 0.0)
    with pytest.raises(ValueError):
        check_product_criterion(a, 0, 0.5)
    with pytest.raises(ValueError):
        check_product_criterion(a, 2, 0.5)


def test_product_criterion_fires_on_inflated_entry():
    assert check_product_criterion(_log_moduli(0.0, 500.0, None), 1, 0.5)
    assert not check_product_criterion(_log_moduli(0.0, 1.0, None), 1, 0.5)


def test_product_criterion_implies_conclusion_inequality():
    # Whenever the sufficient condition fires, the additive conclusion
    # sum_{j != k} a_j + 1 <= (1 - eps/n) (eps/(n+eps))^(n-k) a_k^(1/(n-k))
    # must hold; checked over randomized nonnegative vectors with one
    # inflated entry so both outcomes occur.
    rng = np.random.default_rng(1905)
    fired = 0
    for _ in range(800):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        eps = float(rng.uniform(0.05, 0.95))
        a = np.array([rng.uniform(-3.0, 3.0) for _ in range(n + 1)])
        scale = threshold_logmag(n, eps)
        a[k] = rng.uniform(0.0, 2.2 * scale)
        if not check_product_criterion(a, k, eps):
            continue
        fired += 1
        terms = [XReal(1, float(v)) for j, v in enumerate(a) if j != k]
        lhs = xlogsumexp(terms + [XReal(1, 0.0)])
        rhs = (
            math.log1p(-eps / n)
            + (n - k) * math.log(eps / (n + eps))
            + float(a[k]) / (n - k)
        )
        assert lhs.logmag <= rhs
    assert fired >= 50


# --- dominance of the top coefficient ---------------------------------------------


def test_max_dominates_simple_cases():
    c = _vec(XONE, from_float(100.0), XONE)
    assert max_dominates_sum(c, 1.0)
    ones = _vec(XONE, XONE, XONE, tau=1)
    assert not max_dominates_sum(ones, 1.0)
    huge = _vec(XONE, xcomplex(1000.0, 0.0), XONE)
    assert max_dominates_sum(huge, 500.0)
    assert not max_dominates_sum(huge, 1000.0)


def test_max_dominates_requires_positive_delta():
    c = _vec(XONE, from_float(100.0), XONE)
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError):
            max_dominates_sum(c, delta)


def test_max_dominates_when_others_vanish():
    c = _vec(XZERO, XONE, XZERO, tau=1)
    assert max_dominates_sum(c, 123.0)


def test_max_dominates_empty_annulus_mechanism():
    # When the top coefficient dominates at level delta, the solved roots
    # leave the band of logmag within [-delta/n, delta/n] empty.
    rng = np.random.default_rng(77)
    fired = 0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        lms = rng.uniform(-8.0, 8.0, n + 1)
        j = int(rng.integers(0, n + 1))
        lms[j] += rng.uniform(0.0, 30.0)
        phases = rng.uniform(-math.pi, math.pi, n + 1)
        c = _vec(*(xcomplex(float(l), float(p)) for l, p in zip(lms, phases)))
        delta = float(rng.uniform(0.5, 4.0))
        if not max_dominates_sum(c, delta):
            continue
        if c.tau in (0, c.degree):
            continue
        fired += 1
        rs = aberth_solve(polynomial(c.lm, c.ph))
        assert rs.converged
        assert count_annulus(rs, -delta / n, delta / n) == 0
    assert fired >= 25


# --- combined certificate events ---------------------------------------------------


def test_events_degenerate_extreme_argmax():
    lo = _vec(from_float(100.0), XONE, XONE, tau=0)
    ev = evaluate_certificate_events(lo, 0.5, 1.0)
    assert ev.degenerate
    assert not ev.product_dominates and not ev.threshold_met
    assert not ev.matching_bound_holds
    assert ev.max_dominates is True
    hi = _vec(XONE, XONE, from_float(100.0), tau=2)
    assert evaluate_certificate_events(hi, 0.5, 1.0).degenerate


def test_events_all_equal_moduli():
    ev = evaluate_certificate_events(_vec(XONE, XONE, XONE, tau=1), 0.5)
    assert not ev.degenerate
    assert not ev.product_dominates
    assert ev.max_dominates is None and ev.delta is None


def test_events_overwhelming_middle_coefficient():
    c = _vec(XONE, xcomplex(math.exp(20.0), 0.0), XONE)
    ev = evaluate_certificate_events(c, 0.5, 1.0)
    assert not ev.degenerate
    assert ev.product_dominates and ev.threshold_met
    assert ev.matching_bound_holds
    assert ev.max_dominates is True
    assert ev.epsilon == 0.5 and ev.delta == 1.0


def test_events_normalize_by_leading_coefficient():
    # scaling every coefficient by e^7 changes nothing: events are ratios
    base = _vec(XONE, xcomplex(math.exp(20.0), 0.0), XONE)
    lifted = _vec(
        xcomplex(7.0, 0.0), xcomplex(math.exp(20.0) + 7.0, 0.0), xcomplex(7.0, 0.0)
    )
    ev0 = evaluate_certificate_events(base, 0.5)
    ev1 = evaluate_certificate_events(lifted, 0.5)
    assert ev0.product_dominates == ev1.product_dominates
    assert ev0.threshold_met == ev1.threshold_met
    assert ev0.matching_bound_holds == ev1.matching_bound_holds


def test_events_validate_epsilon():
    c = _vec(XONE, from_float(10.0), XONE)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError):
            evaluate_certificate_events(c, eps)


def test_events_imply_matching_bound():
    # The certified pair (product dominance + threshold) must imply the
    # matching bound at k = tau on every nondegenerate draw.
    rng = np.random.default_rng(2024)
    fired = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        lms = rng.uniform(-5.0, 5.0, n + 1)
        k = int(rng.integers(1, n))
        eps = float(rng.uniform(0.1, 0.9))
        lms[k] += rng.uniform(0.0, 2.2 * threshold_logmag(n, eps))
        phases = rng.uniform(-math.pi, math.pi, n + 1)
        c = _vec(*(xcomplex(float(l), float(p)) for l, p in zip(lms, phases)))
        ev = evaluate_certificate_events(c, eps)
        if ev.degenerate or not (ev.product_dominates and ev.threshold_met):
            continue
        fired += 1
        assert ev.matching_bound_holds
    assert fired >= 50


# --- root counters --------------------------------------------------------------------


def _cube_roots_of_unity():
    from heavyroots.xnum import XMINUS_ONE

    return aberth_solve(_poly(XMINUS_ONE, XZERO, XZERO, XONE))


def test_count_annulus_cube_roots():
    rs = _cube_roots_of_unity()
    assert count_annulus(rs, -0.1, 0.1) == 3
    assert count_annulus(rs, -1e12, 1e12) == 3
    assert count_annulus(rs, 0.5, 1.0) == 0


def test_count_sector_cube_roots():
    rs = _cube_roots_of_unity()
    assert count_sector(rs, -math.pi / 2.0, math.pi / 2.0) == 1
    assert count_sector(rs, -math.pi, math.pi) == 3


def test_counters_on_two_scale_roots():
    # roots -e^{50} and -e^{-50}
    s = math.log(math.exp(50.0) + math.exp(-50.0))
    p = _poly(XONE, xcomplex(s, 0.0), XONE)
    rs = aberth_solve(p)
    assert count_annulus(rs, -1.0, 1.0) == 0
    assert count_annulus(rs, -60.0, 60.0) == 2
    assert count_sector(rs, math.pi - 1e-6, math.pi) == 2


def test_counters_validate_bounds():
    rs = _cube_roots_of_unity()
    with pytest.raises(ValueError):
        count_annulus(rs, 1.0, -1.0)
    with pytest.raises(ValueError):
        count_sector(rs, 1.0, 1.0)
    with pytest.raises(ValueError):
        count_sector(rs, -4.0, 0.0)
    with pytest.raises(ValueError):
        count_sector(rs, 0.0, 4.0)


# --- the array path against the scalar chain -------------------------------------


def _oracle_vectors():
    """Sampled vectors of every variant, plus edge inputs made on purpose:
    zero interior coefficients, tied maxima, tau = 0 and tau = n, and
    double-log vectors whose cap ties many draws at the maximum."""
    out = []
    for v, variant in enumerate(VARIANTS):
        dist = CoefficientDistribution(variant)
        for n in (5, 20, 50, 500):
            out += [sample_coefficients(dist, n, 100 * v + s) for s in range(6)]
    capped = CoefficientDistribution("double_log_slow_tail", beta=0.5, cap=8.0)
    out += [sample_coefficients(capped, n, s) for n in (10, 40) for s in range(6)]
    assert any(c.clamp_count > 1 for c in out)
    rng = np.random.default_rng(404)
    edges = []
    for c in out[::7]:
        lm, ph, n = c.lm.copy(), c.ph.copy(), c.degree
        holes = rng.random(n + 1) < 0.3
        holes[[0, n, c.tau]] = False
        lm[holes], ph[holes] = -math.inf, 0.0  # zero interior coefficients
        edges.append((lm, ph))
        top = float(c.lm.max())
        for j in (0, n):  # tau at an end
            raised = c.lm.copy()
            raised[j] = top + 1.0
            edges.append((raised, c.ph))
        tied = c.lm.copy()  # two interior maxima
        tied[[1, n - 1]] = top + 1.0
        edges.append((tied, c.ph))
    edges.append((np.zeros(7), np.zeros(7)))  # every modulus tied
    for lm, ph in edges:
        out.append(CoefficientVector(lm, ph, int(np.argmax(lm)), 0, 0))
    return out


def test_certificate_events_match_scalar_oracle():
    vecs = _oracle_vectors()
    taus = {c.tau for c in vecs}
    assert {0, 1} <= taus and any(c.tau == c.degree for c in vecs)
    for c in vecs:
        coeffs = from_arrays(c.lm, c.ph)
        for eps, delta in ((0.5, None), (0.5, 1.0), (0.1, 30.0)):
            want = scalar_certificate_events(coeffs, c.tau, eps, delta)
            assert evaluate_certificate_events(c, eps, delta) == want
