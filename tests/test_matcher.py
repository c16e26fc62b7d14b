"""Root enumeration: relative distances and bottleneck assignment."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from oracles import brute_bottleneck, dp_bottleneck, search_bottleneck
from heavyroots.matcher import (
    MatchResult,
    _perfect_matching_under,
    bottleneck_assignment,
    greedy_assignment,
    match_roots,
    relative_distance,
)
from heavyroots.roots import (
    PredictedRoots,
    RootSet,
    aberth_solve,
    polynomial,
    predicted_roots,
)
from heavyroots.sampler import CoefficientVector
from heavyroots.xnum import XONE, from_complex, xcomplex


def _rootset(roots):
    return RootSet(tuple(roots), tuple(0.0 for _ in roots), True)


def _unit_circle(n, offset=0.0):
    return [xcomplex(0.0, offset + 2.0 * math.pi * k / n) for k in range(n)]


# --- relative distance ---------------------------------------------------------------


def test_relative_distance_identity_and_doubling():
    z = xcomplex(3.7, 1.2)
    assert relative_distance(z, z) == 0.0
    two_z = xcomplex(3.7 + math.log(2.0), 1.2)
    assert relative_distance(two_z, z) == pytest.approx(1.0, rel=1e-12)


def test_relative_distance_tiny_perturbation():
    w = xcomplex(-50.0, math.pi)
    z = xcomplex(-50.0 + math.log1p(1e-6), math.pi)
    assert relative_distance(z, w) == pytest.approx(1e-6, rel=1e-3)


def test_relative_distance_zero_numerator_and_overflow():
    w = xcomplex(2.0, 0.1)
    assert relative_distance(from_complex(0j), w) == 1.0
    assert relative_distance(xcomplex(1e300, 0.0), xcomplex(-1e300, 0.0)) == math.inf


def test_relative_distance_rejects_zero_target():
    with pytest.raises(ZeroDivisionError):
        relative_distance(XONE, from_complex(0j))


# --- assignment kernels ---------------------------------------------------------------


def test_greedy_falls_into_trap_bottleneck_escapes():
    dist = np.array([[1.0, 2.0], [1.0, 100.0]])
    _, greedy_worst = greedy_assignment(dist)
    assert greedy_worst == 100.0
    perm, worst = bottleneck_assignment(dist)
    assert worst == 2.0
    assert sorted(perm.tolist()) == [0, 1]


def test_bottleneck_matches_dp_oracle_random():
    rng = np.random.default_rng(321)
    for _ in range(40):
        m = int(rng.integers(2, 13))
        dist = rng.uniform(0.0, 1.0, (m, m))
        _, worst = bottleneck_assignment(dist)
        assert worst == pytest.approx(dp_bottleneck(dist), abs=0.0)


def test_bottleneck_matches_oracles_with_ties():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = int(rng.integers(2, 8))
        dist = rng.integers(0, 4, (m, m)).astype(np.float64)
        _, worst = bottleneck_assignment(dist)
        assert worst == brute_bottleneck(dist) == dp_bottleneck(dist)


def test_bracketed_search_reproduces_full_search():
    # the production search lists each row's columns once and searches only
    # between the row/column-minimum bound and the greedy worst; it must
    # return the same permutation and value as the plain search over every
    # distinct distance, on continuous and on heavily tied distances
    rng = np.random.default_rng(2024)
    for case in range(3000):
        m = int(rng.integers(1, 16))
        if case % 3 == 0:
            dist = rng.integers(0, 4, (m, m)).astype(np.float64)
        elif case % 3 == 1:
            dist = rng.random((m, m))
        else:
            # clustered: a near-diagonal pairing with ties off the diagonal
            dist = rng.integers(0, 3, (m, m)).astype(np.float64)
            dist[np.arange(m), rng.permutation(m)] = rng.random(m) * 0.5
        want_perm, want = search_bottleneck(dist)
        _, greedy = greedy_assignment(dist)
        bound = max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))
        for got_perm, got in (
            bottleneck_assignment(dist),
            bottleneck_assignment(dist, bound, greedy),
        ):
            assert got == want
            assert got_perm.tolist() == want_perm.tolist()


def test_matching_leaves_recursion_limit_alone():
    rng = np.random.default_rng(77)
    before = sys.getrecursionlimit()
    for m in (3, 40, 300):
        perm, _ = bottleneck_assignment(rng.random((m, m)))
        assert sorted(perm.tolist()) == list(range(m))
    assert sys.getrecursionlimit() == before


def test_augmenting_paths_deeper_than_recursion_limit():
    # row i may take column i - 1 or i, and tries i - 1 first, so matching
    # row i walks an alternating path through all earlier rows
    m = 150
    dist = np.ones((m, m))
    for i in range(m):
        dist[i, max(i - 1, 0)] = dist[i, i] = 0.0
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        perm = _perfect_matching_under(dist, 0.0)
    finally:
        sys.setrecursionlimit(before)
    assert perm.tolist() == list(range(m))
    dist[m - 1, m - 1] = 1.0
    assert _perfect_matching_under(dist, 0.0) is None


def test_greedy_never_beats_bottleneck():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(2, 10))
        dist = rng.uniform(0.0, 1.0, (m, m))
        _, g = greedy_assignment(dist)
        _, b = bottleneck_assignment(dist)
        assert g >= b


# --- root matching --------------------------------------------------------------------


def test_match_identical_roots_holds():
    c = CoefficientVector((XONE, xcomplex(50.0, 0.0), XONE), 1, 0, 0)
    pred = predicted_roots(c)
    res = match_roots(_rootset(pred.all_roots()), pred, 0.5, 2)
    assert res.holds and not res.degenerate
    assert res.worst_relative_error == 0.0
    assert sorted(res.permutation) == [0, 1]


def test_match_two_scale_quadratic():
    c = CoefficientVector((XONE, xcomplex(50.0, 0.0), XONE), 1, 0, 0)
    rs = aberth_solve(polynomial(list(c.coeffs)))
    res = match_roots(rs, predicted_roots(c), 0.5, 2)
    assert res.holds
    assert res.worst_relative_error <= 1e-12


def test_match_rotated_circle_fails():
    # rotating every target by pi/n moves each root a chord of
    # 2 sin(pi/16) ~ 0.39, far beyond eps/n for any eps < 1
    n = 8
    pred = PredictedRoots(tuple(_unit_circle(4)), tuple(_unit_circle(4)))
    rotated = _unit_circle(4, math.pi / n) + _unit_circle(4, math.pi / n)
    res = match_roots(_rootset(rotated), pred, 0.5, n)
    assert not res.holds
    assert res.worst_relative_error == pytest.approx(
        2.0 * math.sin(math.pi / 16.0), rel=1e-9
    )


def test_match_worst_error_equals_oracle_value():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        half = n // 2
        targets = [
            xcomplex(float(rng.uniform(-5, 5)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n)
        ]
        computed = [
            xcomplex(float(rng.uniform(-5, 5)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n)
        ]
        pred = PredictedRoots(tuple(targets[:half]), tuple(targets[half:]))
        res = match_roots(_rootset(computed), pred, 0.5, n)
        dist = np.array(
            [[relative_distance(z, w) for z in computed] for w in targets]
        )
        assert res.worst_relative_error == pytest.approx(
            dp_bottleneck(dist), rel=1e-12
        )


def test_match_permutation_symmetry():
    rng = np.random.default_rng(55)
    n = 6
    targets = [
        xcomplex(float(rng.uniform(-3, 3)), float(rng.uniform(-math.pi, math.pi)))
        for _ in range(n)
    ]
    computed = [
        xcomplex(t.logmag + float(rng.uniform(-0.2, 0.2)), t.phase)
        for t in targets
    ]
    pred = PredictedRoots(tuple(targets[:3]), tuple(targets[3:]))
    base = match_roots(_rootset(computed), pred, 0.9, n)
    for _ in range(5):
        order = rng.permutation(n)
        shuffled = [computed[i] for i in order]
        res = match_roots(_rootset(shuffled), pred, 0.9, n)
        assert res.holds == base.holds
        assert res.worst_relative_error == pytest.approx(
            base.worst_relative_error, rel=1e-12
        )
        assert sorted(res.permutation) == list(range(n))


def test_match_missing_prediction_is_degenerate():
    res = match_roots(_rootset(_unit_circle(3)), None, 0.5, 3)
    assert res == MatchResult(False, None, math.inf, True)


def test_match_validates_inputs():
    pred = PredictedRoots(tuple(_unit_circle(2)), tuple(_unit_circle(2)))
    rs = _rootset(_unit_circle(4))
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError):
            match_roots(rs, pred, eps, 4)
    with pytest.raises(ValueError):
        match_roots(_rootset(_unit_circle(3)), pred, 0.5, 4)
    with pytest.raises(ValueError):
        match_roots(rs, pred, 0.5, 5)
