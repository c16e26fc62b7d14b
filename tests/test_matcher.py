"""Root enumeration: relative distances and bottleneck assignment."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from oracles import (
    brute_bottleneck,
    dp_bottleneck,
    relative_distance,
    search_bottleneck,
)
from heavyroots.matcher import (
    MatchResult,
    bottleneck_assignment,
    match_roots,
    match_roots_many,
)
from heavyroots.roots import (
    PredictedRoots,
    RootSet,
    aberth_solve,
    polynomial,
    predicted_roots,
)
from heavyroots.roots import aberth_solve_many
from heavyroots.sampler import (
    CoefficientDistribution,
    CoefficientVector,
    sample_coefficients,
)
from heavyroots.xnum import XONE, from_complex, xcomplex
from heavyroots.xvec import as_arrays, relative_distance_matrix


def _rootset(roots):
    lm, ph = as_arrays(roots)
    return RootSet(lm, ph, np.zeros(lm.size), True)


def _predicted(inner, outer):
    """Predicted roots from XComplex values on two circles."""
    ph = as_arrays(inner + outer)[1]
    return PredictedRoots(len(inner), inner[0].logmag, outer[0].logmag, ph)


def _vec(*coeffs, tau):
    return CoefficientVector(*as_arrays(coeffs), tau, 0, 0)


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


def test_augmenting_path_escapes_the_nearest_neighbour_trap():
    # both rows are nearest to column 0; row 0 keeps it, and row 1 must
    # reach column 1 through row 0 rather than take the 100 itself
    dist = np.array([[1.0, 2.0], [1.0, 100.0]])
    perm, worst = bottleneck_assignment(dist)
    assert worst == 2.0
    assert perm.tolist() == [1, 0]


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


def _assert_optimal(dist, perm, worst):
    """perm is a permutation whose largest used distance is worst."""
    m = dist.shape[0]
    assert sorted(perm.tolist()) == list(range(m))
    assert dist[np.arange(m), perm].max() == worst


def test_bottleneck_value_equals_full_search():
    # the value is the plain search's over every distinct distance, bit for
    # bit, on continuous, heavily tied and clustered distances, and on
    # distances where whole rows and scattered entries are inf
    rng = np.random.default_rng(2024)
    cases = []
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
        cases.append(dist)
    for _ in range(500):
        m = int(rng.integers(1, 16))
        dist = rng.random((m, m))
        dist[rng.random((m, m)) < 0.3] = np.inf
        dist[rng.random(m) < 0.3] = np.inf
        cases.append(dist)
    assert sum(np.isinf(d).all(axis=1).any() for d in cases) > 300
    for dist in cases:
        _, want = search_bottleneck(dist)
        perm, worst = bottleneck_assignment(dist)
        assert worst == want
        _assert_optimal(dist, perm, worst)


def test_matching_leaves_recursion_limit_alone():
    rng = np.random.default_rng(77)
    before = sys.getrecursionlimit()
    for m in (3, 40, 300):
        perm, _ = bottleneck_assignment(rng.random((m, m)))
        assert sorted(perm.tolist()) == list(range(m))
    assert sys.getrecursionlimit() == before


def test_augmenting_paths_deeper_than_recursion_limit():
    # row i may take column i - 1 or i; each row's nearest column is i - 1,
    # so row 1 starts free and reaches column m - 1 only along an
    # alternating path through every later row
    m = 150
    dist = np.ones((m, m))
    for i in range(m):
        dist[i, max(i - 1, 0)] = dist[i, i] = 0.0
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        perm, worst = bottleneck_assignment(dist)
    finally:
        sys.setrecursionlimit(before)
    assert perm.tolist() == list(range(m)) and worst == 0.0
    dist[m - 1, m - 1] = 1.0
    perm, worst = bottleneck_assignment(dist)
    assert worst == 1.0
    _assert_optimal(dist, perm, worst)


def test_large_slow_tail_matches_reach_the_row_column_bound():
    # at n=1000 most nearest neighbours collide (seed 7 leaves about 400
    # rows free, seed 9 about 20), yet each match uses no distance above
    # the row/column-minimum bound, which no assignment beats
    n = 1000
    dist_kind = CoefficientDistribution("slow_tail_magnitude")
    for seed in (7, 9):
        c = sample_coefficients(dist_kind, n, seed)
        rs = aberth_solve(polynomial(c.lm, c.ph))
        pred = predicted_roots(c)
        res = match_roots(rs, pred, 0.5, n)
        dist = relative_distance_matrix(pred.lm, pred.ph, rs.lm, rs.ph)
        bound = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert np.unique(dist.argmin(axis=1)).size < n
        assert res.worst_relative_error == bound
        _assert_optimal(dist, np.array(res.permutation), bound)


# --- root matching --------------------------------------------------------------------


def test_match_identical_roots_holds():
    c = _vec(XONE, xcomplex(50.0, 0.0), XONE, tau=1)
    pred = predicted_roots(c)
    res = match_roots(RootSet(pred.lm, pred.ph, np.zeros(2), True), pred, 0.5, 2)
    assert res.holds and not res.degenerate
    assert res.worst_relative_error == 0.0
    assert sorted(res.permutation) == [0, 1]


def test_match_two_scale_quadratic():
    c = _vec(XONE, xcomplex(50.0, 0.0), XONE, tau=1)
    rs = aberth_solve(polynomial(c.lm, c.ph))
    res = match_roots(rs, predicted_roots(c), 0.5, 2)
    assert res.holds
    assert res.worst_relative_error <= 1e-12


def test_match_rotated_circle_fails():
    # rotating every target by pi/n moves each root a chord of
    # 2 sin(pi/16) ~ 0.39, far beyond eps/n for any eps < 1
    n = 8
    pred = _predicted(_unit_circle(4), _unit_circle(4))
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
        radii = rng.uniform(-5, 5, 2)  # predicted roots lie on two circles
        targets = [
            xcomplex(float(radii[int(j >= half)]), float(rng.uniform(-math.pi, math.pi)))
            for j in range(n)
        ]
        computed = [
            xcomplex(float(rng.uniform(-5, 5)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n)
        ]
        pred = _predicted(targets[:half], targets[half:])
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
    radii = rng.uniform(-3, 3, 2)  # predicted roots lie on two circles
    targets = [
        xcomplex(float(radii[int(j >= 3)]), float(rng.uniform(-math.pi, math.pi)))
        for j in range(n)
    ]
    computed = [
        xcomplex(t.logmag + float(rng.uniform(-0.2, 0.2)), t.phase)
        for t in targets
    ]
    pred = _predicted(targets[:3], targets[3:])
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
    pred = _predicted(_unit_circle(2), _unit_circle(2))
    rs = _rootset(_unit_circle(4))
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError):
            match_roots(rs, pred, eps, 4)
    with pytest.raises(ValueError):
        match_roots(_rootset(_unit_circle(3)), pred, 0.5, 4)
    with pytest.raises(ValueError):
        match_roots(rs, pred, 0.5, 5)


def _two_circle_instances(rng, count):
    """(computed, predicted) pairs with predicted roots on two circles, in
    the three families of test_bottleneck_value_equals_full_search:
    continuous positions, positions tied exactly (computed roots repeat
    predicted ones), and clustered (a perturbed pairing plus repeats)."""
    out = []
    for case in range(count):
        n = int(rng.integers(2, 16))
        tau = int(rng.integers(1, n))
        radii = np.sort(rng.uniform(-3.0, 3.0, 2))
        ph = rng.uniform(-math.pi, math.pi, n)
        pred = PredictedRoots(tau, radii[0], radii[1], ph)
        if case % 3 == 0:
            lm = rng.uniform(radii[0] - 0.5, radii[1] + 0.5, n)
            ph = rng.uniform(-math.pi, math.pi, n)
        elif case % 3 == 1:
            pick = rng.integers(0, n, n)
            lm, ph = pred.lm[pick], pred.ph[pick]
        else:
            pick = rng.permutation(n)
            lm = pred.lm[pick] + rng.normal(0.0, 0.05, n)
            ph = pred.ph[pick] + rng.normal(0.0, 0.05, n)
            tied = rng.random(n) < 0.2
            lm[tied], ph[tied] = pred.lm[0], pred.ph[0]
        out.append((RootSet(lm, ph, np.zeros(n), True), pred))
    return out


def _sampled_double_log_trials(n, seeds):
    dist = CoefficientDistribution("double_log_slow_tail", beta=1.0, cap=690.0)
    vecs = [sample_coefficients(dist, n, s) for s in seeds]
    solved = aberth_solve_many([polynomial(c.lm, c.ph) for c in vecs])
    return [
        (rs, None if c.tau in (0, n) else predicted_roots(c))
        for c, rs in zip(vecs, solved)
    ]


def test_nearest_neighbour_certificate_gives_the_exact_bottleneck():
    # the worst error is the full search's value exactly, whether the
    # nearest-neighbour pairing is already a bijection or rows are left to
    # augment; the permutation is a valid assignment reaching that worst
    # error; matching a chunk of trials at once equals matching them one at
    # a time in every field but the permutation
    rng = np.random.default_rng(4242)
    groups = {}
    for rs, pred in _two_circle_instances(rng, 600):
        groups.setdefault(rs.lm.size, []).append((rs, pred))
    for n in (20, 50):
        groups[n] = _sampled_double_log_trials(n, range(500 + n, 550 + n))
    bijective = {True: 0, False: 0}
    degenerate = 0
    for n, trials in groups.items():
        computed = [rs for rs, _ in trials]
        predicted = [pred for _, pred in trials]
        batches = [match_roots_many(computed, predicted, eps, n) for eps in (0.05, 0.5)]
        for t, (rs, pred) in enumerate(trials):
            if pred is None:
                degenerate += 1
            else:
                dist = relative_distance_matrix(pred.lm, pred.ph, rs.lm, rs.ph)
                _, want = search_bottleneck(dist)
                bijective[np.unique(dist.argmin(axis=1)).size == n] += 1
            for eps, batch in zip((0.05, 0.5), batches):
                got = batch[t]
                one = match_roots(rs, pred, eps, n)
                unordered = dataclasses.replace(got, permutation=None)
                assert unordered == dataclasses.replace(one, permutation=None)
                if pred is None:
                    assert got == MatchResult(False, None, math.inf, True)
                    continue
                assert got.worst_relative_error == want
                assert got.holds == (want < eps / n) and not got.degenerate
                perm = np.array(got.permutation)
                assert sorted(perm.tolist()) == list(range(n))
                assert dist[np.arange(n), perm].max() == want
    # both cases and degenerate trials are exercised
    assert bijective[True] > 150 and bijective[False] > 300, bijective
    assert degenerate > 0
