"""Unit tests for polynomial construction, hull radii, solving, predictions."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heavyroots.matcher import bottleneck_assignment
from heavyroots.roots import (
    Polynomial,
    PredictedRoots,
    RootSet,
    _BATCH_ROOTS,
    _EXP_FLOOR,
    _evaluate,
    _exact_logmags,
    _frame_coefficients,
    _frame_shift,
    _initial_iterates,
    _polygon_segments,
    _split_blocks,
    aberth_solve,
    aberth_solve_many,
    newton_polygon_radii,
    polynomial,
    predicted_roots,
    reverse,
    trim,
)
from heavyroots.sampler import (
    CoefficientDistribution,
    CoefficientVector,
    sample_coefficients,
)
from heavyroots.xnum import (
    SaturationError,
    XMINUS_ONE,
    XONE,
    XZERO,
    from_float,
    phase_distance,
    wrap_phase,
    xcomplex,
)
from heavyroots.xvec import as_arrays, relative_distance_matrix
from oracles import (
    best_root_matching,
    cubic_roots,
    dense_frame_sums,
    fraction_frame_shift,
    fraction_polygon_segments,
    quadratic_roots,
    relative_error,
)


def _vec(*coeffs, tau=None):
    cs = tuple(coeffs)
    if tau is None:
        tau = max(
            range(len(cs)), key=lambda j: (-math.inf if cs[j].zero else cs[j].logmag, -j)
        )
    return CoefficientVector(cs, tau, seed=0, clamp_count=0)


# --- construction and trim ------------------------------------------------------


def test_polynomial_requires_nonzero_ends():
    with pytest.raises(ValueError):
        polynomial([XZERO, XONE])
    with pytest.raises(ValueError):
        polynomial([XONE, XZERO])
    with pytest.raises(ValueError):
        polynomial([])
    p = polynomial([XONE, XZERO, XONE])
    assert p.degree == 2


def test_trim_strips_both_ends():
    p, mult, deficit = trim([XZERO, XONE, XONE, XZERO])
    assert p.coeffs == (XONE, XONE)
    assert p.degree == 1
    assert mult == 1
    assert deficit == 1


def test_trim_leaves_clean_input_alone():
    p, mult, deficit = trim([XONE, XONE])
    assert p.coeffs == (XONE, XONE)
    assert (mult, deficit) == (0, 0)


def test_trim_constant_after_two_zero_roots():
    five = from_float(5.0)
    p, mult, deficit = trim([XZERO, XZERO, five])
    assert p.degree == 0
    assert p.coeffs == (five,)
    assert (mult, deficit) == (2, 0)


def test_trim_rejects_all_zero():
    with pytest.raises(ValueError):
        trim([XZERO, XZERO])


def test_reverse_flips_coefficients():
    p = polynomial([from_float(2.0), XONE, from_float(3.0)])
    q = reverse(p)
    assert q.coeffs == tuple(reversed(p.coeffs))


# --- hull radii -------------------------------------------------------------------


def test_polygon_radii_balanced_quadratic():
    p = polynomial([XONE, XONE, xcomplex(100.0, 0.0)])
    assert newton_polygon_radii(p) == [(-50.0, 2)]


def test_polygon_radii_flat_hull():
    p = polynomial([XMINUS_ONE, XZERO, XZERO, XONE])  # z^3 - 1
    assert newton_polygon_radii(p) == [(0.0, 3)]


def test_polygon_radii_split_magnitudes():
    p = polynomial([XONE, xcomplex(100.0, 0.0), XONE])
    assert newton_polygon_radii(p) == [(-100.0, 1), (100.0, 1)]


def test_polygon_counts_partition_degree():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        coeffs = [
            XZERO if rng.random() < 0.25 else xcomplex(float(rng.uniform(-80, 80)), 0.0)
            for _ in range(n + 1)
        ]
        coeffs[0] = xcomplex(float(rng.uniform(-80, 80)), 0.0)
        coeffs[n] = xcomplex(float(rng.uniform(-80, 80)), 0.0)
        radii = newton_polygon_radii(polynomial(coeffs))
        assert sum(k for _, k in radii) == n
        assert all(radii[i][0] < radii[i + 1][0] for i in range(len(radii) - 1))


def _hull_inputs():
    """Log-magnitude vectors (-inf marks a zero coefficient) at every scale."""
    rng = np.random.default_rng(2718)
    out = []
    for scale in (80.0, 1e-300, 1e-320, 1e20, 1e300):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            lm = rng.uniform(-1.0, 1.0, n + 1) * scale
            lm[1:-1][rng.random(n - 1) < 0.25] = -math.inf
            out.append(lm)
    # ties, collinear runs and the smallest subnormals
    out += [
        np.zeros(7),
        np.full(5, 3.5),
        2.0 - 0.5 * np.arange(9.0),
        np.array([1.0, -math.inf, 0.0, -math.inf, -1.0]),
        -(np.arange(8.0) ** 2) / 3.0,
        np.array([5e-324, 0.0, -5e-324, 5e-324, 0.0]),
        np.array([5e-324, 1e300, -5e-324, -1e300, 5e-324]),
        np.array([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]),
    ]
    return out


def _frames(lm):
    """(ys, k, block, sigma, anchor) for each block the solver would form."""
    ys, k = _exact_logmags(lm)
    for block in _split_blocks(_polygon_segments(ys, k)):
        radii = [r for r, _, _ in block]
        yield ys, k, block, (min(radii) + max(radii)) / 2, block[0][1]


def test_integer_hull_matches_fraction_hull():
    for lm in _hull_inputs():
        assert _polygon_segments(*_exact_logmags(lm)) == fraction_polygon_segments(lm)


def test_exact_frame_shift_matches_fraction_shift():
    for lm in _hull_inputs():
        for ys, k, _, sigma, anchor in _frames(lm):
            exact = _frame_shift(ys, k, sigma, anchor)
            assert np.array_equal(exact, fraction_frame_shift(lm, sigma, anchor))


def test_frame_shift_overflow_saturates():
    ys, k = _exact_logmags(np.array([0.0, 0.0]))
    with pytest.raises(SaturationError):
        _frame_shift(ys, k, Fraction(10**400), 0)


def _evaluation_inputs():
    rng = np.random.default_rng(31)
    out = []
    for n in (1, 2):  # lowest degrees
        out += [rng.uniform(-30.0, 30.0, n + 1) for _ in range(5)]
    lm = rng.uniform(-5.0, 5.0, 14)  # zero interior coefficients
    lm[1:-1:2] = -math.inf
    out += [lm, np.array([0.0] + [-math.inf] * 11 + [3.0])]
    # one block of circles 50 nats apart spanning exactly _BLOCK_SPREAD; with
    # 8 roots per circle the powers take more than one chunk
    radii = np.arange(-250.0, 251.0, 50.0)
    out.append(np.concatenate([[0.0], -np.cumsum(radii)]))
    out.append(np.concatenate([[0.0], -np.cumsum(np.repeat(radii, 8))]))
    for big in (1e300, -1e300):  # frames near +-1e300
        out.append(big + np.spacing(big) * rng.integers(-8, 9, 7))
    out.append(rng.uniform(-3.0, 3.0, 151))
    return [(lm, rng.uniform(-math.pi, math.pi, lm.size)) for lm in out]


def _evaluation_cases():
    """(u, coef, ec, j0, shift, ph, n) for every block of every input."""
    rng = np.random.default_rng(32)
    for lm, ph in _evaluation_inputs():
        n = lm.size - 1
        for ys, k, block, sigma, anchor in _frames(lm):
            alo = max(float(block[0][0] - sigma) - 100.0, -600.0)
            ahi = min(float(block[-1][0] - sigma) + 100.0, 600.0)
            shift = _frame_shift(ys, k, sigma, anchor)
            j0, coef, ec = _frame_coefficients(shift, ph, anchor, alo, ahi)
            u = np.concatenate(
                [
                    _initial_iterates(block, sigma, 0),
                    np.exp(rng.uniform(alo, ahi, 20) + 1j * rng.uniform(-4, 4, 20)),
                    np.exp([alo, ahi]),
                ]
            )
            yield u, coef, ec, j0, shift, ph, n


def _assert_matches_dense(sums, u, j0, shift, ph, n):
    s0, s1, s2 = sums
    p, t, a = dense_frame_sums(shift, ph, u)
    turn = np.exp(1j * j0 * np.angle(u))  # the dropped u^j0 / |u|^j0
    # relative to sum |c_j||u|^j, and to n times it for u p'(u)
    assert np.max(np.abs(s0 * turn / s2 - p / a)) <= 1e-12
    assert np.max(np.abs(s1 * turn / s2 - t / a)) <= 1e-12 * n


def test_scaled_evaluation_matches_dense_evaluation():
    for u, coef, ec, j0, shift, ph, n in _evaluation_cases():
        sums = _evaluate(u, coef[..., None], ec[:, None])
        _assert_matches_dense(sums, u, j0, shift, ph, n)


def test_stacked_evaluation_matches_dense_evaluation():
    # blocks of different widths side by side, padded to the widest with
    # zero terms; each point is evaluated against its own block only, and
    # the points of a block are interleaved with those of the others
    cases = list(_evaluation_cases())
    width = max(c[2].size for c in cases)
    coef = np.zeros((5, width, len(cases)))
    ec = np.full((width, len(cases)), _EXP_FLOOR, dtype=np.int64)
    for b, (_, cb, eb, *_) in enumerate(cases):
        coef[:, : eb.size, b] = cb
        ec[: eb.size, b] = eb
    at = np.concatenate([np.full(c[0].size, b) for b, c in enumerate(cases)])
    mix = np.random.default_rng(33).permutation(at.size)
    u = np.concatenate([c[0] for c in cases])[mix]
    s0, s1, s2 = _evaluate(u, coef, ec, at[mix])
    back = np.argsort(mix)
    s0, s1, s2 = s0[back], s1[back], s2[back]
    start = 0
    for ub, _, _, j0, shift, ph, n in cases:
        part = slice(start, start + ub.size)
        _assert_matches_dense((s0[part], s1[part], s2[part]), ub, j0, shift, ph, n)
        start += ub.size


# --- numeric solving ----------------------------------------------------------------


def test_solve_cube_roots_of_unity():
    rs = aberth_solve(polynomial([XMINUS_ONE, XZERO, XZERO, XONE]), tol=1e-12)
    assert rs.converged
    assert len(rs.roots) == 3
    expected = [-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0]
    got = sorted(r.phase for r in rs.roots)
    for g, e in zip(got, expected):
        assert phase_distance(g, e) <= 1e-10
    assert all(abs(r.logmag) <= 1e-12 for r in rs.roots)


def test_solve_two_scale_quadratic_matches_oracle():
    big = xcomplex(50.0, 0.0)
    p = polynomial([XONE, big, XONE])
    rs = aberth_solve(p)
    assert rs.converged
    oracle = quadratic_roots(XONE, big, XONE)
    assert best_root_matching(list(rs.roots), oracle) <= 1e-10
    assert sorted(r.logmag for r in rs.roots) == pytest.approx([-50.0, 50.0], abs=1e-10)
    assert all(phase_distance(r.phase, math.pi) <= 1e-10 for r in rs.roots)


def test_solve_factored_quadratic():
    p = polynomial([from_float(6.0), from_float(-5.0), XONE])
    rs = aberth_solve(p)
    # convergence stops on a backward-error bound, so the forward error on
    # these well-conditioned roots is a few 1e-12, not machine epsilon
    lms = sorted(r.logmag for r in rs.roots)
    assert lms[0] == pytest.approx(math.log(2.0), abs=1e-9)
    assert lms[1] == pytest.approx(math.log(3.0), abs=1e-9)
    for r in rs.roots:
        assert phase_distance(r.phase, 0.0) <= 1e-10


def test_solve_degree_one():
    rs = aberth_solve(polynomial([from_float(3.0), from_float(-2.0)]))
    assert len(rs.roots) == 1
    assert rs.roots[0].logmag == pytest.approx(math.log(1.5), abs=1e-12)
    assert phase_distance(rs.roots[0].phase, 0.0) <= 1e-10


def test_solve_extreme_magnitude_quadratic():
    p = polynomial([XONE, xcomplex(1e200, 0.0), XONE])
    rs = aberth_solve(p)
    assert rs.converged
    assert sorted(r.logmag for r in rs.roots) == [-1e200, 1e200]
    for r in rs.roots:
        assert phase_distance(r.phase, math.pi) <= 1e-10


def test_solver_backward_error_and_root_count_on_random_instances():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        coeffs = [
            xcomplex(float(rng.uniform(-30, 30)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n + 1)
        ]
        rs = aberth_solve(polynomial(coeffs))
        assert len(rs.roots) == n
        assert len(rs.residuals) == n
        if rs.converged:
            assert max(rs.residuals) <= 1e-10


def test_solver_oracle_equivalence_spot_check():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(30):
        cq = [
            xcomplex(float(rng.uniform(-100, 100)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(3)
        ]
        rs = aberth_solve(polynomial(cq))
        worst = max(worst, best_root_matching(list(rs.roots), quadratic_roots(*cq)))
        cc = [
            xcomplex(float(rng.uniform(-100, 100)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(4)
        ]
        rs = aberth_solve(polynomial(cc))
        worst = max(worst, best_root_matching(list(rs.roots), cubic_roots(*cc)))
    assert worst <= 1e-8


def test_solver_memory_is_linear_in_the_block_size():
    # one 1200-root block: a single (n+1) x m or m x m complex array would
    # take 22 MiB, and the solver's chunks stay within a few MiB
    rng = np.random.default_rng(7)
    p = polynomial(
        [
            xcomplex(float(rng.uniform(-1, 1)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(1201)
        ]
    )
    tracemalloc.start()
    try:
        rs = aberth_solve(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rs.converged
    assert peak < 16 * 2**20


def _random_poly(rng, n, spread=3.0):
    return polynomial(
        [
            xcomplex(
                float(rng.uniform(-spread, spread)), float(rng.uniform(-math.pi, math.pi))
            )
            for _ in range(n + 1)
        ]
    )


def _batch_inputs():
    """Polynomials that exercise every way blocks can be stacked."""
    rng = np.random.default_rng(1105)
    dlog = CoefficientDistribution("double_log_slow_tail", beta=1.0, cap=690.0)
    polys = [
        polynomial(sample_coefficients(dlog, n, seed).coeffs)
        for n in (20, 50)
        for seed in range(6)
    ]
    # one block of 80 roots between blocks of 1 and 2 roots: a flat run of
    # powers 1..81 high above both ends of the Newton polygon
    flat = [
        xcomplex(420.0 + float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-3, 3)))
        for _ in range(81)
    ]
    tail = [xcomplex(-300.0, 2.0), xcomplex(-700.0, 0.5)]
    polys.append(polynomial([XONE, *flat, *tail]))
    polys += [_random_poly(rng, 1, 40.0) for _ in range(3)]  # degree 1
    polys += [_random_poly(rng, 2, 40.0) for _ in range(3)]  # degree 2
    # zero interior coefficients
    polys.append(polynomial([XONE, XZERO, XZERO, xcomplex(5.0, 1.0), XZERO, XONE]))
    polys.append(polynomial([xcomplex(-3.0, 0.2)] + [XZERO] * 9 + [XONE]))
    return polys


def _assert_same_roots(got: RootSet, want: RootSet):
    """Same converged flag, and each root within 1e-12 relative."""
    assert got.converged == want.converged
    lm_g, ph_g = as_arrays(got.roots)
    lm_w, ph_w = as_arrays(want.roots)
    dist = relative_distance_matrix(lm_w, ph_w, lm_g, ph_g)
    assert bottleneck_assignment(dist)[1] <= 1e-12


def test_batched_solve_matches_single_solves():
    polys = _batch_inputs()
    sizes = []
    for p in polys:
        segs = _polygon_segments(*_exact_logmags(as_arrays(p.coeffs)[0]))
        sizes.append([sum(j2 - j1 for _, j1, j2 in b) for b in _split_blocks(segs)])
    assert [1, 80, 2] in sizes  # a block that iterates alone
    assert any(len(s) > 1 and max(s) <= _BATCH_ROOTS for s in sizes)
    assert [1] in sizes and [2] in sizes
    batch = aberth_solve_many(polys)
    assert len(batch) == len(polys)
    for p, got in zip(polys, batch):
        assert len(got.roots) == p.degree
        _assert_same_roots(got, aberth_solve(p))


def test_unsettled_block_fails_only_its_own_polynomial():
    # a linear block is exact after one Newton step and stops at the next
    # evaluation; the 50-root block cannot settle in two iterations
    rng = np.random.default_rng(8)
    dlog = CoefficientDistribution("double_log_slow_tail", beta=1.0, cap=690.0)
    hard = polynomial(sample_coefficients(dlog, 50, 3).coeffs)
    easy = [_random_poly(rng, 1, 40.0) for _ in range(3)]
    easy.append(polynomial([XONE, xcomplex(100.0, 1.0), XONE]))  # two 1-root blocks
    polys = [easy[0], hard, *easy[1:]]
    batch = aberth_solve_many(polys, max_iter=2)
    assert [rs.converged for rs in batch] == [True, False, True, True, True]
    for p, got in zip(polys, batch):
        if p is hard:
            assert got.converged == aberth_solve(p, max_iter=2).converged
        else:
            _assert_same_roots(got, aberth_solve(p, max_iter=2))


def test_scaling_all_coefficients_leaves_roots_in_place():
    rng = np.random.default_rng(61)
    scale = xcomplex(10.25, 1.234)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        coeffs = [
            xcomplex(float(rng.uniform(-3, 3)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n + 1)
        ]
        base = aberth_solve(polynomial(coeffs))
        scaled = aberth_solve(
            polynomial(
                [
                    xcomplex(c.logmag + scale.logmag, wrap_phase(c.phase + scale.phase))
                    for c in coeffs
                ]
            )
        )
        assert base.converged and scaled.converged
        worst = 0.0
        lm_b, ph_b = as_arrays(base.roots)
        lm_s, ph_s = as_arrays(scaled.roots)
        dist = relative_distance_matrix(lm_b, ph_b, lm_s, ph_s)
        _, worst = bottleneck_assignment(dist)
        assert worst <= 1e-12


def test_reversal_duality():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        coeffs = [
            xcomplex(float(rng.uniform(-10, 10)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n + 1)
        ]
        p = polynomial(coeffs)
        forward = aberth_solve(p)
        backward = aberth_solve(reverse(p))
        recip = [
            xcomplex(-r.logmag, wrap_phase(-r.phase)) for r in forward.roots
        ]
        lm_r, ph_r = as_arrays(recip)
        lm_b, ph_b = as_arrays(backward.roots)
        _, worst = bottleneck_assignment(
            relative_distance_matrix(lm_r, ph_r, lm_b, ph_b)
        )
        assert worst <= 1e-8


# --- predicted two-circle roots ------------------------------------------------------


def test_predicted_roots_two_scale_quadratic():
    c = _vec(XONE, xcomplex(50.0, 0.0), XONE)
    pr = predicted_roots(c)
    assert len(pr.inner) == 1 and len(pr.outer) == 1
    inner, outer = pr.inner[0], pr.outer[0]
    assert inner.logmag == -50.0 and phase_distance(inner.phase, math.pi) <= 1e-12
    assert outer.logmag == 50.0 and phase_distance(outer.phase, math.pi) <= 1e-12


def test_predicted_roots_unit_square_roots():
    c = _vec(XONE, XZERO, XONE, XZERO, XONE, tau=2)
    pr = predicted_roots(c)
    phases = sorted(r.phase for r in pr.inner)
    assert phases == pytest.approx([-math.pi / 2.0, math.pi / 2.0], abs=1e-12)
    assert sorted(r.phase for r in pr.outer) == pytest.approx(
        [-math.pi / 2.0, math.pi / 2.0], abs=1e-12
    )
    assert all(r.logmag == 0.0 for r in pr.all_roots())


def test_predicted_roots_radius_formula():
    coeffs = [XONE] + [XZERO] * 4 + [xcomplex(100.0, 0.0)] + [XZERO] * 4 + [XONE]
    c = _vec(*coeffs, tau=5)
    pr = predicted_roots(c)
    assert pr.inner_radius == -20.0
    assert pr.outer_radius == 20.0
    assert len(pr.inner) == 5 and len(pr.outer) == 5
    assert all(r.logmag == -20.0 for r in pr.inner)
    assert all(r.logmag == 20.0 for r in pr.outer)
    assert len(pr.all_roots()) == 10


def test_predicted_roots_rejects_degenerate_max_index():
    with pytest.raises(ValueError):
        predicted_roots(_vec(xcomplex(9.0, 0.0), XONE, XONE, tau=0))
    with pytest.raises(ValueError):
        predicted_roots(_vec(XONE, XONE, xcomplex(9.0, 0.0), tau=2))


def test_predicted_roots_match_solver_on_dominant_middle():
    c = _vec(XONE, xcomplex(80.0, 2.5), XONE)
    pr = predicted_roots(c)
    rs = aberth_solve(polynomial(c.coeffs))
    worst = best_root_matching(list(rs.roots), list(pr.all_roots()))
    assert worst <= 1e-10
