"""Unit tests for polynomial construction, hull radii, solving, predictions."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heavyroots.matcher import bottleneck_assignment
from heavyroots.roots import (
    RootSet,
    _BATCH_ROOTS,
    _EXP_FLOOR,
    _GOLDEN,
    _block_frames,
    _evaluate,
    _exact_logmags,
    _frame_coefficients,
    _frame_shift,
    _negligible,
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
    PHASE_MODELS,
    VARIANTS,
    CoefficientDistribution,
    CoefficientVector,
    sample_coefficients,
)
from heavyroots.xnum import (
    TAU,
    SaturationError,
    XMINUS_ONE,
    XONE,
    XZERO,
    from_float,
    phase_distance,
    wrap_phase,
    xcomplex,
)
from heavyroots.xvec import as_arrays, from_arrays, relative_distance_matrix
from oracles import (
    best_root_matching,
    block_frame,
    cubic_roots,
    dense_frame_sums,
    dominated_circles,
    fraction_frame_shift,
    fraction_hull_depths,
    fraction_polygon_segments,
    full_residuals,
    quadratic_roots,
    scalar_predicted_roots,
)


def _vec(*coeffs, tau=None):
    lm, ph = as_arrays(coeffs)
    if tau is None:
        tau = int(np.argmax(lm))
    return CoefficientVector(lm, ph, tau, seed=0, clamp_count=0)


def _poly(*coeffs):
    return polynomial(*as_arrays(coeffs))


def _roots(rs):
    """The roots of a RootSet as XComplex values, for the scalar oracles."""
    return from_arrays(rs.lm, rs.ph)


# --- construction and trim ------------------------------------------------------


def test_polynomial_requires_nonzero_ends():
    with pytest.raises(ValueError):
        _poly(XZERO, XONE)
    with pytest.raises(ValueError):
        _poly(XONE, XZERO)
    with pytest.raises(ValueError):
        polynomial([], [])
    p = _poly(XONE, XZERO, XONE)
    assert p.degree == 2


def test_polynomial_and_trim_reject_invalid_components():
    inf, nan = math.inf, math.nan
    bad = [
        ([0.0, nan, 0.0], [0.0, 0.0, 0.0]),  # NaN log-modulus
        ([0.0, inf, 0.0], [0.0, 0.0, 0.0]),  # infinite modulus
        ([0.0, 1.0, 0.0], [0.0, nan, 0.0]),  # NaN phase
        ([0.0, 1.0, 0.0], [0.0, inf, 0.0]),  # infinite phase
        ([0.0, 1.0, 0.0], [0.0, 0.0]),  # lengths differ
        ([[0.0, 1.0]], [[0.0, 0.0]]),  # not 1-D
        ([nan, 0.0, -inf], [0.0, 0.0, 0.0]),  # NaN at an end is not a zero
    ]
    for lm, ph in bad:
        with pytest.raises(ValueError):
            polynomial(lm, ph)
        with pytest.raises(ValueError):
            trim(lm, ph)


def test_containers_hold_read_only_copies():
    lm, ph = np.array([0.0, 2.0, -1.0]), np.array([0.5, 0.0, 1.0])
    p = polynomial(lm, ph)
    lm[1] = 7.0  # the caller's arrays stay theirs
    assert p.lm.tolist() == [0.0, 2.0, -1.0]
    rs = aberth_solve(p)
    for a in (p.lm, p.ph, rs.lm, rs.ph, rs.residuals, reverse(p).lm):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        p.lm[0] = 1.0


def test_trim_strips_both_ends():
    p, mult, deficit = trim(*as_arrays([XZERO, XONE, XONE, XZERO]))
    assert p.lm.tolist() == [0.0, 0.0] and p.ph.tolist() == [0.0, 0.0]
    assert p.degree == 1
    assert mult == 1
    assert deficit == 1


def test_trim_leaves_clean_input_alone():
    p, mult, deficit = trim(*as_arrays([XONE, XONE]))
    assert p.lm.tolist() == [0.0, 0.0] and p.ph.tolist() == [0.0, 0.0]
    assert (mult, deficit) == (0, 0)


def test_trim_constant_after_two_zero_roots():
    five = from_float(5.0)
    p, mult, deficit = trim(*as_arrays([XZERO, XZERO, five]))
    assert p.degree == 0
    assert from_arrays(p.lm, p.ph) == [five]
    assert (mult, deficit) == (2, 0)


def test_trim_rejects_all_zero():
    with pytest.raises(ValueError):
        trim(*as_arrays([XZERO, XZERO]))


def test_reverse_flips_coefficients():
    p = _poly(from_float(2.0), XONE, from_float(3.0))
    q = reverse(p)
    assert q.lm.tolist() == p.lm.tolist()[::-1]
    assert q.ph.tolist() == p.ph.tolist()[::-1]


# --- hull radii -------------------------------------------------------------------


def test_polygon_radii_balanced_quadratic():
    p = _poly(XONE, XONE, xcomplex(100.0, 0.0))
    assert newton_polygon_radii(p) == [(-50.0, 2)]


def test_polygon_radii_flat_hull():
    p = _poly(XMINUS_ONE, XZERO, XZERO, XONE)  # z^3 - 1
    assert newton_polygon_radii(p) == [(0.0, 3)]


def test_polygon_radii_split_magnitudes():
    p = _poly(XONE, xcomplex(100.0, 0.0), XONE)
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
        radii = newton_polygon_radii(_poly(*coeffs))
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
            js = [j for j, y in enumerate(ys) if y is not None]
            exact = _frame_shift(js, ys, k, sigma, anchor)
            assert np.array_equal(exact, fraction_frame_shift(lm, sigma, anchor)[js])


def _kept(lm):
    """The powers of the terms of lm that the tables keep."""
    ys, k = _exact_logmags(lm)
    drop = _negligible(ys, k, _polygon_segments(ys, k))
    return [j for j, (y, d) in enumerate(zip(ys, drop)) if y is not None and not d]


def test_negligible_terms_match_fraction_oracle():
    dropped = on_hull = 0
    inputs = _hull_inputs() + [lm for lm, _ in _evaluation_inputs()]
    for lm in inputs:
        ys, k = _exact_logmags(lm)
        drop = _negligible(ys, k, _polygon_segments(ys, k))
        depths = fraction_hull_depths(lm)
        # exactly the terms more than 64 nats below the hull; never a vertex,
        # a point on a hull edge or a zero coefficient
        assert drop == [d is not None and d > 64 for d in depths]
        assert not any(x for x, d in zip(drop, depths) if d is None or d == 0)
        dropped += sum(drop)
        on_hull += sum(d == 0 for d in depths if d is not None)
        for _, a, b in _polygon_segments(ys, k):
            assert not drop[a] and not drop[b]
    assert dropped > 1000 and on_hull > 1000


def test_frame_shift_overflow_saturates():
    ys, k = _exact_logmags(np.array([0.0, 0.0]))
    with pytest.raises(SaturationError):
        _frame_shift([0, 1], ys, k, Fraction(10**400), 0)


def _assert_same_frames(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, i
            assert a.tobytes() == b.tobytes(), i
        else:
            assert [type(x) for x in a] == [type(x) for x in b] and a == b, i


def _block_of(frames, b):
    """Block b of a group's frames, in the layout of a group of one block."""
    coef, ec, pw, u0, charge, lo_a, hi_a, sizes, sigmas = frames
    cols = ec[:, b] != _EXP_FLOOR
    assert not coef[:, ~cols, b].any()  # a power the block lacks adds 0
    r = slice(int(sizes[:b].sum()), int(sizes[: b + 1].sum()))
    return (
        coef[:, cols, b : b + 1],
        ec[cols, b : b + 1],
        pw[cols],
        u0[r],
        charge[r],
        lo_a[r],
        hi_a[r],
        sizes[b : b + 1],
        sigmas[b : b + 1],
    )


def test_batched_frames_match_block_by_block_frames():
    # every block of every polynomial framed in one group, and each block
    # framed alone, against the block framed on its own from every
    # coefficient; a block whose frame overflows raises alone and inside a
    # group
    rng = np.random.default_rng(35)
    # two one-circle blocks whose radii differ by 999.5 and 1000.5 nats: the
    # top term lies 799.5 and 800.5 nats below the lower block's anchor term
    # at the edge of its frame window, just inside and just outside the
    # _DEAD cut
    lms = _hull_inputs() + [np.array([0.0, 0.0, -r]) for r in (999.5, 1000.5)]
    # one block of 400 circles with every term on the hull: 400 x 401
    # circle x term pairs take more than one chunk of margins
    lms.append(-0.5 * np.arange(401.0) ** 2)
    inputs = [(lm, rng.uniform(-math.pi, math.pi, lm.size)) for lm in lms]
    inputs += _evaluation_inputs()
    parts, want, starts = [], [], []
    for lm, ph in inputs:
        ys, k = _exact_logmags(lm)
        kept = _kept(lm)
        dropped = np.full(lm.size, -math.inf)
        dropped[kept] = lm[kept]
        t0 = 0
        for segs in _split_blocks(_polygon_segments(ys, k)):
            parts.append((kept, ph[kept], ys, k, segs, t0))
            want.append(block_frame(dropped, ph, segs, t0))
            if len(segs) > 1:
                starts += dominated_circles(dropped, segs)
            t0 += len(segs)
    group = _block_frames(parts)
    assert len(want) > 300
    for b, (part, w) in enumerate(zip(parts, want)):
        _assert_same_frames(_block_of(group, b), w)
        _assert_same_frames(_block_frames([part]), w)
    # both starts: binomial blocks at their roots, the rest golden-ratio;
    # inside blocks of several circles, both kinds of circle
    binomial = sum(len(p[4]) == 1 and w[2].size == 2 for p, w in zip(parts, want))
    assert 100 < binomial < len(want) - 100
    assert 10 < sum(starts) < len(starts) - 10
    # frames beyond the float range: the term of power 1 lies 10^400 nats
    # above (raises) or below (left out) the anchor term
    ys, k = _exact_logmags(np.zeros(2))
    ph = np.array([0.5, -0.5])
    for radius, raises in ((Fraction(10**400), True), (Fraction(-(10**400)), False)):
        part = ([0, 1], ph, ys, k, [(radius, 0, 1)], 0)
        if raises:
            with pytest.raises(SaturationError):
                block_frame(np.zeros(2), ph, part[4], 0)
            for batch in ([part], parts[:5] + [part] + parts[5:9]):
                with pytest.raises(SaturationError):
                    _block_frames(batch)
        else:
            g = _block_frames([part])
            _assert_same_frames(g, block_frame(np.zeros(2), ph, part[4], 0))
            assert g[2].tolist() == [0]


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
    # pruned tables: sampled slow-tail vectors, where most terms are
    # negligible; a double-log vector at the cap e^690 - 1 ~ 1.1e299, a run
    # falling one ulp (1.6e283 nats) per power with terms one to three ulps
    # below it, where a float hull test is off by whole ulps and only the
    # exact one keeps the run; and a collinear run exactly on the hull, with
    # terms exactly 64 nats (kept) and 64.25 nats (left out) below it
    slow = CoefficientDistribution("slow_tail_magnitude")
    out += [sample_coefficients(slow, n, 40 + n).lm for n in (200, 500)]
    cap = math.expm1(690.0)
    steps = -np.arange(41)
    below = np.random.default_rng(34)
    steps[1:-1] -= below.integers(0, 4, 39) * (below.random(39) < 0.5)
    out.append(cap + np.spacing(cap) * steps)
    run = 3.0 - 0.75 * np.arange(31.0)
    run[4:28:3] -= 100.0
    run[[2, 29]] -= [64.0, 64.25]
    out.append(run)
    return [(lm, rng.uniform(-math.pi, math.pi, lm.size)) for lm in out]


def _evaluation_cases():
    """(u, coef, ec, pw, j0, shift, ph, n) for every block of every input:
    the tables leave out the negligible terms, shift holds every term."""
    rng = np.random.default_rng(32)
    for lm, ph in _evaluation_inputs():
        n = lm.size - 1
        kept = _kept(lm)
        for ys, k, block, sigma, anchor in _frames(lm):
            alo = max(float(block[0][0] - sigma) - 100.0, -600.0)
            ahi = min(float(block[-1][0] - sigma) + 100.0, 600.0)
            shift = fraction_frame_shift(lm, sigma, anchor)
            js = np.array(kept)
            keep, coef, ec = _frame_coefficients(
                np.array(_frame_shift(kept, ys, k, sigma, anchor)),
                js,
                js - float(anchor),
                ph[js],
                alo,
                ahi,
            )
            js = js[keep]
            u = np.concatenate(
                [
                    _block_frames([(kept, ph[kept], ys, k, block, 0)])[3],
                    np.exp(rng.uniform(alo, ahi, 20) + 1j * rng.uniform(-4, 4, 20)),
                    np.exp([alo, ahi]),
                ]
            )
            yield u, coef, ec, js - js[0], int(js[0]), shift, ph, n


def _assert_matches_dense(sums, u, j0, shift, ph, n):
    s0, s1, s2 = sums
    p, t, a = dense_frame_sums(shift, ph, u)
    turn = np.exp(1j * j0 * np.angle(u))  # the dropped u^j0 / |u|^j0
    # relative to sum |c_j||u|^j, and to n times it for u p'(u)
    assert np.max(np.abs(s0 * turn / s2 - p / a)) <= 1e-12
    assert np.max(np.abs(s1 * turn / s2 - t / a)) <= 1e-12 * n


def test_scaled_evaluation_matches_dense_evaluation():
    gaps = 0
    for u, coef, ec, pw, j0, shift, ph, n in _evaluation_cases():
        sums = _evaluate(u, coef[..., None], ec[:, None], pw)
        _assert_matches_dense(sums, u, j0, shift, ph, n)
        gaps += pw[-1] + 1 > pw.size
    assert gaps >= 4  # tables with terms left out between kept ones


def test_stacked_evaluation_matches_dense_evaluation():
    # blocks with different powers side by side, one column for each power
    # any block keeps and zero terms in the others; each point is evaluated
    # against its own block only, and the points of a block are interleaved
    # with those of the others
    cases = list(_evaluation_cases())
    pw = np.unique(np.concatenate([c[3] for c in cases]))
    coef = np.zeros((5, pw.size, len(cases)))
    ec = np.full((pw.size, len(cases)), _EXP_FLOOR, dtype=np.int64)
    for b, (_, cb, eb, pb, *_) in enumerate(cases):
        cols = np.searchsorted(pw, pb)
        coef[:, cols, b] = cb
        ec[cols, b] = eb
    at = np.concatenate([np.full(c[0].size, b) for b, c in enumerate(cases)])
    mix = np.random.default_rng(33).permutation(at.size)
    u = np.concatenate([c[0] for c in cases])[mix]
    s0, s1, s2 = _evaluate(u, coef, ec, pw, at[mix])
    back = np.argsort(mix)
    s0, s1, s2 = s0[back], s1[back], s2[back]
    start = 0
    for ub, _, _, _, j0, shift, ph, n in cases:
        part = slice(start, start + ub.size)
        _assert_matches_dense((s0[part], s1[part], s2[part]), ub, j0, shift, ph, n)
        start += ub.size


# --- numeric solving ----------------------------------------------------------------


def test_solve_cube_roots_of_unity():
    rs = aberth_solve(_poly(XMINUS_ONE, XZERO, XZERO, XONE), tol=1e-12)
    assert rs.converged
    assert rs.lm.size == 3
    expected = [-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0]
    got = sorted(rs.ph.tolist())
    for g, e in zip(got, expected):
        assert phase_distance(g, e) <= 1e-10
    assert np.all(np.abs(rs.lm) <= 1e-12)


def test_solve_two_scale_quadratic_matches_oracle():
    big = xcomplex(50.0, 0.0)
    p = _poly(XONE, big, XONE)
    rs = aberth_solve(p)
    assert rs.converged
    oracle = quadratic_roots(XONE, big, XONE)
    assert best_root_matching(_roots(rs), oracle) <= 1e-10
    assert sorted(rs.lm.tolist()) == pytest.approx([-50.0, 50.0], abs=1e-10)
    assert all(phase_distance(ph, math.pi) <= 1e-10 for ph in rs.ph.tolist())


def test_solve_factored_quadratic():
    p = _poly(from_float(6.0), from_float(-5.0), XONE)
    rs = aberth_solve(p)
    # convergence stops on a backward-error bound, so the forward error on
    # these well-conditioned roots is a few 1e-12, not machine epsilon
    lms = sorted(rs.lm.tolist())
    assert lms[0] == pytest.approx(math.log(2.0), abs=1e-9)
    assert lms[1] == pytest.approx(math.log(3.0), abs=1e-9)
    for ph in rs.ph.tolist():
        assert phase_distance(ph, 0.0) <= 1e-10


def test_solve_degree_one():
    rs = aberth_solve(_poly(from_float(3.0), from_float(-2.0)))
    assert rs.lm.size == 1
    assert rs.lm[0] == pytest.approx(math.log(1.5), abs=1e-12)
    assert phase_distance(float(rs.ph[0]), 0.0) <= 1e-10


def test_degree_zero_has_no_roots():
    const = _poly(xcomplex(2.5, 1.0))
    batch = aberth_solve_many([const, _poly(XMINUS_ONE, XONE), const])
    for rs in (aberth_solve(const), batch[0], batch[2]):
        assert rs.converged
        assert rs.lm.size == rs.ph.size == rs.residuals.size == 0
    assert batch[1].converged and batch[1].lm.size == 1


def test_solve_extreme_magnitude_quadratic():
    p = _poly(XONE, xcomplex(1e200, 0.0), XONE)
    rs = aberth_solve(p)
    assert rs.converged
    assert sorted(rs.lm.tolist()) == [-1e200, 1e200]
    for ph in rs.ph.tolist():
        assert phase_distance(ph, math.pi) <= 1e-10


def test_solver_backward_error_and_root_count_on_random_instances():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        coeffs = [
            xcomplex(float(rng.uniform(-30, 30)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n + 1)
        ]
        rs = aberth_solve(_poly(*coeffs))
        assert rs.lm.size == n
        assert rs.residuals.size == n
        if rs.converged:
            assert max(rs.residuals) <= 1e-10


def test_pruned_solves_have_small_residuals_on_the_full_polynomial():
    # the solver evaluates only the terms within 64 nats of the Newton
    # polygon; the oracle recomputes every residual over all the terms.  The
    # double-log cap keeps root log-moduli near 1e3: at scale 1e20 and beyond
    # one rounding of a reported log-modulus moves the root by more than
    # 1e-10 relative, whatever the solver does
    slow = CoefficientDistribution("slow_tail_magnitude")
    dlog = CoefficientDistribution("double_log_slow_tail", beta=0.5, cap=8.0)
    vecs = [sample_coefficients(slow, n, s) for n in (200, 500) for s in (1, 2)]
    vecs += [sample_coefficients(dlog, n, s) for n in (20, 50) for s in (1, 2)]
    polys = [polynomial(c.lm, c.ph) for c in vecs]
    for p, rs in zip(polys, aberth_solve_many(polys)):
        assert p.degree + 1 - len(_kept(p.lm)) > p.degree // 2  # most terms left out
        assert rs.converged
        assert full_residuals(p.lm, p.ph, rs.lm, rs.ph).max() <= 1e-10


def test_solver_oracle_equivalence_spot_check():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(30):
        cq = [
            xcomplex(float(rng.uniform(-100, 100)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(3)
        ]
        rs = aberth_solve(_poly(*cq))
        worst = max(worst, best_root_matching(_roots(rs), quadratic_roots(*cq)))
        cc = [
            xcomplex(float(rng.uniform(-100, 100)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(4)
        ]
        rs = aberth_solve(_poly(*cc))
        worst = max(worst, best_root_matching(_roots(rs), cubic_roots(*cc)))
    assert worst <= 1e-8


def test_solver_memory_is_linear_in_the_block_size():
    # one 1200-root block: a single (n+1) x m or m x m complex array would
    # take 22 MiB, and the solver's chunks stay within a few MiB
    rng = np.random.default_rng(7)
    p = _poly(
        *(
            xcomplex(float(rng.uniform(-1, 1)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(1201)
        )
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
    return _poly(
        *(
            xcomplex(
                float(rng.uniform(-spread, spread)), float(rng.uniform(-math.pi, math.pi))
            )
            for _ in range(n + 1)
        )
    )


def _batch_inputs():
    """Polynomials that exercise every way blocks can be stacked."""
    rng = np.random.default_rng(1105)
    dlog = CoefficientDistribution("double_log_slow_tail", beta=1.0, cap=690.0)
    polys = [
        polynomial(c.lm, c.ph)
        for n in (20, 50)
        for c in (sample_coefficients(dlog, n, seed) for seed in range(6))
    ]
    # one block of 80 roots between blocks of 1 and 2 roots: a flat run of
    # powers 1..81 high above both ends of the Newton polygon
    flat = [
        xcomplex(420.0 + float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-3, 3)))
        for _ in range(81)
    ]
    tail = [xcomplex(-300.0, 2.0), xcomplex(-700.0, 0.5)]
    polys.append(_poly(XONE, *flat, *tail))
    polys += [_random_poly(rng, 1, 40.0) for _ in range(3)]  # degree 1
    polys += [_random_poly(rng, 2, 40.0) for _ in range(3)]  # degree 2
    # zero interior coefficients
    polys.append(_poly(XONE, XZERO, XZERO, xcomplex(5.0, 1.0), XZERO, XONE))
    polys.append(_poly(xcomplex(-3.0, 0.2), *[XZERO] * 9, XONE))
    return polys


def _assert_same_roots(got: RootSet, want: RootSet):
    """Same converged flag, and each root within 1e-12 relative."""
    assert got.converged == want.converged
    dist = relative_distance_matrix(want.lm, want.ph, got.lm, got.ph)
    assert bottleneck_assignment(dist)[1] <= 1e-12


def test_batched_solve_matches_single_solves():
    polys = _batch_inputs()
    sizes = []
    for p in polys:
        segs = _polygon_segments(*_exact_logmags(p.lm))
        sizes.append([sum(j2 - j1 for _, j1, j2 in b) for b in _split_blocks(segs)])
    assert [1, 80, 2] in sizes  # a block that iterates alone
    assert any(len(s) > 1 and max(s) <= _BATCH_ROOTS for s in sizes)
    assert [1] in sizes and [2] in sizes
    batch = aberth_solve_many(polys)
    assert len(batch) == len(polys)
    for p, got in zip(polys, batch):
        assert got.lm.size == p.degree
        _assert_same_roots(got, aberth_solve(p))


def test_large_block_solves_bitwise_alone_or_among_others():
    # a block of more than _BATCH_ROOTS roots iterates alone in either call,
    # so its roots, residuals and settled flag do not move by one bit; with
    # two steps it has not settled, with the default it has
    big = _random_poly(np.random.default_rng(12), 100)
    (block,) = _split_blocks(_polygon_segments(*_exact_logmags(big.lm)))
    assert block[-1][2] - block[0][1] == 100 > _BATCH_ROOTS
    others = _batch_inputs()
    for max_iter, settled in ((2, False), (200, True)):
        alone = aberth_solve(big, max_iter=max_iter)
        batch = aberth_solve_many(others[:7] + [big] + others[7:], max_iter=max_iter)
        among = batch[7]
        assert alone.converged is among.converged is settled
        for f in ("lm", "ph", "residuals"):
            assert getattr(alone, f).tobytes() == getattr(among, f).tobytes(), f


def test_unsettled_block_fails_only_its_own_polynomial():
    # the 1-root blocks settle within two iterations; the 50-root block of
    # three circles, which is not a binomial, cannot
    rng = np.random.default_rng(8)
    c = sample_coefficients(CoefficientDistribution("cauchy"), 50, 3)
    hard = polynomial(c.lm, c.ph)
    (block,) = _split_blocks(_polygon_segments(*_exact_logmags(c.lm)))
    assert len(block) == 3 and block[-1][2] - block[0][1] == 50
    easy = [_random_poly(rng, 1, 40.0) for _ in range(3)]
    easy.append(_poly(XONE, xcomplex(100.0, 1.0), XONE))  # two 1-root blocks
    polys = [easy[0], hard, *easy[1:]]
    batch = aberth_solve_many(polys, max_iter=2)
    assert [rs.converged for rs in batch] == [True, False, True, True, True]
    for p, got in zip(polys, batch):
        if p is hard:
            assert got.converged == aberth_solve(p, max_iter=2).converged
        else:
            _assert_same_roots(got, aberth_solve(p, max_iter=2))


def test_binomial_blocks_settle_at_their_first_evaluation():
    # at n=50 every double-log block is a binomial: it starts at its roots,
    # real coefficients included, and one iteration is enough
    for phases in ("uniform_phase", "real_rademacher"):
        dlog = CoefficientDistribution(
            "double_log_slow_tail", beta=1.0, cap=690.0, phase_model=phases
        )
        polys = []
        for seed in range(4):
            c = sample_coefficients(dlog, 50, seed)
            polys.append(polynomial(c.lm, c.ph))
        for rs in aberth_solve_many(polys, max_iter=1):
            assert rs.converged and rs.residuals.max() <= 1e-11


def test_two_circle_draws_give_the_predicted_roots():
    # when the hull vertices are {0, tau, n}, both circles are binomial
    # blocks, so the solver returns the predicted roots to rounding: radii
    # bitwise, roots within 1e-14 relative
    dlog = CoefficientDistribution("double_log_slow_tail", beta=1.0, cap=690.0)
    checked = 0
    for n in (20, 50):
        for seed in range(40):
            c = sample_coefficients(dlog, n, seed)
            segs = _polygon_segments(*_exact_logmags(c.lm))
            if [a for _, a, _ in segs] + [n] != [0, c.tau, n]:
                continue
            checked += 1
            rs = aberth_solve(polynomial(c.lm, c.ph))
            pr = predicted_roots(c)
            assert rs.converged
            assert rs.lm.tobytes() == pr.lm.tobytes()
            dist = relative_distance_matrix(pr.lm, pr.ph, rs.lm, rs.ph)
            assert bottleneck_assignment(dist)[1] <= 1e-14
    assert checked >= 60


def test_a_circle_starts_at_its_binomial_roots_when_dominated():
    # one circle of 4 roots; the terms of powers 1 and 3 lie 100 nats below
    # the hull and are left out.  The term of power 2 lies exactly 64 nats
    # below it (kept) or 64.25 nats (left out), both far beyond the margin,
    # or just at it (3 nats) or just inside it (3 - 2^-10 nats)
    ph = np.array([0.3, 0.0, math.pi, 0.0, -1.2])
    cases = ((64.0, True, True), (64.25, False, True))
    cases += ((3.0, True, True), (3.0 - 2.0**-10, True, False))
    for depth, kept2, binomial in cases:
        lm = np.array([0.0, -100.0, -depth, -100.0, 0.0])
        ys, k = _exact_logmags(lm)
        kept = _kept(lm)
        (segs,) = _split_blocks(_polygon_segments(ys, k))
        _, _, pw, u0, *_ = _block_frames([(kept, ph[kept], ys, k, segs, 0)])
        assert pw.tolist() == ([0, 2, 4] if kept2 else [0, 4])
        if binomial:  # the roots of c_0 + c_4 u^4
            want = (math.pi + ph[0] - ph[4] + TAU * np.arange(4)) / 4
        else:  # equispaced, offset by a golden-ratio fraction of a turn
            want = TAU * (_GOLDEN + np.arange(4) / 4)
        assert np.abs(u0 - np.exp(1j * want)).max() <= 1e-15
        p = polynomial(lm, ph)
        # 64 nats down, the binomial's roots are the roots to rounding
        assert aberth_solve(p, max_iter=1).converged == (depth >= 64)
        assert aberth_solve(p).converged


def test_dominated_circles_of_one_block_settle_at_their_first_evaluation():
    # one block of three circles 30 nats apart, with 3, 2 and 4 roots; every
    # term inside a circle lies 40 nats below the hull and is kept.  At each
    # circle's radius its ends lead every other term by 40 nats (the nearest
    # other vertex lies 60 nats down), so every circle starts at its
    # binomial's roots, which are the roots to within e^-40; equispaced
    # starts need more than one step
    rng = np.random.default_rng(41)
    radii = np.repeat([-30.0, 0.0, 30.0], [3, 2, 4])
    lm = np.concatenate([[0.0], -np.cumsum(radii)])
    lm[[1, 2, 4, 6, 7, 8]] -= 40.0
    ys, k = _exact_logmags(lm)
    (block,) = _split_blocks(_polygon_segments(ys, k))
    assert len(block) == 3 and _kept(lm) == list(range(10))
    real = np.where(rng.random(10) < 0.5, 0.0, math.pi)
    for ph in (rng.uniform(-math.pi, math.pi, 10), real):
        rs = aberth_solve(polynomial(lm, ph), max_iter=1)
        assert rs.converged and rs.residuals.max() <= 1e-11


def test_every_sampled_family_converges_at_the_default_max_iter():
    # small degrees, where the choice between binomial and golden-ratio
    # starts matters most: real coefficients give conjugate-symmetric
    # binomial starts
    for variant in VARIANTS:
        for phases in PHASE_MODELS:
            dist = CoefficientDistribution(variant, phase_model=phases)
            polys = [
                polynomial(c.lm, c.ph)
                for n in (2, 3, 4, 5, 8, 13, 30)
                for c in (sample_coefficients(dist, n, seed) for seed in range(10))
            ]
            for rs in aberth_solve_many(polys):
                assert rs.converged, (variant, phases)


def test_scaling_all_coefficients_leaves_roots_in_place():
    rng = np.random.default_rng(61)
    scale = xcomplex(10.25, 1.234)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        coeffs = [
            xcomplex(float(rng.uniform(-3, 3)), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n + 1)
        ]
        base = aberth_solve(_poly(*coeffs))
        scaled = aberth_solve(
            _poly(
                *(
                    xcomplex(c.logmag + scale.logmag, wrap_phase(c.phase + scale.phase))
                    for c in coeffs
                )
            )
        )
        assert base.converged and scaled.converged
        dist = relative_distance_matrix(base.lm, base.ph, scaled.lm, scaled.ph)
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
        p = _poly(*coeffs)
        forward = aberth_solve(p)
        backward = aberth_solve(reverse(p))
        recip_lm, recip_ph = -forward.lm, -forward.ph
        _, worst = bottleneck_assignment(
            relative_distance_matrix(recip_lm, recip_ph, backward.lm, backward.ph)
        )
        assert worst <= 1e-8


# --- predicted two-circle roots ------------------------------------------------------


def test_predicted_roots_two_scale_quadratic():
    c = _vec(XONE, xcomplex(50.0, 0.0), XONE)
    pr = predicted_roots(c)
    assert pr.tau == 1 and pr.ph.size == 2
    assert pr.lm.tolist() == [-50.0, 50.0]
    assert all(phase_distance(ph, math.pi) <= 1e-12 for ph in pr.ph.tolist())


def test_predicted_roots_unit_square_roots():
    c = _vec(XONE, XZERO, XONE, XZERO, XONE, tau=2)
    pr = predicted_roots(c)
    phases = sorted(pr.ph[: pr.tau].tolist())
    assert phases == pytest.approx([-math.pi / 2.0, math.pi / 2.0], abs=1e-12)
    assert sorted(pr.ph[pr.tau :].tolist()) == pytest.approx(
        [-math.pi / 2.0, math.pi / 2.0], abs=1e-12
    )
    assert pr.lm.tolist() == [0.0] * 4


def test_predicted_roots_radius_formula():
    coeffs = [XONE] + [XZERO] * 4 + [xcomplex(100.0, 0.0)] + [XZERO] * 4 + [XONE]
    c = _vec(*coeffs, tau=5)
    pr = predicted_roots(c)
    assert pr.inner_radius == -20.0
    assert pr.outer_radius == 20.0
    assert pr.tau == 5
    assert pr.lm.tolist() == [-20.0] * 5 + [20.0] * 5
    assert pr.ph.size == 10 and not pr.ph.flags.writeable


def test_predicted_roots_rejects_degenerate_max_index():
    with pytest.raises(ValueError):
        predicted_roots(_vec(xcomplex(9.0, 0.0), XONE, XONE, tau=0))
    with pytest.raises(ValueError):
        predicted_roots(_vec(XONE, XONE, xcomplex(9.0, 0.0), tau=2))


def test_predicted_roots_match_solver_on_dominant_middle():
    c = _vec(XONE, xcomplex(80.0, 2.5), XONE)
    pr = predicted_roots(c)
    rs = aberth_solve(polynomial(c.lm, c.ph))
    worst = best_root_matching(_roots(rs), from_arrays(pr.lm, pr.ph))
    assert worst <= 1e-10


def test_predicted_roots_match_scalar_oracle_bitwise():
    # sampled vectors of every variant, with zero interior coefficients and
    # ties at the maximum made on purpose; radii and phases are bitwise equal
    rng = np.random.default_rng(606)
    vecs = []
    for v, variant in enumerate(VARIANTS):
        for n in (2, 7, 50, 300):
            vecs += [
                sample_coefficients(CoefficientDistribution(variant), n, 10 * v + s)
                for s in range(5)
            ]
    capped = CoefficientDistribution("double_log_slow_tail", beta=0.5, cap=8.0)
    vecs += [sample_coefficients(capped, 30, s) for s in range(5)]
    for c in vecs[::3]:
        lm, ph = c.lm.copy(), c.ph.copy()
        holes = rng.random(lm.size) < 0.3
        holes[[0, c.degree, c.tau]] = False
        lm[holes], ph[holes] = -math.inf, 0.0
        lm[[1, c.degree - 1]] = lm.max() + 1.0  # tied maxima
        vecs.append(CoefficientVector(lm, ph, int(np.argmax(lm)), 0, 0))
    checked = 0
    for c in vecs:
        if c.tau in (0, c.degree):
            continue
        checked += 1
        inner, outer = scalar_predicted_roots(from_arrays(c.lm, c.ph), c.tau)
        want_lm, want_ph = as_arrays(inner + outer)
        pr = predicted_roots(c)
        assert pr.lm.tobytes() == want_lm.tobytes()
        assert pr.ph.tobytes() == want_ph.tobytes()
        assert type(pr.inner_radius) is float and type(pr.outer_radius) is float
    assert checked >= 80
