"""Independent oracles the tests freeze their expectations against.

The closed-form quadratic and cubic solvers below work entirely in
log-magnitude/phase arithmetic, so they stay exact at coefficient scales the
ordinary quadratic formula cannot touch.  They share only the scalar substrate
with the iterative solver under test -- none of its Newton-polygon, blocking,
or iteration machinery -- and they are themselves cross-validated against
numpy.roots on moderate scales where both are trustworthy.

The assignment oracles answer bottleneck (minimax) matching questions by brute
force and by subset dynamic programming, for cross-checking the production
matcher on small instances; a plain binary search over every distinct
distance, with a Kuhn search that lists free columns at each step, gives the
exact permutations the production matcher must reproduce.

The block-frame oracles are slower, independent formulations of the solver's
frame arithmetic: the Newton-polygon hull, each term's depth below it and
the frame shift in Fraction arithmetic, a dense log-domain evaluation that
builds (n+1) x m arrays of term logs and phases in double-double arithmetic,
residuals of roots over every coefficient with term logs formed exactly, and
a block's whole frame, its circles' starts included, formed on its own, one
coefficient and one circle at a time.

The scalar-chain oracles compute, one XComplex or XReal at a time, what the
library computes on (logmag, phase) arrays: the relative distance of two
roots, the certificate events of a coefficient vector (XReal ratio lists,
xdiv, xlogsumexp, softplus) and the predicted two-circle roots.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from heavyroots.localization import CertificateEvents, threshold_logmag
from heavyroots.roots import _BINOMIAL_MARGIN, _DEAD, _GOLDEN, _LN2, _LN2_HI, _LN2_LO
from heavyroots.xnum import (
    EXP_MAX,
    TAU,
    XComplex,
    XMINUS_ONE,
    XONE,
    XReal,
    XR_ZERO,
    XZERO,
    SaturationError,
    from_complex,
    phase_distance,
    softplus,
    to_complex,
    wrap_phase,
    xabs,
    xadd,
    xdiv,
    xlogsumexp,
    xmul,
    xneg,
    xpow_int,
    xroot_k,
    xsub,
)

_OMEGA = XComplex(False, 0.0, 2.0 * math.pi / 3.0)  # primitive cube root of 1
_OMEGA2 = XComplex(False, 0.0, -2.0 * math.pi / 3.0)


def _scaled(x: XComplex, factor: float) -> XComplex:
    """x times a positive real scale given as exp(log factor)."""
    if x.zero:
        return XZERO
    return XComplex(False, x.logmag + factor, x.phase)


def quadratic_roots(c0: XComplex, c1: XComplex, c2: XComplex) -> list[XComplex]:
    """Both roots of c2 z^2 + c1 z + c0, c2 nonzero, in log-domain arithmetic.

    Uses the cancellation-free pairing: with D = c1^2 - 4 c2 c0 and s a square
    root of D, q = -(c1 + s)/2 for the sign that enlarges |c1 + s|; the roots
    are q/c2 and c0/q (Vieta), so neither root is formed by subtracting
    nearly equal quantities.
    """
    if c2.zero:
        raise ValueError("leading coefficient must be nonzero")
    disc = xsub(xmul(c1, c1), _scaled(xmul(c2, c0), math.log(4.0)))
    if disc.zero:
        z = xneg(xdiv(c1, _scaled(c2, math.log(2.0))))
        return [z, z]
    s = xroot_k(disc, 2)[0]
    plus = xadd(c1, s)
    minus = xsub(c1, s)
    big = plus if (minus.zero or (not plus.zero and plus.logmag >= minus.logmag)) else minus
    q = xneg(_scaled(big, -math.log(2.0)))
    first = xdiv(q, c2)
    if c0.zero:
        return [first, XZERO]
    return [first, xdiv(c0, q)]


def cubic_roots(
    c0: XComplex, c1: XComplex, c2: XComplex, c3: XComplex
) -> list[XComplex]:
    """All three roots of c3 z^3 + c2 z^2 + c1 z + c0 in log-domain arithmetic.

    Cardano on the depressed cubic t^3 + p t + q (with w^3 the larger of
    -q/2 +- sqrt(q^2/4 + p^3/27), avoiding cancellation) is only trusted for
    the root of largest modulus: undoing the shift z = t - a/3 cancels deeply
    for roots far below |a|/3, but never for the largest root, whose modulus
    bounds |a|/3.  The other two are recovered from coefficient ratios --
    their product is (-c0/c3)/z_max, their sum (c1/c3 - product)/z_max -- and
    the cancellation-free quadratic, keeping every root near full relative
    accuracy at arbitrary magnitude spreads.
    """
    if c3.zero:
        raise ValueError("leading coefficient must be nonzero")
    a = xdiv(c2, c3)
    b = xdiv(c1, c3)
    c = xdiv(c0, c3)
    third_a = _scaled(a, -math.log(3.0))
    p = xsub(b, _scaled(xmul(a, a), -math.log(3.0)))
    q = xadd(
        xsub(_scaled(xpow_int(a, 3), math.log(2.0 / 27.0)),
             _scaled(xmul(a, b), -math.log(3.0))),
        c,
    )
    if p.zero and q.zero:
        return [xneg(third_a)] * 3
    if p.zero:
        ts = xroot_k(xneg(q), 3)
    else:
        half_q = _scaled(q, -math.log(2.0)) if not q.zero else XZERO
        inner = xadd(
            xmul(half_q, half_q),
            _scaled(xpow_int(p, 3), -math.log(27.0)),
        )
        u = XZERO if inner.zero else xroot_k(inner, 2)[0]
        cand_plus = xadd(xneg(half_q), u)
        cand_minus = xsub(xneg(half_q), u)
        if cand_plus.zero:
            w3 = cand_minus
        elif cand_minus.zero:
            w3 = cand_plus
        else:
            w3 = cand_plus if cand_plus.logmag >= cand_minus.logmag else cand_minus
        w = xroot_k(w3, 3)[0]
        w_pair = xneg(xdiv(p, _scaled(w, math.log(3.0))))
        ts = []
        for m in range(3):
            rot = XComplex(False, 0.0, 2.0 * math.pi * m / 3.0)
            rot_inv = XComplex(False, 0.0, -2.0 * math.pi * m / 3.0)
            ts.append(xadd(xmul(rot, w), xmul(rot_inv, w_pair)))
    zs = [xsub(t, third_a) for t in ts]
    z_max = zs[0]
    for z in zs[1:]:
        if z_max.zero or (not z.zero and z.logmag > z_max.logmag):
            z_max = z
    if z_max.zero:
        return zs
    pair_product = xdiv(xneg(c), z_max)
    pair_sum = xdiv(xsub(b, pair_product), z_max)
    return [z_max] + quadratic_roots(pair_product, xneg(pair_sum), XONE)


def numpy_reference_roots(coeffs: list[XComplex]) -> list[XComplex]:
    """numpy.roots on ordinary complex values; only sane for moderate logmags."""
    arr = np.array([to_complex(c) for c in coeffs][::-1])
    return [from_complex(complex(z)) for z in np.roots(arr)]


def relative_error(z: XComplex, w: XComplex) -> float:
    """|z - w| / |w|, stable down to one ulp; w must be nonzero.

    Writing z/w = exp(d + i*t) gives |z/w - 1| = hypot(expm1(d)*cos(t)
    - 2*sin(t/2)**2, exp(d)*sin(t)), which keeps full precision where a
    log-domain subtraction would cancel catastrophically.
    """
    if z.zero:
        return 1.0
    d = z.logmag - w.logmag
    if d > 700.0:
        return math.inf
    t = phase_distance(z.phase, w.phase)
    re = math.expm1(d) * math.cos(t) - 2.0 * math.sin(0.5 * t) ** 2
    im = math.exp(d) * math.sin(t)
    return math.hypot(re, im)


def best_root_matching(
    computed: list[XComplex], expected: list[XComplex]
) -> float:
    """Smallest worst-case relative error over all pairings (len <= 4)."""
    best = math.inf
    idx = range(len(expected))
    for perm in itertools.permutations(idx):
        worst = max(
            relative_error(computed[i], expected[perm[i]]) for i in idx
        )
        best = min(best, worst)
    return best


def brute_bottleneck(cost: np.ndarray) -> float:
    """Minimax assignment value by exhausting all permutations (m <= 7)."""
    m = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(m)):
        worst = max(cost[i][perm[i]] for i in range(m))
        best = min(best, worst)
    return best


def dp_bottleneck(cost: np.ndarray) -> float:
    """Minimax assignment by subset DP, O(m 2^m); cross-check for m <= 12."""
    m = cost.shape[0]
    full = 1 << m
    dp = np.full(full, math.inf)
    dp[0] = -math.inf
    for mask in range(1, full):
        i = bin(mask).count("1") - 1
        best = math.inf
        rest = mask
        while rest:
            j = (rest & -rest).bit_length() - 1
            prev = dp[mask ^ (1 << j)]
            best = min(best, max(prev, cost[i][j]))
            rest &= rest - 1
        dp[mask] = best
    return float(dp[full - 1])


def _kuhn_matching_under(dist: np.ndarray, limit: float) -> np.ndarray | None:
    """Row->col perfect matching using only entries <= limit, else None."""
    m = dist.shape[0]
    adj = dist <= limit
    match_col = np.full(m, -1, dtype=np.int64)

    def free_cols(i: int, visited: np.ndarray) -> list[int]:
        return np.flatnonzero(adj[i] & ~visited).tolist()

    for root in range(m):
        visited = np.zeros(m, dtype=bool)
        stack = [[root, free_cols(root, visited), 0]]
        path: list[int] = []
        while stack:
            frame = stack[-1]
            i, cols, pos = frame
            if pos == len(cols):
                stack.pop()
                if path:
                    path.pop()
                continue
            j = cols[pos]
            frame[2] = pos + 1
            visited[j] = True
            if match_col[j] < 0:
                match_col[j] = i
                for d, col in enumerate(path):
                    match_col[col] = stack[d][0]
                break
            path.append(j)
            k = int(match_col[j])
            stack.append([k, free_cols(k, visited), 0])
        else:
            return None
    perm = np.full(m, -1, dtype=np.int64)
    for j in range(m):
        perm[int(match_col[j])] = j
    return perm


def search_bottleneck(dist: np.ndarray) -> tuple[np.ndarray, float]:
    """Bottleneck assignment by binary search over all distinct distances."""
    values = np.unique(dist)
    lo, hi = 0, len(values) - 1
    best = _kuhn_matching_under(dist, float(values[hi]))
    best_val = float(values[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        perm = _kuhn_matching_under(dist, float(values[mid]))
        if perm is not None:
            best, best_val = perm, float(values[mid])
            hi = mid
        else:
            lo = mid + 1
    return best, best_val


def fraction_polygon_segments(lm) -> list[tuple[Fraction, int, int]]:
    """Newton-polygon segments (radius, j_lo, j_hi) from a Fraction hull.

    lm holds the coefficient log-magnitudes, -inf for zero coefficients.
    """
    xs = [j for j, v in enumerate(lm) if math.isfinite(v)]
    ys = [Fraction(float(lm[j])) for j in xs]
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (ys[i1] - ys[i0]) * (
                xs[i] - xs[i0]
            )
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return [
        ((ys[a] - ys[b]) / (xs[b] - xs[a]), xs[a], xs[b])
        for a, b in zip(hull, hull[1:])
    ]


def fraction_frame_shift(lm, sigma: Fraction, anchor: int) -> np.ndarray:
    """lm_j + j sigma - (lm_anchor + anchor sigma), each rounded once."""
    base = Fraction(float(lm[anchor])) + anchor * sigma
    shift = np.empty(len(lm))
    for j, v in enumerate(lm):
        v = float(v)
        if not math.isfinite(v):
            shift[j] = -math.inf
            continue
        try:
            shift[j] = float(Fraction(v) + j * sigma - base)
        except OverflowError:
            shift[j] = math.inf if Fraction(v) + j * sigma > base else -math.inf
    return shift


def _block_terms(lm, segs) -> tuple:
    """(sigma, alo, ahi, anchor, shift, js) of the block of hull segments segs
    framed on its own: its frame center and window, its anchor power, every
    coefficient's shift in Fraction arithmetic, and the powers within float
    reach of the anchor term somewhere in the window."""
    radii = [r for r, _, _ in segs]
    sigma = (min(radii) + max(radii)) / 2
    alo = max(float(min(radii) - sigma) - 100.0, -600.0)
    ahi = min(float(max(radii) - sigma) + 100.0, 600.0)
    anchor = segs[0][1]
    shift = fraction_frame_shift(lm, sigma, anchor)
    if np.any(shift == math.inf):
        raise SaturationError("coefficient magnitudes overflow the block frame")
    jrel = np.arange(shift.size) - float(anchor)
    js = np.flatnonzero(shift + np.maximum(jrel * alo, jrel * ahi) >= -_DEAD)
    return sigma, alo, ahi, anchor, shift, js


def dominated_circles(lm, segs) -> list[bool]:
    """Per hull circle (r, a, b) of the block segs, whether it starts at its
    binomial's roots, decided one circle and one term at a time.

    lm holds -inf for every term left out of the tables.  At the circle's
    frame radius rho = r - sigma, term j lies shift_j + (j - anchor) rho nats
    above the anchor term; the circle is dominated when a and b are both
    kept and every other kept term lies at least _BINOMIAL_MARGIN nats below
    both.
    """
    sigma, _, _, anchor, shift, js = _block_terms(lm, segs)
    out = []
    for r, a, b in segs:
        rho = float(r - sigma)
        level = {j: float(shift[j]) + (j - float(anchor)) * rho for j in js.tolist()}
        others = [v for j, v in level.items() if j not in (a, b)]
        out.append(
            a in level
            and b in level
            and min(level[a], level[b]) - max(others, default=-math.inf)
            >= _BINOMIAL_MARGIN
        )
    return out


def block_frame(lm, ph, segs, t0: int) -> tuple:
    """The frame of the block of hull segments segs, formed on its own, in
    the layout of _block_frames for a group of one block.

    lm holds -inf for every term left out of the tables.  Every coefficient's
    shift is taken in Fraction arithmetic, the terms out of float reach are
    dropped for this block alone, and the initial iterates are laid out one
    circle at a time; t0 counts the segments of lower blocks.  A circle that
    dominated_circles marks starts at the roots of its binomial, every other
    circle at golden-ratio-offset equispaced points.
    """
    sigma, alo, ahi, anchor, shift, js = _block_terms(lm, segs)
    dominated = dominated_circles(lm, segs)
    shift = shift[js]
    ec = np.floor(shift / _LN2)
    rem = (shift - ec * _LN2_HI) - ec * _LN2_LO
    mc = np.exp(rem) * np.exp(1j * ph[js])
    jc = js * mc
    circles = []
    for t, ((r, j1, j2), binomial) in enumerate(zip(segs, dominated)):
        m = j2 - j1
        if binomial:
            off = (math.pi + ph[j1] - ph[j2]) / m
        else:
            off = TAU * (((t0 + t + 1) * _GOLDEN) % 1.0)
        phases = off + TAU * np.arange(m) / m
        circles.append(math.exp(float(r - sigma)) * np.exp(1j * phases))
    m = segs[-1][2] - anchor
    return (
        np.stack([mc.real, mc.imag, jc.real, jc.imag, np.abs(mc)])[..., None],
        ec.astype(np.int64)[:, None],
        js - js[0],
        np.concatenate(circles),
        np.full(m, float(anchor)),
        np.full(m, math.exp(alo)),
        np.full(m, math.exp(ahi)),
        np.array([m]),
        [sigma],
    )


def _two_product(j, x):
    """(p, e) with p + e == j * x exactly, for integer-valued j < 2**26:
    Veltkamp splits x into two halves whose products with j are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    xh = c - (c - x)
    p = j * x
    return p, (j * xh - p) + j * (x - xh)


def _cos_sin(a: Decimal) -> tuple[Decimal, Decimal]:
    """cos a and sin a, |a| <= pi, from the Taylor series of e^(ia) in the
    current Decimal context."""
    cs = [Decimal(0), Decimal(0)]
    t, k = Decimal(1), 0
    while abs(t) > Decimal("1e-60"):
        cs[k % 2] += -t if k % 4 >= 2 else t
        k += 1
        t = t * a / k
    return cs[0], cs[1]


def _log_arg(z: complex) -> tuple[float, float, float, float]:
    """(lh, ll, ah, al) with lh + ll == log|z| and ah + al == arg z to about
    40 digits, for z != 0.  log|z| is half the Decimal logarithm of the exact
    x^2 + y^2.  arg z is atan2's float ah plus atan t, where z e^(-i ah) has
    argument atan t; |t| is about an ulp of ah, so atan t == t far below
    rounding."""
    x, y = Decimal(z.real), Decimal(z.imag)
    with localcontext() as ctx:
        ctx.prec = 50
        log = (x * x + y * y).ln() / 2
        ah = math.atan2(z.imag, z.real)
        c, s = _cos_sin(Decimal(ah))
        t = (y * c - x * s) / (x * c + y * s)
        lh = float(log)
        return lh, float(log - Decimal(lh)), ah, float(t)


def dense_frame_sums(shift, ph, u):
    """(p(u), u p'(u), sum_j |c_j||u|^j) for c_j = e^(shift_j + i ph_j).

    All three are divided by one positive factor per point, the largest term
    modulus.  Every term is formed from its logarithm and phase, as an
    (n+1) x m array.  Float products j log|u| and j arg u would be off by j
    ulps of log|u| and arg u, 1e-12 at j = 500 and log|u| = 18, more than the
    kernel under test; so log|u| and arg u are taken to 40 digits (_log_arg)
    and split into two floats each, and the products and the sum with
    shift_j are carried in double-double arithmetic.  Each term is then
    accurate to a few roundings.
    """
    lh, ll, ah, al = np.array([_log_arg(z) for z in u.tolist()]).reshape(-1, 4).T
    fin = np.isfinite(shift)  # a zero term adds 0
    jpow = np.flatnonzero(fin).astype(np.float64)[:, None]
    sh = np.asarray(shift)[fin][:, None]
    # j log|u| == p + e + j ll to rounding, and s + tail == sh + j log|u|
    p, e = _two_product(jpow, lh)
    s = sh + p
    back = s - sh
    tail = ((sh - (s - back)) + (p - back)) + e + jpow * ll
    w = np.exp((s - s.max(axis=0)) + tail)
    p, e = _two_product(jpow, ah)  # j arg u == p + e + j al to rounding
    turn = np.exp(1j * np.asarray(ph)[fin][:, None]) * np.exp(1j * p)
    terms = w * turn * np.exp(1j * (e + jpow * al))
    return terms.sum(axis=0), (jpow * terms).sum(axis=0), w.sum(axis=0)


def fraction_hull_depths(lm) -> list[Fraction | None]:
    """How far each term lies below the Newton polygon, in nats, exactly.

    lm holds the coefficient log-magnitudes; zero coefficients (-inf) give
    None.  Vertices and points on a hull edge give 0.
    """
    segs = fraction_polygon_segments(lm)
    depths: list[Fraction | None] = [None] * len(lm)
    for r, a, b in segs:
        top = Fraction(float(lm[a]))
        for j in range(a, b + 1):
            if math.isfinite(lm[j]):
                depths[j] = top - r * (j - a) - Fraction(float(lm[j]))
    return depths


def full_residuals(lm, ph, root_lm, root_ph) -> np.ndarray:
    """|p(z)| / sum_j |c_j||z|^j at each root z, over every coefficient.

    With z = e^(root_lm + i root_ph), the term logs lm_j + j root_lm are
    formed exactly as integers over one power of two and rounded once
    relative to the largest, so the terms are as accurate at scale 1e300 as
    at 1; dense_frame_sums then sums them at e^(i root_ph).
    """
    fin = [j for j, v in enumerate(lm) if math.isfinite(v)]
    vals = [Fraction(float(lm[j])) for j in fin]
    roots = [Fraction(float(r)) for r in root_lm]
    den = max(v.denominator for v in vals + roots)  # a power of two
    ys = [int(v * den) for v in vals]
    out = []
    for r, t in zip(roots, np.asarray(root_ph).tolist()):
        s = int(r * den)
        logs = [y + j * s for j, y in zip(fin, ys)]
        top = max(logs)
        shift = np.full(len(lm), -math.inf)
        for j, x in zip(fin, logs):
            try:
                shift[j] = (x - top) / den
            except OverflowError:
                pass  # below the float range: the term adds 0
        p, _, a = dense_frame_sums(shift, ph, np.array([np.exp(1j * t)]))
        out.append(abs(p[0]) / a[0])
    return np.array(out)


def relative_distance(z: XComplex, w: XComplex) -> float:
    """|z/w - 1| as a float; inf when the ratio overflows the float range."""
    d = xadd(xdiv(z, w), XMINUS_ONE)
    if d.zero:
        return 0.0
    if d.logmag > EXP_MAX:
        return math.inf
    return math.exp(d.logmag)


def _scalar_product_condition(a: list[XReal], k: int) -> bool:
    n = len(a) - 1
    s = 0.0
    for j, v in enumerate(a):
        if j != k and v.sign == 1:
            s += softplus(v.logmag)
    rhs = softplus(a[k].logmag) if a[k].sign == 1 else 0.0
    return 2.0 * n * n * s <= rhs


def _scalar_matching_condition(monic: list[XComplex], k: int, eps: float) -> bool:
    n = len(monic) - 1
    if monic[k].zero:
        return False
    total = xlogsumexp([xabs(c) for j, c in enumerate(monic) if j != k])
    rhs = (
        math.log1p(-eps / n)
        + (n - k) * math.log(eps / (n + eps))
        + monic[k].logmag / (n - k)
    )
    return total.logmag <= rhs


def _scalar_max_dominates(coeffs: list[XComplex], tau: int, delta: float) -> bool:
    others = xlogsumexp([xabs(x) for j, x in enumerate(coeffs) if j != tau])
    if others.sign == 0:
        return True
    top = coeffs[tau]
    if top.zero:
        return False
    return top.logmag > delta + others.logmag


def scalar_certificate_events(
    coeffs: list[XComplex], tau: int, eps: float, delta: float | None = None
) -> CertificateEvents:
    """evaluate_certificate_events, one scalar at a time."""
    n = len(coeffs) - 1
    md = _scalar_max_dominates(coeffs, tau, delta) if delta is not None else None
    if tau == 0 or tau == n:
        return CertificateEvents(False, False, False, True, eps, delta, md)
    lead = coeffs[n]
    ratios = [
        XReal(1, x.logmag - lead.logmag) if not x.zero else XR_ZERO for x in coeffs
    ]
    pd = _scalar_product_condition(ratios, tau)
    tm = ratios[tau].sign != 0 and ratios[tau].logmag >= threshold_logmag(n, eps)
    mb = _scalar_matching_condition([xdiv(x, lead) for x in coeffs], tau, eps)
    return CertificateEvents(pd, tm, mb, False, eps, delta, md)


def scalar_predicted_roots(
    coeffs: list[XComplex], tau: int
) -> tuple[list[XComplex], list[XComplex]]:
    """(inner, outer): the roots of z^tau = -c_0/c_tau and of
    z^(n-tau) = -c_tau/c_n, each radius rounded once from the exact value."""
    n = len(coeffs) - 1

    def circle(num: XComplex, den: XComplex, k: int) -> list[XComplex]:
        base = xneg(xdiv(num, den))
        lm = float((Fraction(num.logmag) - Fraction(den.logmag)) / k)
        return [
            XComplex(False, lm, wrap_phase((base.phase + TAU * m) / k))
            for m in range(k)
        ]

    return (
        circle(coeffs[0], coeffs[tau], tau),
        circle(coeffs[tau], coeffs[n], n - tau),
    )
