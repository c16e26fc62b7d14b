"""Polynomial container, Newton-polygon analysis, and the root solver.

A Polynomial, a RootSet and a PredictedRoots hold read-only (logmag, phase)
float64 arrays, the one representation of xvec (exact zero is logmag =
-inf); polynomial and trim are the validating constructors.

Coefficient magnitudes can span thousands of nats, so no fixed-precision
method applied to raw values is meaningful.  The solver therefore works on the
Newton polygon of the coefficients: the upper convex hull of (j, logmag c_j)
groups the root moduli into circles, circles separated by a large radial gap
are solved as independent blocks, and each block runs a simultaneous
Newton-with-repulsion (Ehrlich-Aberth) iteration in a locally rescaled frame
where the iterates fit ordinary complex arithmetic.

Every float is a dyadic rational, so the log-magnitudes scaled by one power of
two are exact integers: the hull, its radii and each block's frame shifts are
computed exactly and rounded once.  In the frame a coefficient is a complex
mantissa times an integer power of two, and p(u), u p'(u) and sum_j |c_j||u|^j
are summed over chunks of powers whose scales are integer exponents too.  A
block's view of the polynomial is therefore accurate to rounding no matter how
enormous the remaining coefficients are, in memory linear in the degree and
the block size.  Two kinds of term are left out of a block's tables: terms
more than e^800 below the block's own, and, once per polynomial, terms more
than 64 nats below the Newton polygon (decided exactly).  By concavity of the
hull the latter are below e^-64 times the largest term at every |z|, so
together they stay under one rounding of the sums; with heavy tails they are
almost every term, and a table holds only the kept powers.  A root whose last
relative correction is at most tol is frozen: it still repels the others but
is neither evaluated nor moved again (the rule MPSolve uses).

Initial iterates sit on the hull circles.  At the radius of a circle (a, b)
its end terms c_a z^a and c_b z^b are equal; when they lead every other term
its block keeps by at least _BINOMIAL_MARGIN nats there, the polynomial near
the circle is that binomial up to small terms, and the circle starts at the
binomial's roots, known in closed form.  A block of one circle whose table
keeps only its two end terms is the binomial to within rounding and settles
at its first evaluation; when the hull vertices are {0, tau, n} both of the
paper's circles are such blocks.  Every other circle starts at equispaced
points offset by a golden-ratio fraction of a turn, different on each circle:
the roots of a binomial are symmetric about the real axis when its
coefficients are real, the iteration keeps real-coefficient iterates
symmetric, and where other terms come close to the end terms that symmetry
can hold the iterates away from the roots for many steps.

The simultaneous update of a root depends only on its own block, so the small
blocks of many polynomials iterate together as one stacked array, each with
its own stop rule.  The frames of each such iteration group are built in one
pass, straight into the stacked tables the iteration reads; aberth_solve is
the one-polynomial case of aberth_solve_many.

Residuals are relative backward errors |p(z)| / sum_j |c_j||z|^j of the whole
polynomial; a RootSet only reports converged = True when every residual is at
or below 1e-10.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sampler import CoefficientVector
from .xnum import TAU, SaturationError
from .xvec import freeze, wrap_phase_vec

_GOLDEN = 0.6180339887498949
_BLOCK_GAP = 60.0  # nats between circle radii that force a block split
_BLOCK_SPREAD = 500.0  # maximum radial extent of one block frame
_RESIDUAL_OK = 1e-10  # converged RootSets guarantee residuals at or below this
_RESIDUAL_STOP = 1e-11  # per-root early stop on relative backward error
_STEP_MAX = math.exp(50.0)  # a correction never exceeds e^50 times the iterate
_DEAD = 800.0  # nats below the anchor term: beyond float range, left out
_NEGLIGIBLE = 64  # nats below the Newton polygon: below rounding, left out
_EXP_FLOOR = -(1 << 52)  # exponent of a power a stacked block lacks; sums fit int64
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01  # _LN2_HI + _LN2_LO == ln 2; k * _LN2_HI
_LN2_LO = 1.90821492927058770002e-10  # is exact for |k| < 2**21
_CHUNK_ROWS = 64  # powers per evaluation chunk; |uh^i| >= 2**-i stays normal
_EVAL_ELEMS = 1 << 15  # entries (powers x points) in one evaluation chunk
_GATHER_ELEMS = 1 << 13  # the same, and row chunk, when points gather by block
_PAIR_ELEMS = 1 << 17  # pairwise root differences, or circle x term pairs, per chunk
# nats by which a circle's end terms must lead every other term of its block
# for the circle to start at its binomial's roots.  Real coefficients give
# conjugate-symmetric binomial starts: at a margin of 0 or 1 they cost real
# quadratics up to 6.7x or 2.35x the evaluations of equispaced starts.  At 2,
# 3 and 4 the worst sampled family needs 1.0009x, 1.0008x and 1.0029x, the
# noise of one moved start in a large undominated circle; 3 keeps a nat of
# headroom
_BINOMIAL_MARGIN = 3.0
_BATCH_ROOTS = 64  # blocks up to this size share one stacked iteration


@dataclass(frozen=True, slots=True, eq=False)
class Polynomial:
    """Coefficients as read-only (logmag, phase) arrays, lowest power first;
    both ends nonzero.  Build one with polynomial or trim, which validate."""

    lm: np.ndarray
    ph: np.ndarray

    def __post_init__(self) -> None:
        freeze(self.lm, self.ph)

    @property
    def degree(self) -> int:
        return self.lm.size - 1


@dataclass(frozen=True, slots=True, eq=False)
class RootSet:
    """Roots as read-only (logmag, phase) arrays, sorted by logmag then phase,
    with the relative backward error of each."""

    lm: np.ndarray
    ph: np.ndarray
    residuals: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        freeze(self.lm, self.ph, self.residuals)


@dataclass(frozen=True, slots=True, eq=False)
class PredictedRoots:
    """Closed-form roots of the two dominant-coefficient binomial equations:
    tau roots of log-modulus inner_radius, then the rest at outer_radius,
    with their phases in one read-only array in that order."""

    tau: int
    inner_radius: float
    outer_radius: float
    ph: np.ndarray

    def __post_init__(self) -> None:
        freeze(self.ph)

    @property
    def lm(self) -> np.ndarray:
        """Log-moduli of all the roots, inner then outer."""
        counts = [self.tau, self.ph.size - self.tau]
        return np.repeat([self.inner_radius, self.outer_radius], counts)


def _checked(lm, ph) -> tuple[np.ndarray, np.ndarray]:
    """Copies of lm and ph as float64 arrays, after checking that they are
    one coefficient vector: equal 1-D shapes, no NaN, no logmag = +inf and
    finite phases.  A zero coefficient is logmag = -inf."""
    lm = np.array(lm, dtype=np.float64)
    ph = np.array(ph, dtype=np.float64)
    if lm.ndim != 1 or lm.shape != ph.shape:
        raise ValueError("logmag and phase must be 1-D arrays of one length")
    if np.isnan(lm).any() or (lm == math.inf).any() or not np.isfinite(ph).all():
        raise ValueError("invalid component in a coefficient vector")
    return lm, ph


def polynomial(lm, ph) -> Polynomial:
    """The polynomial with coefficients exp(lm[j] + i ph[j]), validated."""
    lm, ph = _checked(lm, ph)
    if lm.size == 0:
        raise ValueError("empty coefficient list")
    if lm[0] == -math.inf or lm[-1] == -math.inf:
        raise ValueError("constant and leading coefficients must be nonzero")
    return Polynomial(lm, ph)


def trim(lm, ph) -> tuple[Polynomial, int, int]:
    """Strip zero coefficients at both ends.

    Returns (polynomial, zero_root_multiplicity, degree_deficit): the number
    of exact zero roots stripped from the low end and the drop in degree from
    the high end.
    """
    lm, ph = _checked(lm, ph)
    nonzero = np.flatnonzero(lm != -math.inf)
    if nonzero.size == 0:
        raise ValueError("all coefficients are zero")
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    return Polynomial(lm[lo : hi + 1], ph[lo : hi + 1]), lo, lm.size - 1 - hi


def reverse(p: Polynomial) -> Polynomial:
    """Coefficients in reverse order; roots become reciprocals."""
    return Polynomial(p.lm[::-1], p.ph[::-1])


def _exact_logmags(lm: np.ndarray) -> tuple[list[int | None], int]:
    """Log-magnitudes as exact integers over one power of two.

    Every float is a dyadic rational, so with k the largest binary exponent
    needed, lm[j] == ys[j] / 2**k holds exactly; zero coefficients (lm = -inf)
    give None.  Exact integers keep hull tests and frame shifts free of
    rounding even at scale 1e300, where a float difference of two
    log-magnitudes is off by whole nats.
    """
    fin = np.isfinite(lm)
    mant, ex = np.frexp(np.where(fin, lm, 0.0))
    sig = (mant * 2.0**53).astype(np.int64)  # exact: 53-bit significands
    ex = ex.astype(np.int64) - 53
    k = max(0, -int(ex[fin].min()))
    ys = [
        (s << (e + k)) if f else None
        for s, e, f in zip(sig.tolist(), ex.tolist(), fin.tolist())
    ]
    return ys, k


def _upper_hull(xs: list[int], ys: list[int]) -> list[int]:
    """Indices of the upper convex hull vertices, left to right.

    The cross products are exact integers, so the hull is the true hull of
    the coefficient exponents even when those exponents are astronomically
    large and a float cross product would be all rounding noise.
    """
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (ys[i1] - ys[i0]) * (
                xs[i] - xs[i0]
            )
            if cross >= 0:  # middle point on or below the chord
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _polygon_segments(ys: list[int | None], k: int) -> list[tuple[Fraction, int, int]]:
    """Hull segments as (modulus logmag, j_lo, j_hi), ascending in modulus.

    ys and k are the exact log-magnitudes from _exact_logmags.  Radii stay
    exact rationals: a float radius at scale 1e20 or beyond has an absolute
    rounding error of whole nats, enough to misgroup segments into blocks and
    to push a block's balance point out of the representable frame.
    """
    # hull positions must be the true exponents: zero coefficients leave gaps,
    # and a hull taken over compressed positions picks the wrong vertices
    xs = [j for j, y in enumerate(ys) if y is not None]
    vs = [ys[j] for j in xs]
    hull = _upper_hull(xs, vs)
    return [
        (Fraction(vs[a] - vs[b], (xs[b] - xs[a]) << k), xs[a], xs[b])
        for a, b in zip(hull, hull[1:])
    ]


def _negligible(ys: list[int | None], k: int, segs) -> list[bool]:
    """True for each coefficient more than _NEGLIGIBLE nats below the hull.

    ys and k are the exact log-magnitudes from _exact_logmags and segs the
    hull segments from _polygon_segments, so the test is exact integer
    arithmetic at every scale; hull vertices, points on a hull edge and zero
    coefficients are never marked.  The hull is concave, so at every |z| a
    marked term is below e^-64 times the largest term: the terms left out
    change p(z), z p'(z) and sum_j |c_j||z|^j by at most (n+1)^2 e^-64 of
    sum_j |c_j||z|^j, less than one rounding for n below 8e5.
    """
    out = [False] * len(ys)
    cut = _NEGLIGIBLE << k
    for _, a, b in segs:
        ya, w = ys[a], b - a
        rise = ys[b] - ya
        floor = ya * w - cut * w  # the hull minus the cut, times w, at a
        for j in range(a + 1, b):
            y = ys[j]
            if y is not None and y * w < floor + rise * (j - a):
                out[j] = True
    return out


def newton_polygon_radii(p: Polynomial) -> list[tuple[float, int]]:
    """(modulus_logmag, count) per hull segment; counts sum to the degree."""
    segs = _polygon_segments(*_exact_logmags(p.lm))
    return [(float(r), j2 - j1) for r, j1, j2 in segs]


def _split_blocks(
    segs: list[tuple[Fraction, int, int]],
) -> list[list[tuple[Fraction, int, int]]]:
    """Group radially adjacent circles; split at big gaps or excessive spread."""
    blocks = [[segs[0]]]
    for seg in segs[1:]:
        cur = blocks[-1]
        if (seg[0] - cur[-1][0]) >= _BLOCK_GAP or (seg[0] - cur[0][0]) > _BLOCK_SPREAD:
            blocks.append([seg])
        else:
            cur.append(seg)
    return blocks


def _initial_iterates(scale, off, m) -> np.ndarray:
    """Equispaced points on every circle, built in one pass: per circle, the
    radius scale (a float in the frame of the circle's block), the phase
    offset off of its first point and its number of roots m."""
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    phases = np.repeat(off, m) + TAU * k / np.repeat(m, m)
    return np.repeat(scale, m) * np.exp(1j * phases)


def _frame_shift(js, ys, k: int, sigma: Fraction, anchor: int) -> list[float]:
    """ln|c_j e^(j sigma)| - ln|c_anchor e^(anchor sigma)| for each power j
    in js.

    ys and k are the exact log-magnitudes from _exact_logmags, and js lists
    only the powers a block's tables can hold, so terms left out of the
    polynomial cost nothing here.  Each value is formed exactly and rounded
    once, by one int / int division; values below the float range give
    -inf, and values above it raise SaturationError.
    """
    sn = sigma.numerator << k
    sd = sigma.denominator
    den = sd << k
    ya = ys[anchor]
    shift = []
    for j in js:
        num = (ys[j] - ya) * sd + (j - anchor) * sn
        try:
            shift.append(num / den)
        except OverflowError:
            if num > 0:
                raise SaturationError(
                    "coefficient magnitudes overflow the block frame"
                ) from None
            shift.append(-math.inf)
    return shift


def _frame_coefficients(shift, js, jrel, ph, alo, ahi):
    """Frame coefficients c_j = e^(shift_j + i ph_j), scaled by powers of 2.

    Every argument holds one entry per candidate term, and the terms of many
    blocks may sit side by side: shift, the power js, jrel = js minus the
    power of the term's block anchor (a float), the phase ph and the block's
    frame window [alo, ahi] of log-radii.  A term more than _DEAD nats below
    the anchor term at every frame radius of its window cannot reach the
    sums, and a term with shift -inf is negligible; both are left out.
    Returns (keep, coef, ec): the mask of the terms kept and, per kept term,
    a column of coef holding the real and imaginary parts of c_j / 2**ec[i]
    and of j c_j / 2**ec[i], then |c_j| / 2**ec[i], which lies in [1, 2).
    """
    keep = shift + np.maximum(jrel * alo, jrel * ahi) >= -_DEAD
    shift = shift[keep]
    # e^shift = 2**ec e^rem with e^rem in [1, 2)
    ec = np.floor(shift / _LN2)
    rem = (shift - ec * _LN2_HI) - ec * _LN2_LO
    mc = np.exp(rem) * np.exp(1j * ph[keep])
    jc = js[keep] * mc
    coef = np.stack([mc.real, mc.imag, jc.real, jc.imag, np.abs(mc)])
    return keep, coef, ec.astype(np.int64)


def _pow2(d: np.ndarray) -> np.ndarray:
    """2.0**d for integer arrays d <= 0, built in place from the exponent
    bits (d is overwritten); values below the normal range (d < -1022) flush
    to zero."""
    np.maximum(d, -1023, out=d)
    d += 1023
    d <<= 52
    return d.view(np.float64)


def _evaluate(
    u: np.ndarray, coef: np.ndarray, ec: np.ndarray, pw: np.ndarray, at=None
):
    """Scaled sums of the frame coefficients at the points u.

    coef (5, cols, blocks) and ec (cols, blocks) hold the frame coefficients
    of one or more blocks side by side, column i for the power pw[i] above
    the block's lowest kept power j0 (pw ascending, pw[0] = 0); a block
    without a term at that power has zero mantissa and exponent _EXP_FLOOR
    there.  at[i] is the block of point i, or None when there is one block,
    whose coefficients then broadcast over the points without a per-point
    gather.  With c_i the point's coefficient in column i and j_i its power,
    returns s0 = sum c_i u^pw[i], s1 = sum j_i c_i u^pw[i] and
    s2 = sum |c_i| |u|^pw[i]: p(u), u p'(u) and sum |c_j| |u|^j, each divided
    by u^j0 (or |u|^j0) and by one power of two per point.  Both factors
    cancel: every use of the sums is a ratio.  A padding term adds exactly 0.

    Powers are taken from one table of rows powers: u = uh 2**e with |uh| in
    [0.5, 1), so uh^i comes from plain multiplication without leaving the
    float range, and a chunk of columns whose powers lie within rows of its
    first power p0 gathers its rows of the table; uh^p0 and the exponents
    ec + i e, exact integers, set one scale per chunk and point.  Without
    gaps in pw the gather is a slice.  A chunk holds at most _EVAL_ELEMS
    entries, which bounds the temporaries near 3 MiB; with coefficients
    gathered per point, five more arrays of that size, it holds at most
    _GATHER_ELEMS, under 1 MiB, so the memory of a stacked evaluation does
    not grow with the number of blocks.  Every sum is elementwise in a fixed
    order (never BLAS), so the result does not depend on the thread count.
    """
    m = u.size
    cols = ec.shape[0]
    elems = _EVAL_ELEMS if at is None else _GATHER_ELEMS
    rows = min(_CHUNK_ROWS, max(1, elems // m), int(pw[-1]) + 1)
    mag, e = np.frexp(np.abs(u))
    e = e.astype(np.int64)
    q = np.empty((rows, m), dtype=np.complex128)
    q[0] = 1.0
    if rows > 1:
        uh = u * np.ldexp(1.0, -e)
        np.cumprod(np.broadcast_to(uh, (rows - 1, m)), axis=0, out=q[1:])
    qr, qi, qa = q.real, q.imag, np.abs(q)
    ie = np.arange(rows, dtype=np.int64)[:, None] * e
    # with one block the coefficients broadcast over the points
    cpart, pick = ("ki", 0) if at is None else ("kij", at)
    acc = top = lmag = None
    c0 = 0
    while c0 < cols:
        p0 = int(pw[c0])
        c1 = bisect_left(pw, p0 + rows, c0, min(cols, c0 + rows))
        r = c1 - c0
        ri = slice(0, r) if pw[c1 - 1] - p0 == r - 1 else pw[c0:c1] - p0
        g = ec[c0:c1, pick].reshape(r, -1) + ie[ri]
        gmax = g.max(axis=0)
        f = _pow2(np.subtract(g, gmax, out=g))
        # real and imaginary parts of sum c u^i and sum j c u^i
        cc = coef[:4, c0:c1, pick]
        re = np.einsum(f"{cpart},ij->kj", cc, qr[ri] * f)
        im = np.einsum(f"{cpart},ij->kj", cc, qi[ri] * f)
        s = np.empty((3, m), dtype=np.complex128)
        s[0].real, s[0].imag = re[0] - im[1], im[0] + re[1]
        s[1].real, s[1].imag = re[2] - im[3], im[2] + re[3]
        cc = coef[4][c0:c1, pick]
        s[2] = np.einsum(f"{cpart[1:]},ij->j", cc, np.multiply(f, qa[ri], out=f))
        if p0:
            # uh^p0 = bm 2**eb e^(i p0 arg u), its exponent kept apart
            if lmag is None:
                lmag, ang = np.log2(mag), np.angle(u)
            t = p0 * lmag
            eb = np.floor(t)
            bm = np.exp2(t - eb)
            s[:2] *= bm * np.exp(1j * (p0 * ang))
            s[2] *= bm
            gmax += p0 * e + eb.astype(np.int64)
        c0 = c1
        if acc is None:
            acc, top = s, gmax
            continue
        hi = np.maximum(top, gmax)
        acc = acc * _pow2(top - hi) + s * _pow2(gmax - hi)
        top = hi
    return acc[0], acc[1], acc[2].real


def _dominated(shift, jrel, js, first, count, rho, a, b):
    """Which hull circles start at their binomial's roots, and where the two
    end terms of each circle sit among the kept terms.

    shift, jrel and js hold per kept term its frame shift, its power above
    its block's anchor (a float) and its power; per circle, rho is its frame
    radius, a < b its end powers and [first, first + count) the range of its
    block's terms.  At the circle, term j lies shift_j + jrel_j rho nats above
    the anchor term; the circle is dominated when both end terms are kept and
    every other term of the block lies at least _BINOMIAL_MARGIN nats below
    both.  The end terms of a hull circle lead its block at its radius, so
    they are kept; only a segment that is not on the hull, such as a frame
    10^400 nats below its coefficients, can lose one, and it then keeps the
    golden-ratio start.  Returns (dominated, ia, ib), ia and ib the kept-term
    index of each circle's end terms (-1 where one is not kept).  One pass
    over the circle x term pairs of the same block, at most _PAIR_ELEMS pairs
    at a time (one circle's terms at the least), so memory stays linear in
    the degree.
    """
    dominated = np.zeros(rho.size, dtype=bool)
    ia = np.empty(rho.size, dtype=np.int64)
    ib = np.empty(rho.size, dtype=np.int64)
    reach = np.cumsum(count)
    c0 = 0
    while c0 < rho.size:
        c1 = np.searchsorted(reach, reach[c0] - count[c0] + _PAIR_ELEMS, "right")
        c = slice(c0, max(c0 + 1, int(c1)))
        cnt = count[c]
        seg = np.cumsum(cnt) - cnt  # each circle's first pair
        pc = np.repeat(np.arange(c.start, c.stop), cnt)  # circle of each pair
        t = np.arange(cnt.sum()) + np.repeat(first[c] - seg, cnt)  # its term
        at_a, at_b = js[t] == a[pc], js[t] == b[pc]
        end = at_a | at_b
        lev = shift[t] + jrel[t] * rho[pc]
        lead = np.minimum.reduceat(np.where(end, lev, np.inf), seg)
        lead -= np.maximum.reduceat(np.where(end, -np.inf, lev), seg)
        ia[c] = np.maximum.reduceat(np.where(at_a, t, -1), seg)
        ib[c] = np.maximum.reduceat(np.where(at_b, t, -1), seg)
        dominated[c] = (ia[c] >= 0) & (ib[c] >= 0) & (lead >= _BINOMIAL_MARGIN)
        c0 = c.stop
    return dominated, ia, ib


def _block_frames(parts):
    """The frames of a group of blocks that iterate together, built at once.

    parts holds per block (js, ph, ys, k, segs, t0): the powers of the terms
    its polynomial keeps in the tables (ascending) and their phases, the
    polynomial's exact log-magnitudes ys and k from _exact_logmags, the
    block's hull segments, and the number of segments of lower blocks of the
    same polynomial, which sets the phase offsets of the initial iterates.
    The exact frame shifts are formed per block; the float work on the terms,
    the dominance margins of the circles and the initial iterates of all
    blocks each take one pass over the concatenation.

    Returns (coef, ec, pw, u0, charge, lo_a, hi_a, sizes, sigmas): the
    stacked tables coef (5, cols, blocks) and ec (cols, blocks) of
    _evaluate, with one column per power pw above a block's lowest kept
    power that some block keeps; per root, block after block, its initial
    iterate, the point charge of its block and the moduli [lo_a, hi_a] its
    iterates are clipped to; per block, its number of roots and its frame
    center sigma, an exact rational (u = z * exp(-sigma)).

    Each hull circle (r, a, b) starts on its radius rho = r - sigma in the
    frame.  A circle whose end terms dominate every other term its block
    keeps by _BINOMIAL_MARGIN nats at that radius (see _dominated) starts at
    the roots of its binomial c_a u^a + c_b u^b: phases
    (pi + ph_a - ph_b + 2 pi j) / (b - a).  A block whose table keeps only
    its one circle's two end terms is that binomial to within rounding, and
    settles at its first evaluation.  Every other circle keeps equispaced
    points with a golden-ratio phase offset (see the module docstring for
    why).
    """
    shift, js, phs, sizes = [], [], [], []
    anchors, sigmas, alos, ahis, roots = [], [], [], [], []
    scale, rho, off, pa, pb, owner = [], [], [], [], [], []
    for i, (jb, ph, ys, k, segs, t0) in enumerate(parts):
        radii = [s[0] for s in segs]
        # The frame center is an exact rational.  A float midrange at scale
        # 1e20+ carries an absolute rounding error of whole nats, which
        # displaces the in-frame balance points by the same amount -- far
        # beyond the e^+-600 window once the scale passes ~1e18, making the
        # block unsolvable.
        sigma = (min(radii) + max(radii)) / 2
        # Term exponents are carried relative to the block's first hull
        # vertex.  Within the block every difference is small by
        # construction; terms from other blocks are exponentially suppressed
        # here, so dropping them is the correct limit, not an error.
        anchor = segs[0][1]
        shift += _frame_shift(jb, ys, k, sigma, anchor)
        js += jb
        phs.append(ph)
        sizes.append(len(jb))
        anchors.append(anchor)
        sigmas.append(sigma)
        alos.append(max(float(min(radii) - sigma) - 100.0, -600.0))
        ahis.append(min(float(max(radii) - sigma) + 100.0, 600.0))
        for t, (r, a, b) in enumerate(segs):
            rho.append(float(r - sigma))
            scale.append(math.exp(rho[-1]))
            off.append(TAU * (((t0 + t + 1) * _GOLDEN) % 1.0))
            pa.append(a)
            pb.append(b)
            owner.append(i)
        roots.append(segs[-1][2] - anchor)
    shift = np.array(shift)
    js = np.array(js, dtype=np.int64)
    jrel = js - np.repeat(np.array(anchors, dtype=np.float64), sizes)
    phs = np.concatenate(phs)
    keep, coef, ec = _frame_coefficients(
        shift, js, jrel, phs, np.repeat(alos, sizes), np.repeat(ahis, sizes)
    )
    ends = np.cumsum(keep)[np.cumsum(sizes) - 1]
    starts = np.concatenate([[0], ends[:-1]])
    js = js[keep]
    pk = phs[keep]
    pa, pb, owner = np.array(pa), np.array(pb), np.array(owner)
    first, count = starts[owner], (ends - starts)[owner]
    dominated, ia, ib = _dominated(
        shift[keep], jrel[keep], js, first, count, np.array(rho), pa, pb
    )
    m = pb - pa
    off = np.where(dominated, (math.pi + pk[ia] - pk[ib]) / m, off)
    u0 = _initial_iterates(np.array(scale), off, m)
    # a column for every power that some block keeps (no np.unique: its
    # first call pages in sorting code, 1.7 MiB of resident memory)
    tb = np.repeat(np.arange(len(parts)), ends - starts)  # block of each term
    js -= js[starts][tb]
    kept = np.zeros(int(js.max()) + 1, dtype=bool)
    kept[js] = True
    pw = np.flatnonzero(kept)
    col = (np.cumsum(kept) - 1)[js]
    table = np.zeros((5, pw.size, len(parts)))
    table[:, col, tb] = coef
    exps = np.full((pw.size, len(parts)), _EXP_FLOOR, dtype=np.int64)
    exps[col, tb] = ec
    # roots of radially lower blocks sit near 0 in a block's frame; a point
    # charge there makes the update Aberth on the implicitly deflated
    # polynomial (fixed points are unchanged: the correction is zero only
    # where p is)
    charge = np.repeat(np.array(anchors, dtype=np.float64), roots)
    lo_a = np.repeat([math.exp(a) for a in alos], roots)
    hi_a = np.repeat([math.exp(a) for a in ahis], roots)
    return table, exps, pw, u0, charge, lo_a, hi_a, np.array(roots), sigmas


def _iterate(coef, ec, pw, u, charge, lo_a, hi_a, sizes, tol: float, max_iter: int):
    """Run the simultaneous iterations of the blocks framed by _block_frames
    together, one step at a time, moving the iterates u in place.

    The roots of all blocks sit in one flat array, with a block id and an
    in-block position per root.  Every rule is applied per block: a block
    stops once every active root has a residual at or below _RESIDUAL_STOP
    (or none is active), the duplicate check compares roots of one block,
    and repulsion runs over rows padded to the largest block, where the pad
    entries add exactly 0.  A root's step therefore depends only on its own
    block.  Returns (iterates, residuals, one settled flag per block), the
    first two in block order.
    """
    nb = sizes.size
    bid = np.repeat(np.arange(nb), sizes)
    pos = np.arange(bid.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # roots by (block, position); with one block a view of u itself
    mmax = int(sizes.max())
    if nb == 1:
        grid = u.reshape(1, -1)
    else:
        grid = np.zeros((nb, mmax), dtype=np.complex128)
        pad = np.arange(mmax) >= sizes[:, None]
    # rows of pairwise differences at a time; a stacked chunk gathers its
    # rows from the grid, so its bound keeps that copy small
    step = max(1, (_PAIR_ELEMS if nb == 1 else _GATHER_ELEMS) // mmax)
    tol_eff = max(tol, 1.4e-14)
    rel = np.full(u.size, np.inf)
    resid = np.full(u.size, np.inf)
    # A root whose last relative correction is at most tol is frozen: it
    # keeps repelling the others but is never evaluated or moved again.
    frozen = np.zeros(u.size, dtype=bool)
    fresh = np.zeros(u.size, dtype=bool)  # resid belongs to the current iterate
    live = np.ones(nb, dtype=bool)  # blocks still iterating

    def evaluate(at):
        s0, s1, s2 = _evaluate(u[at], coef, ec, pw, None if nb == 1 else bid[at])
        resid[at] = np.minimum(np.abs(s0) / s2, 1.0)
        fresh[at] = True
        return s0, s1

    for _ in range(max_iter):
        act = np.flatnonzero(~frozen & live[bid])
        if act.size == 0:
            break
        s0, s1 = evaluate(act)
        busy = resid[act] > _RESIDUAL_STOP
        live = np.bincount(bid[act], weights=busy, minlength=nb) > 0
        if not busy.all():
            keep = live[bid[act]]
            act, s0, s1 = act[keep], s0[keep], s1[keep]
            if act.size == 0:
                break

        # Newton correction in the block frame: p(u) / p'(u) = u s0 / s1, at
        # most _STEP_MAX times the iterate
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = s0 / s1
        big = ~(np.abs(ratio) <= _STEP_MAX)
        if big.any():
            turn = np.angle(s0[big]) - np.angle(s1[big])
            ratio[big] = _STEP_MAX * np.exp(1j * turn)
        ratio[s0 == 0] = 0.0
        nc = ratio * u[act]

        # an active root equal to a lower-indexed root of its block is nudged
        # apart: sorted by (block, value), equal roots form runs in index order
        idx = np.flatnonzero(live[bid])
        ui = u[idx]
        order = np.lexsort((idx, ui.imag, ui.real, bid[idx]))
        su = ui[order]
        sb = bid[idx][order]
        dup = idx[order[1:][(su[1:] == su[:-1]) & (sb[1:] == sb[:-1])]]
        dup = dup[~frozen[dup]]
        if dup.size:
            u[dup] = u[dup] * np.exp(1j * 1e-9 * (pos[dup] + 1))
        ua = u[act]
        repulse = charge[act] / ua
        if nb > 1:
            grid[bid, pos] = u
        for a in range(0, act.size, step):
            own = act[a : a + step]
            if nb == 1:
                d = ua[a : a + step, None] - grid
            else:
                d = grid[bid[own]]
                np.subtract(ua[a : a + step, None], d, out=d)
                d[pad[bid[own]]] = np.inf  # pad entries add 0
            d[np.arange(own.size), pos[own]] = np.inf  # the root itself adds 0
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.reciprocal(d, out=d)
            sums = inv.sum(axis=1)
            tied = ~np.isfinite(sums)  # equal to a root that cannot move
            if tied.any():
                part = inv[tied]
                part[~np.isfinite(part)] = 0.0
                sums[tied] = part.sum(axis=1)
            repulse[a : a + step] += sums

        denom = 1.0 - nc * repulse
        bad = (denom == 0) | ~np.isfinite(denom)
        delta = nc / np.where(bad, 1.0, denom)
        delta = np.where(np.isfinite(delta), delta, nc)

        newu = ua - delta
        anorm = np.abs(newu)
        newu = np.where(anorm == 0.0, 1e-300 + 0j, newu)
        anorm = np.abs(newu)
        newu = newu * (np.clip(anorm, lo_a[act], hi_a[act]) / anorm)
        rel[act] = np.abs(delta) / np.abs(newu)
        u[act] = newu
        fresh[act] = False
        frozen[act] = rel[act] <= tol_eff

    stale = np.flatnonzero(~fresh)
    if stale.size:
        evaluate(stale)
    unsettled = (rel > tol_eff) & (resid > _RESIDUAL_STOP)
    settled = np.bincount(bid, weights=unsettled, minlength=nb) == 0
    return u, resid, settled


def _original_frame(u: np.ndarray, sigma: Fraction):
    """(logmag, phase) of the roots z = u * exp(sigma)."""
    # one correct rounding of the exact sum sigma + log|u|, so the reported
    # logmag is the nearest float to the true root logmag even when sigma's
    # own ulp dwarfs the in-frame offset
    sn, sd = sigma.numerator, sigma.denominator
    offsets = map(float.as_integer_ratio, np.log(np.abs(u)).tolist())
    lm = np.array([(sn * b + a * sd) / (sd * b) for a, b in offsets])
    return lm, wrap_phase_vec(np.angle(u))


def aberth_solve_many(
    polys, tol: float = 1e-12, max_iter: int = 200
) -> list[RootSet]:
    """All complex roots of each polynomial, by blockwise simultaneous iteration.

    Initial guesses sit on the Newton-polygon circles; a block stops when
    every relative correction is at most tol (or the relative backward error
    of the root is already below 1e-11), or at max_iter.  Non-convergence is
    reported through converged = False, never as an exception.  A polynomial
    of degree 0 has no roots: its RootSet is empty and converged.

    Blocks are independent, so the blocks of all polynomials with at most
    _BATCH_ROOTS roots share one stacked iteration, which pays numpy's
    per-call cost once per step instead of once per block; a larger block
    iterates alone.  Each block keeps its own stop rule, so a root's result
    does not depend on the other polynomials beyond rounding.
    """
    owner = []  # polynomial index of each block
    parts = []
    for i, p in enumerate(polys):
        if p.degree == 0:
            continue  # no roots
        ys, k = _exact_logmags(p.lm)
        hull = _polygon_segments(ys, k)
        # a negligible term is left out like a zero one, in every block
        drop = _negligible(ys, k, hull)
        js = [j for j, (y, d) in enumerate(zip(ys, drop)) if y is not None and not d]
        ph = p.ph[js]
        t0 = 0
        for segs in _split_blocks(hull):
            parts.append((js, ph, ys, k, segs, t0))
            owner.append(i)
            t0 += len(segs)
    roots = [segs[-1][2] - segs[0][1] for *_, segs, _ in parts]
    small = [j for j, m in enumerate(roots) if m <= _BATCH_ROOTS]
    groups = [[j] for j, m in enumerate(roots) if m > _BATCH_ROOTS]
    if small:
        groups.append(small)
    per_poly = [[] for _ in polys]
    for group in groups:
        *frames, sizes, sigmas = _block_frames([parts[j] for j in group])
        u, resid, settled = _iterate(*frames, sizes, tol, max_iter)
        start = 0
        for j, m, sigma, ok in zip(group, sizes.tolist(), sigmas, settled.tolist()):
            lm, ph = _original_frame(u[start : start + m], sigma)
            per_poly[owner[j]].append((lm, ph, resid[start : start + m], ok))
            start += m
    out = []
    for solved in per_poly:
        rlm, rph, rres = (
            np.concatenate([np.empty(0)] + [s[c] for s in solved]) for c in range(3)
        )
        order = np.lexsort((rph, rlm))
        converged = all(s[3] for s in solved) and bool(np.all(rres <= _RESIDUAL_OK))
        out.append(RootSet(rlm[order], rph[order], rres[order], converged))
    return out


def aberth_solve(p: Polynomial, tol: float = 1e-12, max_iter: int = 200) -> RootSet:
    """All complex roots of one polynomial; see aberth_solve_many."""
    return aberth_solve_many([p], tol, max_iter)[0]


def _circle_logmag(num: float, den: float, k: int) -> float:
    """(num - den) / k with one correct rounding.

    At huge scales a root logmag's own ulp can exceed any matching tolerance,
    so the predicted radius must be the nearest float to the exact value --
    the same value the solver reports -- rather than a twice-rounded one.
    """
    return float((Fraction(num) - Fraction(den)) / k)


def predicted_roots(c: CoefficientVector) -> PredictedRoots:
    """Roots of z^tau = -c_0/c_tau (inner) and z^(n-tau) = -c_tau/c_n (outer).

    The inner circle has logmag (lm_0 - lm_tau)/tau, the outer
    (lm_tau - lm_n)/(n - tau).  Requires 1 <= tau <= n-1.
    """
    n = c.degree
    tau = c.tau
    if tau == 0 or tau == n:
        raise ValueError("argmax coefficient at an extreme index is degenerate")
    lm = c.lm.tolist()
    # phases of -c_0/c_tau and -c_tau/c_n, then of their k-th roots
    base = wrap_phase_vec(wrap_phase_vec(c.ph[[0, tau]] - c.ph[[tau, n]]) + math.pi)
    ph = np.concatenate(
        [
            (base[0] + TAU * np.arange(tau)) / tau,
            (base[1] + TAU * np.arange(n - tau)) / (n - tau),
        ]
    )
    return PredictedRoots(
        tau,
        _circle_logmag(lm[0], lm[tau], tau),
        _circle_logmag(lm[tau], lm[n], n - tau),
        wrap_phase_vec(ph),
    )
