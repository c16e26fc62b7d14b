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
the block size; terms more than e^800 below the block's own are left out.  A
root whose last relative correction is at most tol is frozen: it still repels
the others but is neither evaluated nor moved again (the rule MPSolve uses).

The simultaneous update of a root depends only on its own block, so the small
blocks of many polynomials iterate together as one stacked array, each with
its own stop rule; aberth_solve is the one-polynomial case of
aberth_solve_many.

Residuals are relative backward errors |p(z)| / sum_j |c_j||z|^j; a RootSet
only reports converged = True when every residual is at or below 1e-10.
"""

from __future__ import annotations

import math
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
_EXP_FLOOR = -(1 << 52)  # frame exponent of a term that is left out
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01  # _LN2_HI + _LN2_LO == ln 2; k * _LN2_HI
_LN2_LO = 1.90821492927058770002e-10  # is exact for |k| < 2**21
_CHUNK_ROWS = 64  # powers per evaluation chunk; |uh^i| >= 2**-i stays normal
_EVAL_ELEMS = 1 << 15  # entries (powers x points) in one evaluation chunk
_PAIR_ELEMS = 1 << 17  # entries in one chunk of pairwise root differences
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


def _initial_iterates(segs, sigma: Fraction, t0: int) -> np.ndarray:
    """Equispaced points on each circle with a golden-ratio phase offset."""
    parts = []
    for t, (r, j1, j2) in enumerate(segs):
        m = j2 - j1
        off = TAU * (((t0 + t + 1) * _GOLDEN) % 1.0)
        phases = off + TAU * np.arange(m) / m
        parts.append(math.exp(float(r - sigma)) * np.exp(1j * phases))
    return np.concatenate(parts)


def _frame_shift(
    ys: list[int | None], k: int, sigma: Fraction, anchor: int
) -> np.ndarray:
    """ln|c_j e^(j sigma)| - ln|c_anchor e^(anchor sigma)| for every j.

    ys and k are the exact log-magnitudes from _exact_logmags.  Each value is
    formed exactly and rounded once, by one int / int division; zero
    coefficients give -inf, and so do values below the float range.
    """
    sn = sigma.numerator << k
    sd = sigma.denominator
    den = sd << k
    ya = ys[anchor]
    shift = np.full(len(ys), -math.inf)
    for j, y in enumerate(ys):
        if y is None:
            continue
        num = (y - ya) * sd + (j - anchor) * sn
        try:
            shift[j] = num / den
        except OverflowError:
            shift[j] = math.inf if num > 0 else -math.inf
    if np.any(shift == math.inf):
        raise SaturationError("coefficient magnitudes overflow the block frame")
    return shift


def _frame_coefficients(shift, ph, anchor: int, alo: float, ahi: float):
    """The block's coefficients c_j = e^(shift_j + i ph_j), scaled by powers of 2.

    Returns (j0, coef, ec).  Column i of coef is for the power j = j0 + i and
    holds the real and imaginary parts of c_j / 2**ec[i] and of j c_j /
    2**ec[i], then |c_j| / 2**ec[i], which lies in [1, 2).  A term more than
    _DEAD nats below the anchor term at every frame radius from e^alo to e^ahi
    cannot reach the sums, so it is zeroed, and the columns run from the
    first to the last term that can.
    """
    jrel = np.arange(shift.size) - float(anchor)
    live = shift + np.maximum(jrel * alo, jrel * ahi) >= -_DEAD
    j0 = int(np.argmax(live))
    j1 = shift.size - int(np.argmax(live[::-1]))
    live = live[j0:j1]
    shift = np.where(live, shift[j0:j1], 0.0)
    # e^shift = 2**ec e^rem with e^rem in [1, 2); a zeroed term gets a floor
    # exponent, which keeps every exponent sum inside int64
    ec = np.floor(shift / _LN2)
    rem = (shift - ec * _LN2_HI) - ec * _LN2_LO
    mc = np.where(live, np.exp(rem), 0.0) * np.exp(1j * ph[j0:j1])
    ec = np.where(live, ec, _EXP_FLOOR).astype(np.int64)
    jc = np.arange(j0, j1) * mc
    return j0, np.stack([mc.real, mc.imag, jc.real, jc.imag, np.abs(mc)]), ec


def _pow2(d: np.ndarray) -> np.ndarray:
    """2.0**d for integer arrays d <= 0, built in place from the exponent
    bits (d is overwritten); values below the normal range (d < -1022) flush
    to zero."""
    np.maximum(d, -1023, out=d)
    d += 1023
    d <<= 52
    return d.view(np.float64)


def _evaluate(u: np.ndarray, coef: np.ndarray, ec: np.ndarray, at=None):
    """Scaled sums of the frame coefficients at the points u.

    coef (5, cols, blocks) and ec (cols, blocks) hold the frame coefficients
    of one or more blocks side by side, each padded to the widest block with
    terms of zero mantissa and exponent _EXP_FLOOR; at[i] is the block of
    point i, or None when there is one block, whose coefficients then
    broadcast over the points without a per-point gather.  With c_i the
    point's coefficient in column i and j_i its power, returns s0 = sum c_i
    u^i, s1 = sum j_i c_i u^i and s2 = sum |c_i| |u|^i: p(u), u p'(u) and
    sum |c_j| |u|^j, each divided by u^j0 (or |u|^j0) and by one power of two
    per point.  Both factors cancel: every use of the sums is a ratio.  A
    padding term adds exactly 0.

    Powers are taken in chunks of rows: u = uh 2**e with |uh| in [0.5, 1),
    so uh^i comes from plain multiplication without leaving the float range
    and the exponents ec + i e are exact integers that set one scale per
    chunk and point.  A chunk holds at most _EVAL_ELEMS entries, which bounds
    the temporaries near 3 MiB even with coefficients gathered per point.
    Every sum is elementwise in a fixed order (never BLAS), so the result
    does not depend on the thread count.
    """
    m = u.size
    cols = ec.shape[0]
    rows = min(_CHUNK_ROWS, max(1, _EVAL_ELEMS // m), cols)
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
    acc = top = None
    for c0 in range(0, cols, rows):
        r = min(rows, cols - c0)
        g = ec[c0 : c0 + r, pick].reshape(r, -1) + ie[:r]
        gmax = g.max(axis=0)
        f = _pow2(np.subtract(g, gmax, out=g))
        # real and imaginary parts of sum c u^i and sum j c u^i
        cc = coef[:4, c0 : c0 + r, pick]
        re = np.einsum(f"{cpart},ij->kj", cc, qr[:r] * f)
        im = np.einsum(f"{cpart},ij->kj", cc, qi[:r] * f)
        s = np.empty((3, m), dtype=np.complex128)
        s[0].real, s[0].imag = re[0] - im[1], im[0] + re[1]
        s[1].real, s[1].imag = re[2] - im[3], im[2] + re[3]
        cc = coef[4][c0 : c0 + r, pick]
        s[2] = np.einsum(f"{cpart[1:]},ij->j", cc, np.multiply(f, qa[:r], out=f))
        if c0:
            # uh^c0 = bm 2**eb e^(i c0 arg u), its exponent kept apart
            t = c0 * np.log2(mag)
            eb = np.floor(t)
            bm = np.exp2(t - eb)
            s[:2] *= bm * np.exp(1j * (c0 * np.angle(u)))
            s[2] *= bm
            gmax += c0 * e + eb.astype(np.int64)
        if acc is None:
            acc, top = s, gmax
            continue
        hi = np.maximum(top, gmax)
        acc = acc * _pow2(top - hi) + s * _pow2(gmax - hi)
        top = hi
    return acc[0], acc[1], acc[2].real


@dataclass(frozen=True, slots=True)
class _Block:
    """One block in its own frame u = z * exp(-sigma), ready to iterate."""

    coef: np.ndarray  # frame coefficients, see _frame_coefficients
    ec: np.ndarray
    u0: np.ndarray  # initial iterates
    sigma: Fraction
    charge: float  # roots of radially lower blocks, as a point charge at 0
    lo_a: float  # iterates are clipped to moduli in [lo_a, hi_a]
    hi_a: float


def _block_frame(ph, ys, k, segs, t0) -> _Block:
    """The frame of the block of hull segments segs; t0 counts the segments
    of lower blocks, which sets the phase offsets of the initial iterates."""
    radii = [s[0] for s in segs]
    # The frame center is an exact rational.  A float midrange at scale 1e20+
    # carries an absolute rounding error of whole nats, which displaces the
    # in-frame balance points by the same amount -- far beyond the e^+-600
    # window once the scale passes ~1e18, making the block unsolvable.
    sigma = (min(radii) + max(radii)) / 2
    alo = max(float(min(radii) - sigma) - 100.0, -600.0)
    ahi = min(float(max(radii) - sigma) + 100.0, 600.0)
    # Term exponents are carried relative to the block's first hull vertex.
    # Within the block every difference is small by construction; terms from
    # other blocks are exponentially suppressed here, so dropping them is the
    # correct limit, not an error.
    anchor = segs[0][1]
    _, coef, ec = _frame_coefficients(
        _frame_shift(ys, k, sigma, anchor), ph, anchor, alo, ahi
    )
    # roots of radially lower blocks sit near 0 in this frame; a point charge
    # there makes the update Aberth on the implicitly deflated polynomial
    # (fixed points are unchanged: the correction is zero only where p is)
    return _Block(
        coef,
        ec,
        _initial_iterates(segs, sigma, t0),
        sigma,
        float(anchor),
        math.exp(alo),
        math.exp(ahi),
    )


def _iterate(blocks: list[_Block], tol: float, max_iter: int):
    """Run the blocks' simultaneous iterations together, one step at a time.

    The roots of all blocks sit in one flat array, with a block id and an
    in-block position per root.  Every rule is applied per block: a block
    stops once every active root has a residual at or below _RESIDUAL_STOP
    (or none is active), the duplicate check compares roots of one block,
    and repulsion runs over rows padded to the largest block, where the pad
    entries add exactly 0.  A root's step therefore depends only on its own
    block.  Returns (iterates, residuals, one settled flag per block), the
    first two in block order.
    """
    nb = len(blocks)
    sizes = np.array([b.u0.size for b in blocks])
    bid = np.repeat(np.arange(nb), sizes)
    pos = np.arange(bid.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    u = np.concatenate([b.u0 for b in blocks])
    width = max(b.ec.size for b in blocks)
    coef = np.zeros((5, width, nb))
    ec = np.full((width, nb), _EXP_FLOOR, dtype=np.int64)
    for i, b in enumerate(blocks):
        coef[:, : b.ec.size, i] = b.coef
        ec[: b.ec.size, i] = b.ec
    charge = np.array([b.charge for b in blocks])[bid]
    lo_a = np.array([b.lo_a for b in blocks])[bid]
    hi_a = np.array([b.hi_a for b in blocks])[bid]
    # roots by (block, position); with one block a view of u itself
    mmax = int(sizes.max())
    if nb == 1:
        grid = u.reshape(1, -1)
    else:
        grid = np.zeros((nb, mmax), dtype=np.complex128)
        pad = np.arange(mmax) >= sizes[:, None]
    step = max(1, _PAIR_ELEMS // mmax)  # rows of pairwise differences at a time
    tol_eff = max(tol, 1.4e-14)
    rel = np.full(u.size, np.inf)
    resid = np.full(u.size, np.inf)
    # A root whose last relative correction is at most tol is frozen: it
    # keeps repelling the others but is never evaluated or moved again.
    frozen = np.zeros(u.size, dtype=bool)
    fresh = np.zeros(u.size, dtype=bool)  # resid belongs to the current iterate
    live = np.ones(nb, dtype=bool)  # blocks still iterating

    def evaluate(at):
        s0, s1, s2 = _evaluate(u[at], coef, ec, None if nb == 1 else bid[at])
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
                d = ua[a : a + step, None] - grid[bid[own]]
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
    reported through converged = False, never as an exception.

    Blocks are independent, so the blocks of all polynomials with at most
    _BATCH_ROOTS roots share one stacked iteration, which pays numpy's
    per-call cost once per step instead of once per block; a larger block
    iterates alone.  Each block keeps its own stop rule, so a root's result
    does not depend on the other polynomials beyond rounding.
    """
    owner = []  # polynomial index of each block
    blocks = []
    for i, p in enumerate(polys):
        if p.degree < 1:
            raise ValueError("degree must be at least 1")
        ys, k = _exact_logmags(p.lm)
        t0 = 0
        for segs in _split_blocks(_polygon_segments(ys, k)):
            blocks.append(_block_frame(p.ph, ys, k, segs, t0))
            owner.append(i)
            t0 += len(segs)
    small = [j for j, b in enumerate(blocks) if b.u0.size <= _BATCH_ROOTS]
    groups = [[j] for j, b in enumerate(blocks) if b.u0.size > _BATCH_ROOTS]
    if small:
        groups.append(small)
    solved = {}
    for group in groups:
        u, resid, settled = _iterate([blocks[j] for j in group], tol, max_iter)
        start = 0
        for j, ok in zip(group, settled.tolist()):
            end = start + blocks[j].u0.size
            lm, ph = _original_frame(u[start:end], blocks[j].sigma)
            solved[j] = (lm, ph, resid[start:end], ok)
            start = end

    per_poly = [[] for _ in polys]
    for j, i in enumerate(owner):
        per_poly[i].append(solved[j])
    out = []
    for parts in per_poly:
        rlm = np.concatenate([s[0] for s in parts])
        rph = np.concatenate([s[1] for s in parts])
        rres = np.concatenate([s[2] for s in parts])
        order = np.lexsort((rph, rlm))
        converged = all(s[3] for s in parts) and bool(rres.max() <= _RESIDUAL_OK)
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
