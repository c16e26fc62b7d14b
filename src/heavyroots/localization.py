"""Arithmetic-only root localization certificates and root counters.

Everything here evaluates inequalities between log-domain quantities exactly
as stated, with no hidden slack: an annulus certificate, a matching bound for
a dominant interior coefficient, a product-form sufficient criterion, and the
dominance events used by the Monte Carlo experiments.

Only moduli matter here, so every function reads the log-modulus array of
its input (xvec's representation, -inf for an exact zero): a sum of moduli is
a log-sum-exp over an array, and the moduli of c_j / c_n are the array minus
one entry.

The annulus certificate relies on the classical fact that if the associated
polynomial (modulus coefficients with the k-th negated) is negative at some
positive radius rho, the original polynomial has exactly k roots with
|z| < rho and none on the circle.  In log coordinates the associated
polynomial's sign is the sign of a convex function phi(s) (a log-sum-exp of
affine functions minus an affine function), so certification reduces to a
one-dimensional convex minimization plus two bisections, and every reported
boundary is re-evaluated to be strictly inside the negative region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roots import Polynomial, RootSet
from .sampler import CoefficientVector
from .xvec import logsumexp_vec

_PHI_MARGIN = -1e-9  # certified boundaries must reach at least this deep


@dataclass(frozen=True, slots=True)
class PelletCertificate:
    """Exactly k roots have logmag < r_logmag and n-k have logmag > R_logmag."""

    k: int
    r_logmag: float
    R_logmag: float


@dataclass(frozen=True, slots=True)
class CertificateEvents:
    """Log-domain dominance events for one coefficient vector.

    product_dominates: the product of (1 + |c_j|/|c_n|) over j != tau, raised
        to 2n^2, stays at or below 1 + |c_tau|/|c_n|.
    threshold_met: |c_tau|/|c_n| clears the explicit epsilon-threshold that
        makes the matching bound automatic.
    matching_bound_holds: the matching condition itself, checked at k = tau on
        the monic-normalized coefficients.
    max_dominates: |c_tau| > e^delta * sum of the other moduli (only evaluated
        when delta is supplied).
    """

    product_dominates: bool
    threshold_met: bool
    matching_bound_holds: bool
    degenerate: bool
    epsilon: float
    delta: float | None = None
    max_dominates: bool | None = None


def associated_polynomial(p: Polynomial, k: int) -> Polynomial:
    """Modulus coefficients with phase 0 everywhere except phase pi at k."""
    n = p.degree
    if not (1 <= k <= n - 1):
        raise ValueError("k must be an interior index")
    ph = np.zeros(n + 1)
    if p.lm[k] > -math.inf:  # an exact zero keeps phase 0
        ph[k] = math.pi
    return Polynomial(p.lm, ph)


def _phi_data(p: Polynomial, k: int):
    j = np.arange(p.lm.size)
    keep = (j != k) & (p.lm > -math.inf)
    return j[keep].astype(np.float64), p.lm[keep], float(k), float(p.lm[k])


def _make_phi(p: Polynomial, k: int):
    oj, olm, kf, klm = _phi_data(p, k)

    def phi(s: float) -> float:
        t = olm + oj * s
        mx = t.max()
        return (mx + math.log(float(np.sum(np.exp(t - mx))))) - (klm + kf * s)

    def dphi(s: float) -> float:
        t = olm + oj * s
        w = np.exp(t - t.max())
        return float(np.dot(w, oj) / np.sum(w)) - kf

    balance = (olm - klm) / (kf - oj)
    return phi, dphi, float(balance.min()), float(balance.max())


def pellet_certify(p: Polynomial, k: int) -> PelletCertificate | None:
    """Certify an empty annulus separating k inner from n-k outer roots.

    Returns None when no certificate exists at index k (a value, not an
    error).  Reported boundaries are strictly inside the certified region.
    """
    n = p.degree
    if not (1 <= k <= n - 1):
        raise ValueError("k must be an interior index")
    if p.lm[k] == -math.inf:
        return None
    phi, dphi, blo, bhi = _make_phi(p, k)

    lo, hi = blo - 1.0, bhi + 1.0
    step = 1.0
    while dphi(lo) >= 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while dphi(hi) <= 0.0:
        hi += step
        step *= 2.0

    for _ in range(200):
        if (hi - lo) <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi(m1) < phi(m2):
            hi = m2
        else:
            lo = m1
    smin = 0.5 * (lo + hi)
    if phi(smin) > _PHI_MARGIN:
        return None

    def bisect(inside: float, outside: float) -> float:
        # invariant: phi(inside) <= margin < phi(outside); returns inside
        for _ in range(200):
            if abs(outside - inside) <= 1e-13 * max(1.0, abs(inside), abs(outside)):
                break
            mid = 0.5 * (inside + outside)
            if phi(mid) <= _PHI_MARGIN:
                inside = mid
            else:
                outside = mid
        return inside

    left = lo
    step = 1.0
    while phi(left) <= _PHI_MARGIN:
        left -= step
        step *= 2.0
    right = hi
    step = 1.0
    while phi(right) <= _PHI_MARGIN:
        right += step
        step *= 2.0

    r = bisect(smin, left)
    big_r = bisect(smin, right)
    if not (phi(r) <= _PHI_MARGIN and phi(big_r) <= _PHI_MARGIN and r < big_r):
        return None
    return PelletCertificate(k, r, big_r)


def check_matching_condition(p: Polynomial, k: int, eps: float) -> bool:
    """Sum of the other moduli at or below the explicit bound at index k.

    Requires a monic-normalized polynomial (leading logmag exactly 0); the
    bound is log(1 - eps/n) + (n-k) log(eps/(n+eps)) + logmag(c_k)/(n-k).
    """
    n = p.degree
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (1 <= k <= n - 1):
        raise ValueError("k must be an interior index")
    if p.lm[n] != 0.0:
        raise ValueError("polynomial must be normalized to unit leading modulus")
    return _matching_bound(p.lm, k, eps)


def _matching_bound(a: np.ndarray, k: int, eps: float) -> bool:
    """The matching condition on the log-moduli a of a monic polynomial."""
    if a[k] == -math.inf:
        return False
    n = a.size - 1
    total = float(logsumexp_vec(np.delete(a, k)))
    rhs = (
        math.log1p(-eps / n)
        + (n - k) * math.log(eps / (n + eps))
        + float(a[k]) / (n - k)
    )
    return total <= rhs


def product_condition(a: np.ndarray, k: int) -> bool:
    """2n^2 * sum_{j != k} log(1 + e^a_j) <= log(1 + e^a_k) for the
    log-moduli a (-inf for a zero entry)."""
    n = a.size - 1
    s = float(np.sum(np.logaddexp(0.0, np.delete(a, k))))
    return 2.0 * n * n * s <= float(np.logaddexp(0.0, a[k]))


def threshold_logmag(n: int, eps: float) -> float:
    """Log of the explicit lower threshold on a_k at (n, eps)."""
    t = 4.0 * n * n / (4.0 * n - 1.0)
    u = n * t
    return math.log(2.0) - t * math.log1p(-eps) - u * math.log(eps) + u * math.log(n + eps)


def threshold_condition(a: np.ndarray, k: int, eps: float) -> bool:
    """a_k >= threshold_logmag(n, eps) for the log-moduli a."""
    return bool(a[k] >= threshold_logmag(a.size - 1, eps))


def check_product_criterion(a: np.ndarray, k: int, eps: float) -> bool:
    """Both the product condition and the magnitude threshold at index k of
    the log-moduli a."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    n = a.size - 1
    if not (1 <= k <= n - 1):
        raise ValueError("k must be an interior index")
    return product_condition(a, k) and threshold_condition(a, k, eps)


def max_dominates_sum(c: CoefficientVector, delta: float) -> bool:
    """|c_tau| strictly exceeds e^delta times the sum of the other moduli."""
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    others = float(logsumexp_vec(np.delete(c.lm, c.tau)))
    if others == -math.inf:
        return True
    return bool(c.lm[c.tau] > delta + others)


def evaluate_certificate_events(
    c: CoefficientVector, eps: float, delta: float | None = None
) -> CertificateEvents:
    """All dominance events for one coefficient vector at (eps, delta)."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    n = c.degree
    tau = c.tau
    md = max_dominates_sum(c, delta) if delta is not None else None
    if tau == 0 or tau == n:
        return CertificateEvents(False, False, False, True, eps, delta, md)
    # log-moduli of the monic-normalized coefficients c_j / c_n
    a = c.lm - c.lm[n]
    pd = product_condition(a, tau)
    tm = threshold_condition(a, tau, eps)
    mb = _matching_bound(a, tau, eps)
    return CertificateEvents(pd, tm, mb, False, eps, delta, md)


def count_annulus(rs: RootSet, a_logmag: float, b_logmag: float) -> int:
    """Roots with a_logmag <= logmag <= b_logmag, boundaries inclusive."""
    if a_logmag > b_logmag:
        raise ValueError("annulus bounds out of order")
    return int(np.count_nonzero((a_logmag <= rs.lm) & (rs.lm <= b_logmag)))


def count_sector(rs: RootSet, alpha: float, beta: float) -> int:
    """Roots with alpha <= phase <= beta, boundaries inclusive."""
    if not (-math.pi <= alpha < beta <= math.pi):
        raise ValueError("sector bounds out of order")
    return int(np.count_nonzero((alpha <= rs.ph) & (rs.ph <= beta)))
