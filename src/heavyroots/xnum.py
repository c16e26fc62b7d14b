"""Extended-range scalar arithmetic: complex values as log-magnitude plus phase.

The magnitude of a value is stored as its natural logarithm, so moduli up to
exp(+-1.7e308) are representable.  Exact zero is a tagged state rather than
logmag = -inf, which keeps comparisons and serialization unambiguous.  Phases
are normalized into (-pi, pi] after every operation so that equal values have
equal representations.

All values are immutable and all operations are pure functions; everything in
this module is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAU = 2.0 * math.pi

# log of the largest finite double; exp() overflows just above this
EXP_MAX = 709.782712893384


class SaturationError(OverflowError):
    """A log-magnitude left the finite range during an operation."""


def wrap_phase(phi: float) -> float:
    """Normalize an angle into (-pi, pi]; -0.0 becomes +0.0."""
    r = phi % TAU
    if r > math.pi:
        r -= TAU
    if r == 0.0:
        r = 0.0
    return r


def phase_distance(a: float, b: float) -> float:
    """Shortest angular distance between two phases, in [0, pi]."""
    return abs(wrap_phase(a - b))


def softplus(x: float) -> float:
    """log(1 + e^x) without overflow for large positive x."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


@dataclass(frozen=True, slots=True)
class XComplex:
    """A complex scalar: modulus exp(logmag), argument phase in (-pi, pi]."""

    zero: bool
    logmag: float
    phase: float


@dataclass(frozen=True, slots=True)
class XReal:
    """A signed real scalar: sign in {-1, 0, +1} times exp(logmag)."""

    sign: int
    logmag: float


XZERO = XComplex(True, 0.0, 0.0)
XONE = XComplex(False, 0.0, 0.0)
XMINUS_ONE = XComplex(False, 0.0, math.pi)
XR_ZERO = XReal(0, 0.0)
XR_ONE = XReal(1, 0.0)


def xcomplex(logmag: float, phase: float) -> XComplex:
    """Build a nonzero value, validating the logmag and normalizing the phase."""
    if math.isnan(logmag) or not math.isfinite(phase):
        raise ValueError("invalid component in extended-range value")
    if math.isinf(logmag):
        if logmag > 0.0:
            raise SaturationError("log-magnitude overflowed the finite range")
        raise ValueError("use XZERO for exact zero, not logmag = -inf")
    return XComplex(False, logmag, wrap_phase(phase))


def xreal(sign: int, logmag: float = 0.0) -> XReal:
    """Build an XReal; sign 0 canonicalizes to XR_ZERO regardless of logmag."""
    if sign == 0:
        return XR_ZERO
    if sign not in (-1, 1):
        raise ValueError("sign must be -1, 0, or +1")
    if not math.isfinite(logmag):
        raise ValueError("logmag must be finite for nonzero values")
    return XReal(sign, logmag)


def from_complex(z: complex) -> XComplex:
    """Convert an ordinary complex number, exactly preserving zero."""
    x, y = z.real, z.imag
    if math.isnan(x) or math.isnan(y):
        raise ValueError("NaN component")
    if math.isinf(x) or math.isinf(y):
        raise SaturationError("infinite component")
    if x == 0.0 and y == 0.0:
        return XZERO
    ax, ay = abs(x), abs(y)
    hi, lo = (ax, ay) if ax >= ay else (ay, ax)
    r = lo / hi
    return xcomplex(math.log(hi) + 0.5 * math.log1p(r * r), math.atan2(y, x))


def from_float(x: float) -> XComplex:
    return from_complex(complex(x, 0.0))


def to_complex(a: XComplex) -> complex:
    """Convert to an ordinary complex number; overflows saturate to inf parts."""
    if a.zero:
        return complex(0.0, 0.0)
    c, s = math.cos(a.phase), math.sin(a.phase)
    if a.logmag > EXP_MAX:
        re = math.copysign(math.inf, c) if c != 0.0 else 0.0
        im = math.copysign(math.inf, s) if s != 0.0 else 0.0
        return complex(re, im)
    m = math.exp(a.logmag)
    return complex(m * c, m * s)


def xabs(a: XComplex) -> XReal:
    """Modulus of a value as a nonnegative XReal."""
    if a.zero:
        return XR_ZERO
    return XReal(1, a.logmag)


def xneg(a: XComplex) -> XComplex:
    if a.zero:
        return XZERO
    return XComplex(False, a.logmag, wrap_phase(a.phase + math.pi))


def xconj(a: XComplex) -> XComplex:
    if a.zero:
        return XZERO
    return XComplex(False, a.logmag, wrap_phase(-a.phase))


def xmul(a: XComplex, b: XComplex) -> XComplex:
    if a.zero or b.zero:
        return XZERO
    lm = a.logmag + b.logmag
    if math.isinf(lm):
        raise SaturationError("log-magnitude overflowed in multiplication")
    return XComplex(False, lm, wrap_phase(a.phase + b.phase))


def xdiv(a: XComplex, b: XComplex) -> XComplex:
    if b.zero:
        raise ZeroDivisionError("division by exact zero")
    if a.zero:
        return XZERO
    lm = a.logmag - b.logmag
    if math.isinf(lm):
        raise SaturationError("log-magnitude overflowed in division")
    return XComplex(False, lm, wrap_phase(a.phase - b.phase))


def xadd(a: XComplex, b: XComplex) -> XComplex:
    """Sum computed by factoring out the larger magnitude.

    Exact cancellation of equal-magnitude, opposite-phase inputs yields zero.
    Cancellation below relative magnitude ~1e-15 of the larger operand leaves
    a result whose logmag carries the full cancellation error; callers needing
    certified signs must add their own slack.
    """
    if a.zero:
        return b
    if b.zero:
        return a
    if b.logmag > a.logmag:
        a, b = b, a
    d = b.logmag - a.logmag  # <= 0
    dphi = wrap_phase(b.phase - a.phase)
    if d == 0.0 and dphi == math.pi:
        return XZERO
    t = math.exp(d)
    x = t * math.cos(dphi)
    y = t * math.sin(dphi)
    # |1 + t e^{i dphi}|^2 = 1 + (2x + t^2)
    arg = 2.0 * x + t * t
    if arg <= -1.0:
        return XZERO
    lm = a.logmag + 0.5 * math.log1p(arg)
    if math.isinf(lm):
        raise SaturationError("log-magnitude overflowed in addition")
    return XComplex(False, lm, wrap_phase(a.phase + math.atan2(y, 1.0 + x)))


def xsub(a: XComplex, b: XComplex) -> XComplex:
    return xadd(a, xneg(b))


def xpow_int(a: XComplex, k: int) -> XComplex:
    if a.zero:
        if k > 0:
            return XZERO
        if k == 0:
            return XONE
        raise ZeroDivisionError("negative power of exact zero")
    lm = a.logmag * k
    if math.isinf(lm):
        raise SaturationError("log-magnitude overflowed in power")
    return XComplex(False, lm, wrap_phase(a.phase * k))


def xroot_k(a: XComplex, k: int) -> list[XComplex]:
    """All k-th roots: logmag/k with phases (phase + 2*pi*m)/k, m = 0..k-1."""
    if k < 1:
        raise ValueError("root order must be a positive integer")
    if a.zero:
        raise ValueError("k-th root of exact zero is degenerate")
    lm = a.logmag / k
    return [XComplex(False, lm, wrap_phase((a.phase + TAU * m) / k)) for m in range(k)]


def xcmp(a: XReal, b: XReal) -> int:
    """Order two signed reals: -1, 0, or +1."""
    if a.sign != b.sign:
        return -1 if a.sign < b.sign else 1
    if a.sign == 0:
        return 0
    if a.logmag == b.logmag:
        return 0
    bigger = 1 if a.logmag > b.logmag else -1
    return bigger * a.sign


def xlogsumexp(values: list[XReal]) -> XReal:
    """Sum of nonnegative XReals via max-factoring; exact when the largest
    term exceeds all others by >= 745 nats."""
    lms = []
    for v in values:
        if v.sign < 0:
            raise ValueError("xlogsumexp requires nonnegative inputs")
        if v.sign == 1:
            lms.append(v.logmag)
    if not lms:
        return XR_ZERO
    m = max(lms)
    s = 0.0
    for lm in lms:
        s += math.exp(lm - m)
    return XReal(1, m + math.log(s))
