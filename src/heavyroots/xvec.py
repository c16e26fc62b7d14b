"""The array representation of extended-range values, and operations on it.

Coefficients and roots travel through the library as one pair of parallel
float64 arrays (logmag, phase): entry j is exp(logmag[j] + i phase[j]).
Exact zero is logmag = -inf with phase 0, which flows through max-factored
accumulations as an exp() underflow to 0.  This module owns that format:
as_arrays and from_arrays convert to and from the scalar XComplex of xnum,
which only the serialization edges (CLI files, trial records) use.
"""

from __future__ import annotations

import numpy as np

from .xnum import TAU, XComplex, XZERO

_TINY = 1e-300


def wrap_phase_vec(phi: np.ndarray) -> np.ndarray:
    """Normalize angles into (-pi, pi]; -0.0 becomes +0.0."""
    r = np.mod(phi, TAU)
    r = np.where(r > np.pi, r - TAU, r)
    return r + 0.0


def freeze(*arrays: np.ndarray) -> None:
    """Make arrays read-only; the containers that hold them hand the same
    arrays to several stages of a trial."""
    for a in arrays:
        a.flags.writeable = False


def as_arrays(values) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) arrays from a sequence of XComplex; zeros map to -inf."""
    lm = np.array([-np.inf if v.zero else v.logmag for v in values], dtype=np.float64)
    ph = np.array([0.0 if v.zero else v.phase for v in values], dtype=np.float64)
    return lm, ph


def from_arrays(lm: np.ndarray, ph: np.ndarray) -> list[XComplex]:
    """XComplex values from (logmag, phase) arrays; -inf maps to XZERO."""
    out = []
    for l, p in zip(lm.tolist(), ph.tolist()):
        out.append(XZERO if l == -np.inf else XComplex(False, l, p))
    return out


def logsumexp_vec(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Real log-sum-exp along an axis; empty and all-(-inf) slices give -inf."""
    m = np.max(a, axis=axis, initial=-np.inf)
    safe = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(a - np.expand_dims(safe, axis)), axis=axis)
    with np.errstate(divide="ignore"):
        return np.where(s > 0.0, safe + np.log(np.maximum(s, _TINY)), -np.inf)


def relative_distance_matrix(lm_w, ph_w, lm_z, ph_z) -> np.ndarray:
    """D[..., i, j] = |z_j / w_i - 1|; rows index reference values w.

    Leading axes, if any, index independent sets of values, one matrix each.
    The matrix and two temporaries of its size are all the memory it takes.
    """
    d_lm = lm_z[..., None, :] - lm_w[..., :, None]
    d_ph = ph_z[..., None, :] - ph_w[..., :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp(d_lm, out=d_lm)
        re = np.cos(d_ph)
        re *= t
        re -= 1.0
        im = np.sin(d_ph, out=d_ph)
        im *= t
        d = np.hypot(re, im, out=re)
    d[np.isnan(d)] = np.inf
    return d
