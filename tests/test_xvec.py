"""Unit tests for the vectorized log-polar array helpers."""

import math

import numpy as np
import pytest

from heavyroots.xnum import (
    XZERO,
    from_complex,
    wrap_phase,
    xcomplex,
    xlogsumexp,
    xreal,
)
from heavyroots.xvec import (
    as_arrays,
    from_arrays,
    logsumexp_vec,
    relative_distance_matrix,
    wrap_phase_vec,
)
from oracles import relative_distance


def test_wrap_phase_vec_matches_scalar():
    # bitwise, on random phases at several scales and on exact multiples of
    # pi, where the wrap boundary and -0.0 live
    rng = np.random.default_rng(12)
    phis = np.concatenate(
        [
            [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 7.5, -9.25],
            math.pi * np.arange(-40.0, 41.0),
            rng.uniform(-4.0, 4.0, 100_000),
            rng.uniform(-1e6, 1e6, 100_000),
            np.nextafter(math.pi * np.arange(-8.0, 9.0), np.inf),
            np.nextafter(math.pi * np.arange(-8.0, 9.0), -np.inf),
        ]
    )
    out = wrap_phase_vec(phis)
    want = np.array([wrap_phase(raw) for raw in phis.tolist()])
    assert out.tobytes() == want.tobytes()
    assert not np.signbit(out[out == 0.0]).any()  # -0.0 never escapes


def test_as_arrays_and_back_round_trip_with_zeros():
    values = [xcomplex(3.5, -1.0), XZERO, xcomplex(-700.0, math.pi)]
    lm, ph = as_arrays(values)
    assert lm[1] == -np.inf
    back = from_arrays(lm, ph)
    assert back == values


def test_logsumexp_vec_matches_scalar_logsumexp():
    rng = np.random.default_rng(7)
    a = rng.uniform(-50.0, 50.0, (6, 4))
    out = logsumexp_vec(a, axis=0)
    for j in range(a.shape[1]):
        expected = xlogsumexp([xreal(1, float(v)) for v in a[:, j]])
        assert out[j] == pytest.approx(expected.logmag, rel=1e-13)


def test_logsumexp_vec_all_zero_slice_gives_neg_inf():
    a = np.full((3, 2), -np.inf)
    a[:, 1] = [0.0, 1.0, 2.0]
    out = logsumexp_vec(a, axis=0)
    assert out[0] == -np.inf
    assert np.isfinite(out[1])


def test_relative_distance_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    ws = [xcomplex(float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3))) for _ in range(4)]
    zs = [xcomplex(float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3))) for _ in range(4)]
    lm_w, ph_w = as_arrays(ws)
    lm_z, ph_z = as_arrays(zs)
    d = relative_distance_matrix(lm_w, ph_w, lm_z, ph_z)
    for i, w in enumerate(ws):
        for j, z in enumerate(zs):
            assert d[i, j] == pytest.approx(relative_distance(z, w), rel=1e-9)


def test_relative_distance_matrix_overflow_is_inf_not_nan():
    lm_w = np.array([-400.0])
    lm_z = np.array([400.0])
    ph = np.array([0.0])
    d = relative_distance_matrix(lm_w, ph, lm_z, ph)
    assert np.isinf(d[0, 0])
    assert not np.isnan(d).any()
