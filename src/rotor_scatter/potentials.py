"""Analytic 2D Fourier transforms of the peak shapes and their
multi-peak superposition.

Transform convention: F(q) = (1/2pi) * integral V(r) exp(-i q.r) d^2r.
Every downstream prefactor assumes exactly this normalization, so do not
touch it. For the radial shapes used here the single-peak transform is
real:

    gaussian             V0 exp(-r^2/D^2)              -> (V0 D^2/2) exp(-(qD)^2/4)
    polynomial_gaussian  V0 (1 - r^2/D^2) exp(-r^2/D^2) -> (V0 q^2 D^4/8) exp(-(qD)^2/4)

A peak shifted to center c picks up exp(-i q_x c).
"""

from __future__ import annotations

import math

import numpy as np

from .model import (  # noqa: F401  (make_grating re-exported on purpose)
    GAUSSIAN,
    POLYNOMIAL_GAUSSIAN,
    PeakShape,
    PotentialSpec,
    make_grating,
)

# |sin(x/2)| below this switches the grating factor to reduced arguments
_RATIO_MIN_S = 0.1
# (2N+1)*|u| below this switches further to the Taylor series
_SERIES_Y = 0.02


def ft_peak(shape: PeakShape, q_mag):
    """Single-peak transform at radial momentum transfer q_mag >= 0, a
    float or an array."""
    t = q_mag * shape.width
    base = 0.5 * shape.strength * shape.width * shape.width * np.exp(-0.25 * t * t)
    if shape.variant == GAUSSIAN:
        return base
    return 0.25 * t * t * base


def ft_total_grid(spec: PotentialSpec, q_x: np.ndarray, q_y: np.ndarray):
    """(re, im) arrays of the whole potential's transform at q = (q_x, q_y).

    Peaks are folded in a canonical sorted order, so the result does not
    depend on how the peak list was assembled, bit for bit; values at
    +-q_x are exact complex conjugates (equal re, negated im, so
    re^2 + im^2 has the same bits, which born's mirror copies rest on).
    Each peak adds ft*cos(a) to re and subtracts ft*sin(a) from im,
    a = q_x*c.

    The trig of a centre c is computed once and reused by every later
    peak at c or at -c, then dropped after its last user; where all the
    peaks at +-c have one shape, the products ft*cos(a) and ft*sin(a)
    are kept in its place and reused too. This gives the same bits as
    computing them per peak because q_x*(-c) is exactly -(q_x*c) and
    numpy's cos is even and sin odd bit for bit, so a mirrored peak adds
    ft*sin(a) to im instead. numpy picks its trig kernels per CPU, so
    the parity is not assumed: it is asserted by
    tests/test_potentials.py::TestMirrorTrig::test_cos_even_sin_odd_bitwise.
    A centre at +-0 takes no trig: a is +-0 there, where cos is 1 and sin
    returns its argument, bit for bit (TestMirrorTrig asserts that too),
    and a * 0 + 1 keeps cos's NaN where q_x is not finite.
    """
    q = np.hypot(q_x, q_y)
    peaks = sorted(spec.peaks, key=lambda p: (p.center_x, p.shape.variant,
                                              p.shape.strength, p.shape.width))
    last_use = {abs(p.center_x): j for j, p in enumerate(peaks)}
    shapes = {}
    for p in peaks:
        shapes.setdefault(abs(p.center_x), set()).add(p.shape)
    fts = {}
    held = {}  # per |c|: the sign of its first centre, cos and sin or their products
    re = np.zeros_like(q)
    im = np.zeros_like(q)
    term = np.empty_like(q)
    for j, p in enumerate(peaks):
        ft = fts.get(p.shape)
        if ft is None:
            ft = ft_peak(p.shape, q)
            fts[p.shape] = ft
        c = p.center_x
        key = abs(c)
        shared = len(shapes[key]) == 1
        if key not in held:
            a = q_x * c
            if c == 0.0:  # a is +-0 (NaN where q_x is not finite)
                cos_a, sin_a = a * 0.0 + 1.0, a
            else:
                cos_a, sin_a = np.cos(a), np.sin(a)
            if shared:
                cos_a *= ft
                sin_a *= ft
            held[key] = (math.copysign(1.0, c), cos_a, sin_a)
        sign, cos_a, sin_a = held[key]
        if last_use[key] == j:
            del held[key]
        re += cos_a if shared else np.multiply(ft, cos_a, out=term)
        sin_term = sin_a if shared else np.multiply(ft, sin_a, out=term)
        if math.copysign(1.0, c) == sign:
            im -= sin_term
        else:
            im += sin_term
    return re, im


def _dirichlet_coeffs(m: int):
    mm = float(m * m)
    c2 = (mm - 1.0) / 6.0
    c4 = 7.0 / 360.0 - mm / 36.0 + mm * mm / 120.0
    return c2, c4


def dirichlet_amplitude_grid(x: np.ndarray, half_count: int) -> np.ndarray:
    """sin((2N+1)x/2)/sin(x/2) for a 2N+1-peak grating, N = half_count.

    The direct ratio is inaccurate near the revivals x = 0 mod 2pi: the
    float product (2N+1)*x/2 lands next to a zero of sin with an absolute
    argument error of order ulp, which the small denominator then
    amplifies. Below |sin(x/2)| = 0.1 the argument is therefore reduced
    to u = x/2 - pi*round(x/2pi) first, and the value comes from
    sin((2N+1)u)/sin(u), or from its Taylor series once (2N+1)|u| is
    tiny. Peaks at 2N+1, reached at x = 0; identically 1 for one peak.
    Relative error stays near 1e-15, growing to ~1e-12 by |x| ~ 1e3.
    """
    if not isinstance(half_count, int) or half_count < 0:
        raise ValueError("half_count must be an integer >= 0")
    x = np.asarray(x, dtype=float)
    if half_count == 0:
        return np.ones_like(x)
    m = 2 * half_count + 1
    h = 0.5 * x
    s = np.sin(h)
    out = np.empty_like(h)
    plain = np.abs(s) >= _RATIO_MIN_S
    out[plain] = np.sin(m * h[plain]) / s[plain]
    near = ~plain
    if near.any():
        u = h[near] - np.pi * np.round(x[near] / (2.0 * np.pi))
        y = m * u
        c2, c4 = _dirichlet_coeffs(m)
        u2 = u * u
        series = m * (1.0 - c2 * u2 + c4 * (u2 * u2))
        # sign: sin(m(pi j + u)) = (-1)^j sin(mu) for odd m, matching the
        # (-1)^j of the denominator
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(y) / np.sin(u)
        out[near] = np.where(np.abs(y) < _SERIES_Y, series, ratio)
    return out
