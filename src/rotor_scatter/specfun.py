"""Integer-order Bessel functions of the first kind.

The channel form factors need J_n(x) at integer order and real x >= 0,
nothing else. The evaluator is the classic downward recurrence with
normalization against J_0 + 2*sum J_2m = 1, but the recurrence runs in
compensated (double-double) arithmetic: a plain double recurrence loses
about x*eps absolutely while marching through the oscillatory region,
which is visible against the 1e-12 accuracy target already at x ~ 400.
With the compensated carry the returned doubles are correctly rounded
over the whole supported box (checked against 40-digit references).

Exact zeros. U(x) is the smallest order with certified |J_U(x)| <
1e-330, from |J_M(x)| <= B_M = (x/2)^M / M! (DLMF 10.14.4) and a
Stirling lower bound on M!. That is under the smallest subnormal
double, so every order >= U(x) is returned as exactly 0.0 (the
correctly rounded value) without running the recurrence.

Start order. Every other order n is computed by seeding J_{N+1} = 0,
J_N = 1e-30 at the smallest N > n, N >= x, whose truncation error is
certified below 4e-37 (e^-84 split evenly between numerator and
normalization), far under the double-double resolution ~1e-32.
Seeded that way, the recurrence returns before rounding

    (J_n - t Y_n) / (T_N - t S_N),   t = J_{N+1} / Y_{N+1},

T_N = J_0 + 2*sum_{2m <= N} J_2m and S_N the same sum over Y. Three
standard facts bound the terms for N >= x, where J_N, J_{N+1} > 0 and
Y_N, Y_{N+1} < 0:

* Wronskian (DLMF 10.5.2): J_N |Y_{N+1}| >= 2/(pi x), so
  |t| <= (pi x/2) B_N B_{N+1};
* Nicholson's integral (DLMF 10.9.30): J_k^2 + Y_k^2 grows with k,
  so |t Y_k| <= (1 + |t|) J_{N+1} for every k <= N + 1;
* for k + 1 > x the continued fraction for J_{k+1}/J_k is bounded by
  its fixed point, J_{k+1}/J_k <= exp(-arccosh((k + 1)/x)).

The normalization is off by at most (N + 6) B_{N+1}. In the tail
(n >= x) the numerator is off by (1 + |t|) J_{N+1}/J_n relative to J_n,
at most 2 exp(-(G(N+1) - G(n))) with G(a) = a arccosh(a/x) -
sqrt(a^2 - x^2) (the ratio bounds multiplied from k = n to N, the
sum of their exponents bounded below by its integral). In
the oscillatory region (n < x) it is off by |t| relative to the local
amplitude sqrt(J_n^2 + Y_n^2), which the normalization condition
already pushes below e^-160; relative to J_n itself no bound exists
at a zero of J_n, and the double-double rounding error has the same
scale there. Both conditions are monotone in N, so N is found by
bisection per element. The start never exceeds U(x) + 8; orders that
would ask for more lie so far in the tail that the truncation error
of that start, below 2 B_{U+9} < 1e-330 absolutely, is far under one
unit in the last place of their values.

The start is a function of (n, x) alone: the scalar path, the batch
path (started from its highest nonzero order) and the grid path run the
same rule, and rescaling by the exact power 2^-830 never rounds
(pending rescales are replayed with ldexp at the end). The grid path
mirrors the scalar code operation for operation in numpy, elements in
descending start order so that each step touches only the elements
already seeded, and it agrees with scalar calls to the bit. A start
above the needed one changes the result by less than the certified
bound, so batch and scalar results agree to the bit as well except on
values within ~1e-31 relative of a rounding tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORDER_CAP = 20000

_SERIES_X = 1e-6
_SEED = 1e-30
_START_PAD = 8
_RESCALE = 2.0 ** 830
_RESCALE_INV = 2.0 ** -830
_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitter
_LOG_FLOOR = -760.0   # ln 1e-330, certifies underflow past U(x)
_LOG_TOL = -84.0      # ln of the certified truncation error of a start
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class BesselOrderRange:
    """Orders 0..n_max evaluated in one batch."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, int) or isinstance(self.n_max, bool):
            raise ValueError("n_max must be an integer")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.n_max > ORDER_CAP:
            raise ValueError(f"n_max exceeds the supported cap {ORDER_CAP}")


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if x < 0.0:
        raise ValueError("argument must be >= 0")
    return x


def _logbound(m, lh):
    """Upper bound on ln B_m = ln((x/2)^m / m!), lh = ln(x/2); Stirling
    lower bound on m!."""
    return m * (lh + 1.0 - np.log(m)) - 0.5 * np.log(2.0 * np.pi * m)


def _bisect(lo, hi, ok):
    """Smallest integer N in (lo, hi] with ok(N), elementwise, for ok
    monotone in N on that range and true at hi (hi == lo returns hi).

    The endpoints must be integer-valued: the floor midpoint then always
    makes progress, a fractional bracket can stall at hi - lo in (1, 2).
    """
    while (hi - lo > 1.0).any():
        mid = np.floor((lo + hi) / 2.0)
        take = ok(mid)
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
    return hi


def _start_orders(xs: np.ndarray) -> np.ndarray:
    """U(x): smallest M with certified |J_M(x)| < 1e-330, elementwise.

    Bound: ln|J_M| <= M*(ln(x/2) + 1 - ln M) - 0.5*ln(2 pi M).
    Monotone decreasing in M past its peak, so doubling then bisection
    is safe. Series-path elements (x < _SERIES_X) are returned as 0.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=np.int64)
    live = xs >= _SERIES_X
    if not live.any():
        return out
    x = xs[live]
    lh = np.log(0.5 * x)

    hi = np.maximum(8.0, np.ceil(x))
    while True:
        bad = _logbound(hi, lh) >= _LOG_FLOOR
        if not bad.any():
            break
        hi = np.where(bad, 2.0 * hi, hi)
    hi = _bisect(np.floor(hi / 2.0), hi, lambda m: _logbound(m, lh) < _LOG_FLOOR)
    out[live] = hi.astype(np.int64)
    return out


def _start_order(x: float) -> int:
    return int(_start_orders(np.array([x]))[0])


def _tail_integral(a, x):
    # G(a) = integral of arccosh(t/x) dt from x to a, for a >= x
    return a * np.arccosh(a / x) - np.sqrt((a - x) * (a + x))


def _seed_orders(x: np.ndarray, n: int, U: np.ndarray) -> np.ndarray:
    """Start order N of the recurrence for order n < U(x), elementwise.

    Smallest N > n, N >= x, meeting both truncation conditions of the
    module docstring, capped at U(x) + _START_PAD. Both conditions are
    monotone in N over that range.
    """
    lh = np.log(0.5 * x)
    cap = (U + _START_PAD).astype(float)
    tail = n >= x
    g_n = _tail_integral(np.maximum(float(n), x), x)

    def certified(N):
        m = N + 1.0
        ok = _logbound(m, lh) + np.log(N + 6.0) <= _LOG_TOL - _LN2
        ok &= ~tail | (_tail_integral(m, x) - g_n >= 2.0 * _LN2 - _LOG_TOL)
        return ok | (N >= cap)

    lo = np.minimum(np.maximum(n + 1.0, np.ceil(x)), cap)
    return _bisect(lo, np.where(certified(lo), lo, cap), certified).astype(np.int64)


# ---------------------------------------------------------------------------
# double-double primitives (scalar). The numpy grid path repeats these
# formulas verbatim on arrays; keep the two in lockstep.

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    sh, sl = _two_sum(xh, yh)
    sl = sl + (xl + yl)
    return _two_sum(sh, sl)


def _dd_mul(xh, xl, yh, yl):
    ph, pl = _two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return _two_sum(ph, pl)


def _dd_div_out(xh, xl, yh, yl):
    # quotient rounded to a single double, one Newton correction
    q = xh / yh
    th, tl = _two_prod(q, yh)
    tl = tl + q * yl
    rh, _ = _dd_add(xh, xl, -th, -tl)
    return q + rh / yh


def _series_row(x: float, n_hi: int) -> list[float]:
    # ascending series, x < _SERIES_X: truncation below 1e-38 relative
    y = 0.25 * x * x
    out = [0.0] * (n_hi + 1)
    t = 1.0
    half = 0.5 * x
    for n in range(n_hi + 1):
        if n > 0:
            t = t * (half / n)
            if t == 0.0:
                break
        corr = 1.0 - y / (n + 1) + (y * y) / (2.0 * (n + 1) * (n + 2))
        out[n] = t * corr
    return out


def _miller_row(x: float, n_hi: int) -> list[float]:
    U = _start_order(x)
    out = [0.0] * (n_hi + 1)
    top = min(n_hi, U - 1)
    start = int(_seed_orders(np.array([x]), top, np.array([U]))[0])
    saved_h = [0.0] * (top + 1)
    saved_l = [0.0] * (top + 1)
    saved_ev = [0] * (top + 1)
    jph = jpl = 0.0
    jch, jcl = _SEED, 0.0
    sh = sl = 0.0
    events = 0
    inv_x = 1.0 / x
    for n in range(start, -1, -1):
        if n <= top:
            saved_h[n] = jch
            saved_l[n] = jcl
            saved_ev[n] = events
        if n == 0:
            sh, sl = _dd_add(sh, sl, jch, jcl)
        elif n % 2 == 0:
            sh, sl = _dd_add(sh, sl, 2.0 * jch, 2.0 * jcl)
        if n > 0:
            ch = (2.0 * n) * inv_x
            th, tl = _two_prod(ch, x)
            cl = ((2.0 * n - th) - tl) / x
            mh, ml = _dd_mul(ch, cl, jch, jcl)
            nh, nl = _dd_add(mh, ml, -jph, -jpl)
            jph, jpl = jch, jcl
            jch, jcl = nh, nl
            if abs(jch) > _RESCALE:
                jch *= _RESCALE_INV
                jcl *= _RESCALE_INV
                jph *= _RESCALE_INV
                jpl *= _RESCALE_INV
                sh *= _RESCALE_INV
                sl *= _RESCALE_INV
                events += 1
    for n in range(top + 1):
        shift = -830 * (events - saved_ev[n])
        h = math.ldexp(saved_h[n], shift)
        l = math.ldexp(saved_l[n], shift)
        out[n] = _dd_div_out(h, l, sh, sl)
    return out


def _row(x: float, n_hi: int) -> list[float]:
    if x < _SERIES_X:
        return _series_row(x, n_hi)
    return _miller_row(x, n_hi)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, real x >= 0.

    Negative orders go through J_{-n} = (-1)^n J_n with an exact sign
    flip. Raises ValueError for x < 0, non-finite x, or |n| beyond the
    order cap.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("order must be an integer")
    if abs(n) > ORDER_CAP:
        raise ValueError(f"order exceeds the supported cap {ORDER_CAP}")
    x = _check_x(x)
    m = abs(n)
    val = _row(x, m)[m]
    if n < 0 and (n % 2 != 0):
        val = -val
    return val


def bessel_j_batch(order_range: BesselOrderRange, x: float) -> list[float]:
    """[J_0(x), ..., J_n_max(x)], one recurrence started for the highest
    nonzero order; each value equals its bessel_j call (module docstring)."""
    if not isinstance(order_range, BesselOrderRange):
        order_range = BesselOrderRange(int(order_range))
    x = _check_x(x)
    return _row(x, order_range.n_max)


# ---------------------------------------------------------------------------
# vectorized path for theta grids

def _v_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _v_split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _v_two_prod(a, b):
    p = a * b
    ah, al = _v_split(a)
    bh, bl = _v_split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _v_dd_add(xh, xl, yh, yl):
    sh, sl = _v_two_sum(xh, yh)
    sl = sl + (xl + yl)
    return _v_two_sum(sh, sl)


def _v_dd_mul(xh, xl, yh, yl):
    ph, pl = _v_two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return _v_two_sum(ph, pl)


def bessel_j_grid(n: int, xs: np.ndarray) -> np.ndarray:
    """J_n over an array of arguments, one normalized recurrence pass.

    Same algorithm as the scalar path (per-element start order from n,
    double-double carry, exact rescaling); output matches elementwise
    scalar calls bit for bit.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("order must be an integer")
    if abs(n) > ORDER_CAP:
        raise ValueError(f"order exceeds the supported cap {ORDER_CAP}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("argument grid must be one-dimensional")
    if not np.isfinite(xs).all() or (xs < 0.0).any():
        raise ValueError("arguments must be finite and >= 0")
    m = abs(n)
    out = np.zeros(xs.shape)

    series = xs < _SERIES_X
    if series.any():
        x = xs[series]
        y = 0.25 * x * x
        half = 0.5 * x
        t = np.ones_like(x)
        for j in range(1, m + 1):
            t = t * (half / j)
        corr = 1.0 - y / (m + 1) + (y * y) / (2.0 * (m + 1) * (m + 2))
        out[series] = t * corr

    # orders at or past U(x) stay exactly 0.0
    idx = np.flatnonzero(~series)
    U = _start_orders(xs[idx])
    idx, U = idx[m < U], U[m < U]
    if idx.size:
        starts = _seed_orders(xs[idx], m, U)
        order = np.argsort(-starts, kind="stable")
        idx = idx[order]
        out[idx] = _miller_grid(m, xs[idx], starts[order])

    if n < 0 and (n % 2 != 0):
        out = -out
    return out


def _miller_grid(m: int, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """J_m(x) from per-element starts (all > m) sorted descending.

    Step k touches only the prefix of elements seeded at orders >= k;
    each element sees exactly the operations of _miller_row.
    """
    top = int(starts[0])
    active = np.searchsorted(-starts, -np.arange(top + 1), side="right")
    inv_x = 1.0 / x
    xh_s, xl_s = _v_split(x)  # x split is loop-invariant
    jch = np.empty_like(x)
    jcl = np.empty_like(x)
    jph = np.empty_like(x)
    jpl = np.empty_like(x)
    sh = np.zeros_like(x)
    sl = np.zeros_like(x)
    events = np.zeros(x.shape, dtype=np.int64)
    seeded = 0
    for k in range(top, -1, -1):
        c = int(active[k])
        if c > seeded:
            jch[seeded:c] = _SEED
            jcl[seeded:c] = 0.0
            jph[seeded:c] = 0.0
            jpl[seeded:c] = 0.0
            seeded = c
        if k == m:  # every element is seeded above m
            saved_h = jch.copy()
            saved_l = jcl.copy()
            saved_ev = events.copy()
        if k == 0:
            sh, sl = _v_dd_add(sh, sl, jch, jcl)
        elif k % 2 == 0:
            sh[:c], sl[:c] = _v_dd_add(sh[:c], sl[:c], 2.0 * jch[:c], 2.0 * jcl[:c])
        if k > 0:
            xc = x[:c]
            ch = (2.0 * k) * inv_x[:c]
            ph = ch * xc
            chh, chl = _v_split(ch)
            perr = ((chh * xh_s[:c] - ph) + chh * xl_s[:c] + chl * xh_s[:c]) \
                + chl * xl_s[:c]
            cl = ((2.0 * k - ph) - perr) / xc
            mh, ml = _v_dd_mul(ch, cl, jch[:c], jcl[:c])
            nh, nl = _v_dd_add(mh, ml, -jph[:c], -jpl[:c])
            # the current pair becomes the previous one; the buffers swap
            # whole, unseeded slots are overwritten when they are seeded
            jph, jch = jch, jph
            jpl, jcl = jcl, jpl
            jch[:c] = nh
            jcl[:c] = nl
            resc = np.abs(nh) > _RESCALE
            if resc.any():
                f = np.where(resc, _RESCALE_INV, 1.0)
                jch[:c] *= f
                jcl[:c] *= f
                jph[:c] *= f
                jpl[:c] *= f
                sh[:c] *= f
                sl[:c] *= f
                events[:c] += resc
    shift = (-830 * (events - saved_ev)).astype(np.int64)
    h = np.ldexp(saved_h, shift)
    l = np.ldexp(saved_l, shift)
    # _dd_div_out, vectorized
    q = h / sh
    th, tl = _v_two_prod(q, sh)
    tl = tl + q * sl
    rh, _ = _v_dd_add(h, l, -th, -tl)
    return q + rh / sh
