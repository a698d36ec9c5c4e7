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

One kernel, bessel_j_grid, evaluates every request. Each element
carries its own order and its own start, a function of (n, x) alone,
and rescaling by the exact power 2^-830 never rounds (pending rescales
are replayed with ldexp at the end). Elements run in descending start
order, so each recurrence step touches only the elements already
seeded, and an element's value is stored when the step reaches its
order. bessel_j (one element) and bessel_j_batch (orders 0..n_max at
one x) are calls into it, so a value does not depend on the entry point
or on the other elements of the call.
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


def _tail_integral(a, x):
    # G(a) = integral of arccosh(t/x) dt from x to a, for a >= x
    return a * np.arccosh(a / x) - np.sqrt((a - x) * (a + x))


def _seed_orders(x: np.ndarray, n: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Start order N of the recurrence for orders n < U(x), elementwise.

    Smallest N > n, N >= x, meeting both truncation conditions of the
    module docstring, capped at U(x) + _START_PAD. Both conditions are
    monotone in N over that range.
    """
    lh = np.log(0.5 * x)
    cap = (U + _START_PAD).astype(float)
    tail = n >= x
    g_n = _tail_integral(np.maximum(n, x), x)

    def certified(N):
        m = N + 1.0
        ok = _logbound(m, lh) + np.log(N + 6.0) <= _LOG_TOL - _LN2
        ok &= ~tail | (_tail_integral(m, x) - g_n >= 2.0 * _LN2 - _LOG_TOL)
        return ok | (N >= cap)

    lo = np.minimum(np.maximum(n + 1.0, np.ceil(x)), cap)
    return _bisect(lo, np.where(certified(lo), lo, cap), certified).astype(np.int64)


# ---------------------------------------------------------------------------
# double-double primitives; plain arithmetic, so they run on floats and
# numpy arrays alike

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


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, real x >= 0: one element of bessel_j_grid."""
    return float(bessel_j_grid(n, np.array([x], dtype=float))[0])


def bessel_j_batch(order_range: BesselOrderRange, x: float) -> list[float]:
    """[J_0(x), ..., J_n_max(x)], each value that of its bessel_j call."""
    if not isinstance(order_range, BesselOrderRange):
        order_range = BesselOrderRange(int(order_range))
    orders = np.arange(order_range.n_max + 1)
    return bessel_j_grid(orders, np.full(orders.size, x, dtype=float)).tolist()


def bessel_j_grid(n, xs: np.ndarray) -> np.ndarray:
    """J_n(x) over a one-dimensional array of arguments x >= 0.

    n is an integer, or an integer array shaped like xs giving each
    element its own order. Negative orders go through J_{-n} = (-1)^n J_n
    with an exact sign flip. Raises ValueError for a negative or
    non-finite argument, a non-integer order, or |n| beyond the order cap.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("argument grid must be one-dimensional")
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu":
        raise ValueError("order must be an integer")
    if ns.ndim and ns.shape != xs.shape:
        raise ValueError("order array must be shaped like the arguments")
    if ((ns < -ORDER_CAP) | (ns > ORDER_CAP)).any():
        raise ValueError(f"order exceeds the supported cap {ORDER_CAP}")
    if not np.isfinite(xs).all() or (xs < 0.0).any():
        raise ValueError("arguments must be finite and >= 0")
    m = np.broadcast_to(np.abs(ns).astype(np.int64), xs.shape)
    out = np.zeros(xs.shape)

    # ascending series, x < _SERIES_X: truncation below 1e-38 relative
    series = xs < _SERIES_X
    if series.any():
        x, ms = xs[series], m[series]
        y = 0.25 * x * x
        half = 0.5 * x
        t = np.ones_like(x)
        for j in range(1, int(ms.max()) + 1):
            live = (ms >= j) & (t != 0.0)
            if not live.any():
                break
            t = np.where(live, t * (half / j), t)
        corr = 1.0 - y / (ms + 1) + (y * y) / (2.0 * (ms + 1) * (ms + 2))
        out[series] = t * corr

    # orders at or past U(x) stay exactly 0.0
    idx = np.flatnonzero(~series)
    U = _start_orders(xs[idx])
    live = m[idx] < U
    idx, U = idx[live], U[live]
    if idx.size:
        starts = _seed_orders(xs[idx], m[idx], U)
        order = np.argsort(-starts, kind="stable")
        idx = idx[order]
        out[idx] = _miller_grid(m[idx], xs[idx], starts[order])

    return np.where((ns < 0) & (ns % 2 != 0), -out, out)


def _miller_grid(ms: np.ndarray, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """J_m(x) per element from per-element starts (each above its order
    m) sorted descending.

    Step k touches only the prefix of elements seeded at orders >= k, and
    stores the value of every element whose order is k.
    """
    top = int(starts[0])
    active = np.searchsorted(-starts, -np.arange(top + 1), side="right")
    by_order = np.argsort(ms, kind="stable")
    orders, first = np.unique(ms[by_order], return_index=True)
    save_at = dict(zip(orders.tolist(), np.split(by_order, first[1:])))
    inv_x = 1.0 / x
    xh_s, xl_s = _split(x)  # x split is loop-invariant
    jch = np.empty_like(x)
    jcl = np.empty_like(x)
    jph = np.empty_like(x)
    jpl = np.empty_like(x)
    sh = np.zeros_like(x)
    sl = np.zeros_like(x)
    events = np.zeros(x.shape, dtype=np.int64)
    saved_h = np.empty_like(x)
    saved_l = np.empty_like(x)
    saved_ev = np.zeros(x.shape, dtype=np.int64)
    seeded = 0
    for k in range(top, -1, -1):
        c = int(active[k])
        if c > seeded:
            jch[seeded:c] = _SEED
            jcl[seeded:c] = 0.0
            jph[seeded:c] = 0.0
            jpl[seeded:c] = 0.0
            seeded = c
        hit = save_at.get(k)
        if hit is not None:  # every element is seeded above its order
            saved_h[hit] = jch[hit]
            saved_l[hit] = jcl[hit]
            saved_ev[hit] = events[hit]
        if k == 0:
            sh, sl = _dd_add(sh, sl, jch, jcl)
        elif k % 2 == 0:
            sh[:c], sl[:c] = _dd_add(sh[:c], sl[:c], 2.0 * jch[:c], 2.0 * jcl[:c])
        if k > 0:
            xc = x[:c]
            ch = (2.0 * k) * inv_x[:c]
            ph = ch * xc
            chh, chl = _split(ch)
            perr = ((chh * xh_s[:c] - ph) + chh * xl_s[:c] + chl * xh_s[:c]) \
                + chl * xl_s[:c]
            cl = ((2.0 * k - ph) - perr) / xc
            mh, ml = _dd_mul(ch, cl, jch[:c], jcl[:c])
            nh, nl = _dd_add(mh, ml, -jph[:c], -jpl[:c])
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
    return _dd_div_out(np.ldexp(saved_h, shift), np.ldexp(saved_l, shift), sh, sl)
