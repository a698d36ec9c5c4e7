"""Integer-order Bessel functions of the first kind.

The channel form factors need J_n(x) at integer order and real x >= 0,
nothing else. The evaluator is the classic downward recurrence with
normalization against J_0 + 2*sum J_2m = 1, but the recurrence runs in
compensated (double-double) arithmetic: a plain double recurrence loses
about x*eps absolutely while marching through the oscillatory region,
which is visible against the 1e-12 accuracy target already at x ~ 400.
With the compensated carry the recurrence values equal the 40-digit
references rounded to double at every point the tests check. Arguments
below 1e-6 take the ascending series instead, which rounds once per
factor of its product: within n + 1 roundings of the reference at order
n, not correctly rounded (bessel_j(n, 1e-9) is 1 to 3 ulps off for
n = 5..12).

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
scale there. The start never exceeds U(x) + 8; orders that would ask
for more lie so far in the tail that the truncation error of that
start, below 2 B_{U+9} < 1e-330 absolutely, is far under one unit in
the last place of their values.

Start search. Both conditions are monotone in N, and so is the cap
N >= U(x) + 8, which needs no U(x): ln B_m rises up to m ~ x/2, where
it is above -760, and falls past it, so m < U(x) exactly when the bound
on ln B_m is at least ln 1e-330, and N is capped when N - 8 fails that
test. The start is the smallest N >= max(n + 1, ceil x) that is
certified or capped. Past x both conditions are convex and increasing
in N, and a few Newton steps on each give a float estimate N, taken
when the conditions hold at N but not at N - 1 (or N is the lowest
allowed start) and N is not capped. The few elements it fails (starts
at the cap, a root within rounding of an integer) bracket the start
from N, doubling it until the predicate holds, and close the bracket
by bisection.

One kernel, bessel_j_grid, evaluates every request. Each element
carries its own order and its own start, a function of (n, x) alone,
and rescaling by the exact power 2^-830 never rounds (pending rescales
are replayed with ldexp at the end). Elements run in descending start
order, so each recurrence step touches only the elements already
seeded, and an element's value is stored when the step reaches its
order. bessel_j(n, x) (one element) and bessel_j_batch(n_max, x)
(orders 0..n_max at one x, n_max a plain int) are calls into it, so a
value does not depend on the entry point or on the other elements of
the call. A call finds its starts one BLOCK of elements at a time,
sorts all its elements by start and runs the recurrence over
consecutive blocks of BLOCK, which bounds the work arrays; born makes
one call per group of consecutive profiles of a run, a group closing
once it holds BLOCK elements, so that the blocks of the whole group run
at similar depth. The blocks change no value for the same reason.

Renormalization. A double-double sum is Knuth's two-sum (s, e) of the
high parts, y = e + (al + bl), and one renormalization of (s, y). The
inputs are normalized, |lo| <= ulp(hi)/2, and that makes the
renormalization Dekker's Fast2Sum, exact when exponent(s) >=
exponent(y) or s = 0. Without cancellation |s| >= max(|ah|, |bh|)/2 and
|y| <= 2.5 ulp(s). Under Sterbenz cancellation (opposite signs within a
factor of 2, so adjacent binades at most) s = ah + bh exactly, e = 0,
and |y| <= ulp(ah)/2 + ulp(bh)/2 <= 1.5 ulp_min, ulp_min the smaller
ulp; s is a multiple of ulp_min, so it is 0 or at least ulp_min, whose
exponent bounds that of y. The product (ch, cl) J_k is renormalized the
same way: its low part is a few ulp of its high part. An exact sum is
the same double from either routine, its sign of zero included, except
at y = -0, where Fast2Sum's error is -0 and the two-sum's +0. y = -0
needs a -0 among the high parts, and the recurrence makes none (its
seeds are +0 and 1e-30, and a rounded sum is -0 only when both addends
are). The two-sum stays where magnitudes are unordered: the first sum
of each addition, and _dd_div_to.
"""

from __future__ import annotations

import math

import numpy as np

ORDER_CAP = 20000
# the channel engines' arguments x = alpha |q| <= alpha (k + kappa) <=
# 2 hypot(l, k alpha) stay below it under validate_config's order bound
ARGUMENT_CAP = 2.0 * ORDER_CAP
# elements per start search and per recurrence block, which bounds the
# kernel's temporaries and work arrays
BLOCK = 8192

_SERIES_X = 1e-6
_SEED = 1e-30
_START_PAD = 8
_RESCALE = 2.0 ** 830
_RESCALE_INV = 2.0 ** -830
_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitter
_LOG_FLOOR = -760.0   # ln 1e-330, certifies underflow past U(x)
_LOG_TOL = -84.0      # ln of the certified truncation error of a start
_LN2 = math.log(2.0)
_LN2PI = math.log(2.0 * math.pi)
# Newton steps of the start estimate (the test corpora need at most 7;
# an element still moving after them takes the bracket) and the step
# size that ends them
_NEWTON_STEPS = 30
_NEWTON_TOL = 1e-4


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


def _tail_integral(a, x):
    # G(a) = integral of arccosh(t/x) dt from x to a, for a >= x
    return a * np.arccosh(a / x) - np.sqrt((a - x) * (a + x))


def _certified(N, x, lh, tail, g_n):
    """Both truncation conditions of the module docstring at start N,
    uncapped; lh = ln(x/2), tail = n >= x, g_n = G(max(n, x))."""
    m = N + 1.0
    ok = _logbound(m, lh) + np.log(N + 6.0) <= _LOG_TOL - _LN2
    ok &= ~tail | (_tail_integral(m, x) - g_n >= 2.0 * _LN2 - _LOG_TOL)
    return ok


def _newton_up(m, h_and_slope):
    """Root of a convex increasing h, elementwise, from m where h(m) < 0;
    m itself where h(m) >= 0. The first Newton step from the left of the
    root lands right of it, and the later ones descend onto it."""
    need = None
    for _ in range(_NEWTON_STEPS):
        h, slope = h_and_slope(m)
        if need is None:
            need = h < 0.0
        step = np.where(need, h / slope, 0.0)
        m = m - step
        if np.abs(step).max() <= _NEWTON_TOL:
            break
    return m


def _below_u(m, lh):
    """m < U(x), elementwise, for integer m and lh = ln(x/2): the bound on
    ln B_max(m, 1) is at least ln 1e-330 (module docstring)."""
    return _logbound(np.maximum(m, 1.0), lh) >= _LOG_FLOOR


def _starts(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Start order per element (x >= _SERIES_X), 0 where n >= U(x): the
    least N >= max(n + 1, ceil x) that is certified or at least U(x) + 8,
    found as the module docstring's start search says."""
    out = np.zeros(x.shape, dtype=np.int64)
    lh = np.log(0.5 * x)
    nf = n.astype(float)
    live = np.flatnonzero(_below_u(nf, lh))
    if not live.size:
        return out
    x, nf, lh = x[live], nf[live], lh[live]
    lo = np.maximum(nf + 1.0, np.ceil(x))
    tail = nf >= x
    g_n = _tail_integral(np.maximum(nf, x), x)

    def bound(m):  # -ln B_m - ln(m + 5) + _LOG_TOL - ln 2, in m = N + 1
        lm = np.log(m)
        h = m * (lm - lh - 1.0) + 0.5 * (lm + _LN2PI) - np.log(m + 5.0)
        return h + _LOG_TOL - _LN2, lm - lh + 0.5 / m - 1.0 / (m + 5.0)

    m = _newton_up(lo + 1.0, bound)
    if tail.any():
        xt, gt = x[tail], g_n[tail]

        def tail_bound(m):  # G(m) - G(n) + _LOG_TOL - 2 ln 2
            h = _tail_integral(m, xt) - gt + _LOG_TOL - 2.0 * _LN2
            return h, np.arccosh(m / xt)

        m[tail] = _newton_up(m[tail], tail_bound)
    # the least N with N + 1 >= m; the 1e-7 keeps a root at an integer
    # from rounding N up
    N = np.maximum(lo, np.ceil(m - 1.0 - 1e-7))
    ok = _certified(N, x, lh, tail, g_n)
    ok &= (N == lo) | ~_certified(N - 1.0, x, lh, tail, g_n)
    ok &= _below_u(N - _START_PAD, lh)
    out[live[ok]] = N[ok].astype(np.int64)
    miss = np.flatnonzero(~ok)
    if miss.size:
        x, lh, tail, g_n, lo, hi = (a[miss] for a in (x, lh, tail, g_n, lo, N))

        def passes(N):  # certified or capped
            return _certified(N, x, lh, tail, g_n) | ~_below_u(N - _START_PAD, lh)

        # the start lies in (lo - 1, hi] once passes(hi) holds
        lo = lo - 1.0
        up = ~passes(hi)
        while up.any():
            lo = np.where(up, hi, lo)
            hi = np.where(up, 2.0 * hi, hi)
            up = ~passes(hi)
        out[live[miss]] = _bisect(lo, hi, passes).astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# double-double primitives (Knuth's two-sum, Dekker's Fast2Sum, split and
# product), written with out= ufuncs into arrays the caller owns

def _two_sum_to(a, b, s, e, t, u):
    """s = fl(a + b) and e = (a + b) - s exactly. s aliases neither input;
    e is written last and may alias either; t and u are scratch."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)
    np.subtract(s, t, out=u)
    np.subtract(a, u, out=u)
    np.subtract(b, t, out=t)
    np.add(u, t, out=e)


def _fast_two_sum_to(a, b, s, e, t):
    """s = fl(a + b) and e = (a + b) - s exactly when a == 0 or
    exponent(a) >= exponent(b) (Dekker's Fast2Sum). s aliases neither
    input; e is written last and may alias either; t is scratch."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)
    np.subtract(b, t, out=e)


def _split_to(a, hi, lo, t):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    np.multiply(a, _SPLIT, out=t)
    np.subtract(t, a, out=hi)
    np.subtract(t, hi, out=hi)
    np.subtract(a, hi, out=lo)


def _prod_err_to(ah, al, bh, bl, p, e, t):
    """e = a*b - p exactly for p = fl(a*b), from the splits of a and b."""
    np.multiply(ah, bh, out=e)
    np.subtract(e, p, out=e)
    np.multiply(ah, bl, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bh, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bl, out=t)
    np.add(e, t, out=e)


def _dd_div_to(xh, xl, yh, yl, q, w):
    """q = (xh + xl) / (yh + yl) rounded to one double: the double quotient
    plus one Newton correction. w is nine scratch arrays."""
    p, qh, ql, bh, bl, e, s, t, u = w
    np.divide(xh, yh, out=q)
    np.multiply(q, yh, out=p)
    _split_to(q, qh, ql, t)
    _split_to(yh, bh, bl, t)
    _prod_err_to(qh, ql, bh, bl, p, e, t)
    np.multiply(q, yl, out=t)
    np.add(e, t, out=e)              # p + e = q*y to double-double
    np.negative(p, out=p)
    _two_sum_to(xh, p, s, p, t, u)
    np.subtract(xl, e, out=e)
    np.add(p, e, out=p)
    np.add(s, p, out=s)              # the high part of x - q*y
    np.divide(s, yh, out=s)
    np.add(q, s, out=q)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, real x >= 0: one element of bessel_j_grid."""
    return float(bessel_j_grid(n, np.array([x], dtype=float))[0])


def bessel_j_batch(n_max: int, x: float) -> list[float]:
    """[J_0(x), ..., J_n_max(x)], each value that of its bessel_j call.

    Raises ValueError, before allocating anything, unless n_max is an int
    (not a bool) in [0, ORDER_CAP].
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError("n_max must be an integer")
    if not 0 <= n_max <= ORDER_CAP:
        raise ValueError(f"n_max must be in [0, {ORDER_CAP}]")
    orders = np.arange(n_max + 1)
    return bessel_j_grid(orders, np.full(orders.size, x, dtype=float)).tolist()


def bessel_j_grid(n, xs: np.ndarray) -> np.ndarray:
    """J_n(x) over a one-dimensional array of arguments x >= 0.

    n is an integer, or an integer array shaped like xs giving each
    element its own order. Negative orders go through J_{-n} = (-1)^n J_n
    with an exact sign flip. Raises ValueError, before computing a start,
    for an argument outside [0, ARGUMENT_CAP], a non-integer order, or
    |n| beyond the order cap.
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
    if not ((xs >= 0.0) & (xs <= ARGUMENT_CAP)).all():  # NaN fails too
        raise ValueError(f"arguments must be in [0, {ARGUMENT_CAP:g}]")
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

    # starts one block at a time, which bounds the search's temporaries;
    # orders at or past U(x) (start 0) stay exactly 0.0
    idx = np.flatnonzero(~series)
    starts = np.empty(idx.size, dtype=np.int64)
    for lo in range(0, idx.size, BLOCK):
        part = idx[lo:lo + BLOCK]
        starts[lo:lo + BLOCK] = _starts(xs[part], m[part])
    live = starts > 0
    idx, starts = idx[live], starts[live]
    order = np.argsort(-starts, kind="stable")
    idx, starts = idx[order], starts[order]
    del live, order  # the blocks' work arrays can take their memory
    for lo in range(0, idx.size, BLOCK):
        part = idx[lo:lo + BLOCK]
        out[part] = _miller_grid(m[part], xs[part], starts[lo:lo + BLOCK])

    return np.where((ns < 0) & (ns % 2 != 0), -out, out)


def _miller_grid(ms: np.ndarray, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """J_m(x) per element from per-element starts (each above its order
    m) sorted descending.

    Step k touches only the prefix of elements seeded at orders >= k, and
    stores the value of every element whose order is k. The work arrays
    are allocated once; every step writes into prefix views of them. The
    result is a view into them, for the caller to copy.
    """
    top = int(starts[0])
    active = np.searchsorted(-starts, -np.arange(top + 1), side="right")
    by_order = np.argsort(ms, kind="stable")
    orders, first = np.unique(ms[by_order], return_index=True)
    save_at = dict(zip(orders.tolist(), np.split(by_order, first[1:])))
    # rows 0-3: two (hi, lo) pairs, J_k at `cur` and J_{k+1} at 2 - cur;
    # 4-5: the normalization sum; 6-9: 2k/x as (ch, cl) with the split
    # of ch; 10-14: scratch; 15-17: 1/x and the split of x
    work = np.empty((18, x.size))
    work[4:6] = 0.0
    np.divide(1.0, x, out=work[15])
    _split_to(x, work[16], work[17], work[0])
    events = np.zeros(x.shape, dtype=np.int32)  # rescales per element
    saved_h = np.empty_like(x)
    saved_l = np.empty_like(x)
    saved_ev = np.zeros(x.shape, dtype=np.int32)
    cur = 0
    seeded = 0
    for k in range(top, -1, -1):
        c = int(active[k])
        if c > seeded:
            work[cur, seeded:c] = _SEED
            work[cur + 1, seeded:c] = 0.0
            work[2 - cur:4 - cur, seeded:c] = 0.0
            seeded = c
            v = list(work[:, :c])
            sh, sl, ch, chh, chl, cl, a, b, t, u, y, inv_x, xh, xl = v[4:]
            xc = x[:c]
        jh, jl, ph, pl = v[cur], v[cur + 1], v[2 - cur], v[3 - cur]
        hit = save_at.get(k)
        if hit is not None:  # every element is seeded above its order
            saved_h[hit] = work[cur, hit]
            saved_l[hit] = work[cur + 1, hit]
            saved_ev[hit] = events[hit]
        if k % 2 == 0:  # the sum takes J_0 once and 2 J_k at even k > 0
            dh, dl = jh, jl
            if k > 0:
                dh, dl = np.multiply(jh, 2.0, out=b), np.multiply(jl, 2.0, out=a)
            _two_sum_to(sh, dh, ch, y, t, u)  # ch is free until the step
            np.add(sl, dl, out=a)
            np.add(y, a, out=y)
            _fast_two_sum_to(ch, y, sh, sl, t)
        if k == 0:
            break
        # (ch, cl) = 2k/x: ch = fl(2k * (1/x)), cl the rounded remainder
        np.multiply(inv_x, 2.0 * k, out=ch)
        np.multiply(ch, xc, out=y)
        _split_to(ch, chh, chl, t)
        _prod_err_to(chh, chl, xh, xl, y, a, b)
        np.subtract(2.0 * k, y, out=b)
        np.subtract(b, a, out=b)
        np.divide(b, xc, out=cl)
        # (chh, a) = (ch, cl) * J_k, reusing the split of ch, whose row
        # is free once the product's error term is formed
        np.multiply(ch, jh, out=y)
        _split_to(jh, t, u, a)
        _prod_err_to(chh, chl, t, u, y, a, b)
        np.multiply(ch, jl, out=b)
        np.multiply(cl, jh, out=t)
        np.add(b, t, out=b)
        np.add(a, b, out=a)
        _fast_two_sum_to(y, a, chh, a, t)
        # J_{k-1} = (chh, a) - J_{k+1}, written over J_{k+1}, which becomes
        # the current pair (unseeded slots are overwritten when seeded).
        # Negated, not subtracted: the two-sum's error term needs
        # (-ph) - bb, whose exact zero has another sign than -(ph + bb)
        np.negative(ph, out=y)
        _two_sum_to(chh, y, b, y, t, u)
        np.subtract(a, pl, out=a)
        np.add(y, a, out=y)
        _fast_two_sum_to(b, y, ph, pl, t)
        cur = 2 - cur
        jh, jl, ph, pl = ph, pl, jh, jl
        np.abs(jh, out=t)
        if t.max() > _RESCALE:
            resc = t > _RESCALE
            f = np.where(resc, _RESCALE_INV, 1.0)
            for row in (jh, jl, ph, pl, sh, sl):
                row *= f
            events[:c] += resc
    # replay the rescales each element saw after its value was saved
    np.subtract(events, saved_ev, out=events)
    np.multiply(events, -830, out=events)
    np.ldexp(saved_h, events, out=saved_h)
    np.ldexp(saved_l, events, out=saved_l)
    _dd_div_to(saved_h, saved_l, work[4], work[5], work[0], work[6:15])
    return work[0]
