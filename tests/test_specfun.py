import json
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotor_scatter import specfun
from rotor_scatter.specfun import (
    ARGUMENT_CAP,
    BLOCK,
    ORDER_CAP,
    _fast_two_sum_to,
    _starts,
    _two_sum_to,
    bessel_j,
    bessel_j_batch,
    bessel_j_grid,
)

# first positive zero of J_0, 16 correct digits
J0_FIRST_ZERO = 2.404825557695773

# (n, x, float.hex of J_n(x)) frozen by scripts/freeze_bessel_bits.py
FROZEN = [(n, float.fromhex(x), v) for n, x, v in json.loads(
    (Path(__file__).parent / "bessel_bits.json").read_text())["points"]]


def mp_ref(n, x):
    with mp.workdps(40):
        return float(mp.besselj(n, mp.mpf(x)))


def test_known_values_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(1, 0.0) == 0.0


def test_first_zero_of_j0():
    assert abs(bessel_j(0, J0_FIRST_ZERO)) <= 1e-12


def test_reflection_is_exact():
    assert bessel_j(-1, 1.5) == -bessel_j(1, 1.5)
    assert bessel_j(-2, 1.5) == bessel_j(2, 1.5)
    assert bessel_j(-7, 33.3) == -bessel_j(7, 33.3)


def test_batch_trivial():
    assert bessel_j_batch(2, 0.0) == [1.0, 0.0, 0.0]


def matches_reference(n, x, got):
    # Miller values are correctly rounded here; the series (x < 1e-6)
    # rounds once per factor of its product, n + 1 roundings at order n.
    # tests/bessel_bits.json pins the exact bits of both
    ref = mp_ref(n, x)
    if x >= 1e-6:
        return got == ref
    return got == pytest.approx(ref, rel=(abs(n) + 1) * 2.3e-16, abs=0.0)


def test_batch_matches_scalar_bitwise():
    for x in (0.0, 1e-9, 1e-4, 0.3, 1.0, 7.7, 42.0, 250.0):
        row = bessel_j_batch(12, x)
        assert len(row) == 13
        for n, v in enumerate(row):
            assert matches_reference(n, x, v), (n, x)
            assert v == bessel_j(n, x)


def test_grid_matches_scalar_bitwise():
    xs = np.array([0.0, 5e-7, 1e-3, 0.5, 2.404825557695773, 9.0, 61.5, 400.0])
    for n in (0, 1, 2, 5, -3, 40):
        grid = bessel_j_grid(n, xs)
        for x, v in zip(xs.tolist(), grid.tolist()):
            assert matches_reference(n, x, v), (n, x)
            assert v == bessel_j(n, x)


def test_grouped_call_matches_per_key_calls_bitwise():
    # born evaluates a profile's (kappa, |l'|) keys as one call over their
    # concatenated arguments. This group crosses a recurrence block
    # boundary and mixes series and Miller elements, negative orders, and
    # elements that rescale (order 150 at x < 3, order 2001 at x ~ 1000);
    # every value keeps the bits of its own per-key call
    rng = np.random.default_rng(7)
    size = BLOCK // 3 + 5
    keys = [(0, rng.uniform(0.0, 40.0, size)),
            (-3, np.concatenate([rng.uniform(0.0, 2e-6, size // 2),
                                 rng.uniform(0.0, 5.0, size - size // 2)])),
            (150, rng.uniform(0.5, 3.0, size)),
            (-2001, rng.uniform(900.0, 1500.0, size))]
    orders = np.repeat([n for n, _ in keys], size)
    grouped = bessel_j_grid(orders, np.concatenate([x for _, x in keys]))
    per_key = np.concatenate([bessel_j_grid(n, x) for n, x in keys])
    assert grouped.size > BLOCK
    assert np.array_equal(grouped.view(np.int64), per_key.view(np.int64))


def test_against_high_precision_reference():
    rng = np.random.default_rng(42)
    pts = [(0, 1.0), (0, 10.0), (2, 0.37), (5, 5.0), (40, 17.0), (1, 1e-7),
           (3, 1e-7), (0, 1500.0), (25, 1000.0), (120, 100.0)]
    pts += [(int(n), float(x))
            for n, x in zip(rng.integers(0, 80, 25), rng.uniform(1e-8, 1800.0, 25))]
    got = bessel_j_grid(np.array([n for n, _ in pts]), np.array([x for _, x in pts]))
    for (n, x), v in zip(pts, got.tolist()):
        assert v == pytest.approx(mp_ref(n, x), rel=1e-13, abs=1e-15)
    # the start rule certifies the truncation error far below one ulp, so
    # near its cutoffs and deep in the tail (subnormals too) the value must
    # be the correctly rounded one; abs=1e-15 above would pass any of them
    tail = _cutoff_and_tail_points()
    got = bessel_j_grid(np.array([n for n, _ in tail]), np.array([x for _, x in tail]))
    for (n, x), v in zip(tail, got.tolist()):
        assert v == mp_ref(n, x), (n, x)


def _cutoff_and_tail_points():
    """Orders around both switches of the start rule and deep in the tail.

    Per argument: orders at x (oscillatory to tail bound), orders around
    the first one whose start is capped at U(x) + 8 (values near 1e-305),
    and the last orders below U(x).
    """
    pts = []
    for x in (0.75, 6.5, 37.25, 100.0, 200.0, 1000.0):
        u = int(ref_underflow_orders(np.array([x]))[0])
        capped = ref_starts(np.full(u, x), np.arange(u)) == u + 8
        cut = int(np.argmax(capped)) if capped.any() else u - 1
        orders = {int(x) - 1, int(x), int(x) + 1, cut - 2, cut - 1, cut,
                  cut + 1, u - 3, u - 1}
        pts += [(n, x) for n in sorted(orders) if n >= 0]
    return pts


# reference start search, by bisection alone: U(x) by doubling and
# bisection, then the smallest certified start in
# [max(n + 1, ceil x), U(x) + 8]

def _ref_logbound(m, lh):
    return m * (lh + 1.0 - np.log(m)) - 0.5 * np.log(2.0 * np.pi * m)


def _ref_bisect(lo, hi, ok):
    while (hi - lo > 1.0).any():
        mid = np.floor((lo + hi) / 2.0)
        take = ok(mid)
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
    return hi


def _ref_tail_integral(a, x):
    return a * np.arccosh(a / x) - np.sqrt((a - x) * (a + x))


def ref_underflow_orders(x):
    lh = np.log(0.5 * x)
    hi = np.maximum(8.0, np.ceil(x))
    while True:
        bad = _ref_logbound(hi, lh) >= -760.0
        if not bad.any():
            break
        hi = np.where(bad, 2.0 * hi, hi)
    return _ref_bisect(np.floor(hi / 2.0), hi,
                       lambda m: _ref_logbound(m, lh) < -760.0).astype(np.int64)


def ref_starts(x, n):
    """Start order per element, 0 for an order at or past U(x)."""
    U = ref_underflow_orders(x)
    out = np.zeros(x.shape, dtype=np.int64)
    live = n < U
    x, n, cap = x[live], n[live].astype(float), (U[live] + 8).astype(float)
    lh = np.log(0.5 * x)
    tail = n >= x
    g_n = _ref_tail_integral(np.maximum(n, x), x)

    def certified(N):
        m = N + 1.0
        ok = _ref_logbound(m, lh) + np.log(N + 6.0) <= -84.0 - math.log(2.0)
        ok &= ~tail | (_ref_tail_integral(m, x) - g_n >= 2.0 * math.log(2.0) + 84.0)
        return ok | (N >= cap)

    lo = np.minimum(np.maximum(n + 1.0, np.ceil(x)), cap)
    out[live] = _ref_bisect(lo, np.where(certified(lo), lo, cap), certified)
    return out


class TestStartOrders:
    """The Newton-estimated starts are the bisection's, element by element."""

    def check(self, n, x):
        n, x = np.asarray(n, dtype=np.int64), np.asarray(x, dtype=float)
        # U(x) is where the starts end: the first order with start 0
        u = ref_underflow_orders(x)
        assert (_starts(x, u) == 0).all() and (_starts(x, u - 1) > 0).all()
        starts = _starts(x, n)
        assert np.array_equal(starts, ref_starts(x, n))
        return starts, u

    def test_cutoff_and_tail_points(self):
        pts = _cutoff_and_tail_points()
        starts, u = self.check([n for n, _ in pts], [x for _, x in pts])
        # the Newton acceptance test rejects every start at the cap, so
        # these come from the bracket
        assert (starts == u + 8).any()

    def test_random_corpus(self):
        rng = np.random.default_rng(11)
        size = 2 * BLOCK
        # orders 0..2000 over log-uniform x, and orders near x, where the
        # tail condition starts to count
        x = np.exp(rng.uniform(math.log(1e-6), math.log(2000.0), size))
        self.check(rng.integers(0, 2001, size), x)
        x = rng.uniform(1e-6, 2000.0, size)
        self.check(np.clip(x + rng.integers(-30, 90, size), 0, 2000), x)


def renormalized(fast, hi, lo):
    """(s, e) of the last step of a double-double operation: Fast2Sum if
    fast, else the two-sum."""
    s, e, t, u = (np.empty_like(hi) for _ in range(4))
    if fast:
        _fast_two_sum_to(hi, lo, s, e, t)
    else:
        _two_sum_to(hi, lo, s, e, t, u)
    return s, e


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def normalized(hi, frac):
    """Low parts frac * ulp(hi)/2 rounded, |frac| <= 1: |lo| <= ulp(hi)/2.
    High parts are never -0: the recurrence makes no -0 high part."""
    hi = np.where(hi == 0.0, 0.0, hi)
    return hi, frac * (0.5 * np.spacing(np.abs(hi)))


# high parts: anything finite and a margin below overflow, and for the
# second operand also the values that cancel the first (Sterbenz:
# opposite signs within a factor 2) or sit a few ulps off it
_HI = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
_FRAC = st.floats(min_value=-1.0, max_value=1.0)
_PAIR = st.tuples(_HI, _FRAC, st.one_of(
    st.tuples(st.just("free"), _HI),
    st.tuples(st.just("sterbenz"), st.floats(min_value=0.5, max_value=2.0)),
    st.tuples(st.just("ulps"), st.integers(min_value=-4, max_value=4)),
    st.tuples(st.just("binade"), st.sampled_from([0.5, 1.0, 2.0]))), _FRAC)


def _operands(pairs):
    ah = np.array([a for a, _, _, _ in pairs])
    bh = np.empty_like(ah)
    for i, (a, _, (kind, v), _) in enumerate(pairs):
        if kind == "free":
            bh[i] = v
        elif kind == "sterbenz":
            bh[i] = -a * v
        elif kind == "ulps":
            bh[i] = -(a + v * np.spacing(a))
        else:  # the neighbouring binade, one ulp of it off
            bh[i] = -np.nextafter(a * v, np.inf)
    ah, al = normalized(ah, np.array([f for _, f, _, _ in pairs]))
    bh, bl = normalized(bh, np.array([f for _, _, _, f in pairs]))
    return ah, al, bh, bl


class TestFastTwoSum:
    """_miller_grid renormalizes with Fast2Sum; on the operands it gets
    there the result has the two-sum's bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_PAIR, min_size=20, max_size=20))
    def test_sum_renormalization(self, pairs):
        # the sum of two normalized double-doubles: two-sum of the high
        # parts, its error plus the low parts, then the renormalization
        ah, al, bh, bl = _operands(pairs)
        s, e = renormalized(False, ah, bh)
        y = e + (al + bl)
        for got, want in zip(renormalized(True, s, y), renormalized(False, s, y)):
            assert same_bits(got, want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_PAIR, min_size=20, max_size=20))
    def test_product_renormalization(self, pairs):
        # (ch, cl) * (jh, jl) as _miller_grid forms it, ch > 0
        # with factors from 1e-140 to 1e140 (the recurrence's values stay
        # well inside that), so that neither the product nor its error
        # leaves the normal range
        ch, cl, jh, jl = _operands(pairs)
        ch = np.abs(ch)
        keep = (ch >= 1e-140) & (ch <= 1e140)
        keep &= (jh == 0.0) | ((np.abs(jh) >= 1e-140) & (np.abs(jh) <= 1e140))
        ch, cl, jh, jl = ch[keep], cl[keep], jh[keep], jl[keep]
        y = ch * jh
        chh, jhh = _split(ch), _split(jh)
        chl, jhl = ch - chh, jh - jhh
        a = ((chh * jhh - y) + chh * jhl + chl * jhh) + chl * jhl
        a = a + (ch * jl + cl * jh)
        for got, want in zip(renormalized(True, y, a), renormalized(False, y, a)):
            assert same_bits(got, want)


def _split(a):
    # Dekker's split, high half: (2^27 + 1) a - ((2^27 + 1) a - a)
    t = a * 134217729.0
    return t - (t - a)


def test_freeze_script_draws_the_frozen_points(monkeypatch):
    # the script places its tail arguments by its own U(x); if that drifts,
    # a refreeze would pin other points than these
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "scripts"))
    from freeze_bessel_bits import points

    assert points() == [(n, x) for n, x, _ in FROZEN]


def test_scalar_reproduces_frozen_bits():
    # bessel_j is one element of the kernel; a spread of the frozen points
    wrong = [(n, x) for n, x, v in FROZEN[::50] if bessel_j(n, x).hex() != v]
    assert not wrong


def test_batch_reproduces_frozen_bits():
    # every argument frozen at several orders: the series arguments and
    # the full row at x = 6.5
    by_x = defaultdict(list)
    for n, x, v in FROZEN:
        by_x[x].append((n, v))
    wrong = []
    for x, entries in by_x.items():
        if len(entries) < 2:
            continue
        row = bessel_j_batch(max(abs(n) for n, _ in entries), x)
        for n, v in entries:
            got = -row[-n] if n < 0 and n % 2 else row[abs(n)]
            if got.hex() != v:
                wrong.append((n, x))
    assert not wrong


def test_grid_reproduces_frozen_bits():
    # one call, each element with its own order
    ns = np.array([n for n, _, _ in FROZEN])
    grid = bessel_j_grid(ns, np.array([x for _, x, _ in FROZEN]))
    wrong = [(n, x) for g, (n, x, v) in zip(grid.tolist(), FROZEN) if g.hex() != v]
    assert not wrong


def test_sum_of_squares_identity():
    # J_0^2 + 2 sum_{n>=1} J_n^2 = 1; tail below 1e-10 needs n_max ~ x + 50
    for x in (1.0, 10.0, 100.0, 1000.0):
        n_max = int(x) + 60
        row = bessel_j_batch(n_max, x)
        s = row[0] ** 2 + 2.0 * math.fsum(v * v for v in row[1:])
        assert abs(s - 1.0) <= 1e-10


def test_underflowing_orders_are_exact_zero():
    # true J_600(1) ~ 1e-1900, far below the subnormal range
    assert bessel_j(600, 1.0) == 0.0
    assert bessel_j_grid(600, np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


# the property tests batch their points: each example is one kernel call
# over ten (n, x) pairs, 150 pairs per test as with one pair per example
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=300),
                          st.floats(min_value=0.1, max_value=1500.0)),
                min_size=10, max_size=10))
def test_recurrence_residual(points):
    ns = np.array([n for n, _ in points])
    xs = np.array([x for _, x in points])
    lo, mid, hi = bessel_j_grid(np.concatenate([ns - 1, ns, ns + 1]),
                                np.tile(xs, 3)).reshape(3, -1)
    res = lo + hi - (2.0 * ns / xs) * mid
    assert (np.abs(res) <= 1e-10 * np.maximum(1.0, np.abs(mid))).all()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=500),
                          st.floats(min_value=0.0, max_value=2000.0)),
                min_size=10, max_size=10))
def test_reflection_property(points):
    ns = np.array([n for n, _ in points])
    xs = np.array([x for _, x in points])
    neg, pos = bessel_j_grid(np.concatenate([-ns, ns]), np.tile(xs, 2)).reshape(2, -1)
    assert np.array_equal(neg, np.where(ns % 2, -1.0, 1.0) * pos)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_max=st.integers(min_value=0, max_value=40),
    x=st.floats(min_value=0.0, max_value=300.0),
)
def test_batch_matches_reference_property(n_max, x):
    row = bessel_j_batch(n_max, x)
    for n in (0, n_max // 2, n_max):
        assert row[n] == pytest.approx(mp_ref(n, x), rel=1e-13, abs=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0, float("nan"))
    with pytest.raises(ValueError):
        bessel_j(0, float("inf"))
    with pytest.raises(ValueError):
        bessel_j(ORDER_CAP + 1, 1.0)
    for bad_n_max in (-1, 2.0, True, ORDER_CAP + 1):
        with pytest.raises(ValueError):
            bessel_j_batch(bad_n_max, 1.0)
    # refused before np.arange: 10**15 orders would be petabytes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            bessel_j_batch(10**15, 1.0)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError):
        bessel_j_grid(2, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):  # order array of the wrong shape
        bessel_j_grid(np.array([1, 2, 3]), np.array([1.0, 2.0]))
    for bad_order in (2.0, True, np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ValueError):
            bessel_j_grid(bad_order, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # abs() of the most negative int64 overflows
        bessel_j_grid(np.array([np.iinfo(np.int64).min, 0]), np.array([1.0, 2.0]))


def test_argument_cap_refused_before_any_start(monkeypatch):
    # past the cap the recurrence would run one step per unit of x from
    # a start above x; the refusal comes before the start search
    def no_start(x, n):
        raise AssertionError("the start search ran")

    monkeypatch.setattr(specfun, "_starts", no_start)
    for x in (np.nextafter(ARGUMENT_CAP, np.inf), 1e9, np.inf, np.nan):
        with pytest.raises(ValueError, match="arguments must be in"):
            bessel_j_grid(0, np.array([1.0, x]))
    with pytest.raises(AssertionError, match="start search"):
        bessel_j_grid(0, np.array([ARGUMENT_CAP]))
