"""Peak transforms, multi-peak phase sums, and the periodic-array kernel."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_scatter.model import GAUSSIAN, POLYNOMIAL_GAUSSIAN, Peak, PeakShape, PotentialSpec
from rotor_scatter.potentials import (
    dirichlet_amplitude_grid,
    ft_peak,
    ft_total_grid,
    make_grating,
)


def ft_total(spec, q_x, q_y):
    """Whole-potential transform at one q, from a one-element grid."""
    re, im = ft_total_grid(spec, np.array([q_x]), np.array([q_y]))
    return complex(re[0], im[0])


def dirichlet_amplitude(x, half_count):
    return float(dirichlet_amplitude_grid(np.array([x]), half_count)[0])


GAUSS11 = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)
POLY11 = PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=1.0, width=1.0)


class TestFtPeak:
    def test_gaussian_at_zero(self):
        assert ft_peak(GAUSS11, 0.0) == 0.5

    def test_gaussian_scaling(self):
        shape = PeakShape(variant=GAUSSIAN, strength=3.0, width=2.0)
        assert ft_peak(shape, 1.5) == pytest.approx(6.0 * math.exp(-2.25), rel=1e-15)

    def test_polynomial_vanishes_at_zero(self):
        assert ft_peak(POLY11, 0.0) == 0.0

    def test_polynomial_value(self):
        assert ft_peak(POLY11, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)

    def test_polynomial_to_gaussian_ratio(self):
        # the ring-shaped peak differs by a factor (q*width)^2/4
        for q in (0.3, 1.0, 4.0):
            ratio = ft_peak(POLY11, q) / ft_peak(GAUSS11, q)
            assert ratio == pytest.approx(0.25 * q * q, rel=1e-14)

    def test_grid_matches_scalar(self):
        # the closed forms with libm exp, value by value; libm exp and the
        # numpy vector exp may round one ulp apart
        qs = np.linspace(0.0, 12.0, 257)
        for shape in (GAUSS11, POLY11, PeakShape(variant=GAUSSIAN, strength=-0.7, width=1.8)):
            vals = ft_peak(shape, qs)
            for i, q in enumerate(qs.tolist()):
                t = q * shape.width
                f = 0.5 * shape.strength * shape.width ** 2 * math.exp(-0.25 * t * t)
                if shape.variant == POLYNOMIAL_GAUSSIAN:
                    f *= 0.25 * t * t
                assert vals[i] == pytest.approx(f, rel=5e-16, abs=0.0)
                assert ft_peak(shape, q) == pytest.approx(f, rel=5e-16, abs=0.0)


class TestFtTotal:
    def test_two_peaks_at_zero(self):
        spec = PotentialSpec(peaks=(Peak(2.0, GAUSS11), Peak(-2.0, GAUSS11)))
        assert ft_total(spec, 0.0, 0.0) == 1.0 + 0.0j

    def test_single_offset_peak_phase(self):
        spec = PotentialSpec(peaks=(Peak(1.5, GAUSS11),))
        qx, qy = 0.8, -0.3
        f = ft_peak(GAUSS11, math.sqrt(qx * qx + qy * qy))
        v = ft_total(spec, qx, qy)
        assert v.real == pytest.approx(f * math.cos(qx * 1.5), rel=1e-15)
        assert v.imag == pytest.approx(-f * math.sin(qx * 1.5), rel=1e-15)

    def test_three_peak_destructive_sum(self):
        # centers at -6, 0, 6 with q_x*d = pi: phases -1, +1, -1
        spec = make_grating(1, 6.0, GAUSS11)
        qx = math.pi / 6
        v = ft_total(spec, qx, 0.0)
        assert v.real == pytest.approx(-ft_peak(GAUSS11, qx), rel=1e-14)
        assert v.imag == 0.0

    def test_order_invariant_bits(self):
        rng = random.Random(11)
        peaks = [Peak(c, GAUSS11) for c in (-3.0, -1.0, 0.5, 2.0, 4.5)]
        peaks += [Peak(0.25, POLY11), Peak(-2.5, POLY11)]
        base = ft_total(PotentialSpec(peaks=tuple(peaks)), 1.234, -0.567)
        for _ in range(5):
            rng.shuffle(peaks)
            assert ft_total(PotentialSpec(peaks=tuple(peaks)), 1.234, -0.567) == base

    def test_conjugate_under_qx_reflection(self):
        spec = PotentialSpec(peaks=(Peak(2.0, GAUSS11), Peak(-1.0, POLY11)))
        v = ft_total(spec, 0.9, 0.4)
        w = ft_total(spec, -0.9, 0.4)
        assert w.real == v.real and w.imag == -v.imag

    def test_grid_matches_scalar_closely(self):
        # against the exactly rounded (fsum) sum of the per-peak closed forms
        spec = PotentialSpec(peaks=(Peak(2.0, GAUSS11), Peak(-2.0, GAUSS11),
                                    Peak(0.5, POLY11)))
        qx = np.linspace(-3.0, 3.0, 101)
        qy = np.linspace(0.0, 2.0, 101)
        re, im = ft_total_grid(spec, qx, qy)
        for i, (x, y) in enumerate(zip(qx.tolist(), qy.tolist())):
            q = math.hypot(x, y)
            terms = [(float(ft_peak(p.shape, q)), x * p.center_x) for p in spec.peaks]
            assert re[i] == pytest.approx(math.fsum(f * math.cos(a) for f, a in terms),
                                          rel=5e-15, abs=1e-18)
            assert im[i] == pytest.approx(math.fsum(-f * math.sin(a) for f, a in terms),
                                          rel=5e-15, abs=1e-18)

    def test_grid_order_invariant_bits(self):
        peaks = [Peak(c, GAUSS11) for c in (-3.0, -1.0, 0.5, 2.0)]
        qx = np.linspace(-2.0, 2.0, 64)
        qy = np.full(64, 0.3)
        re0, im0 = ft_total_grid(PotentialSpec(peaks=tuple(peaks)), qx, qy)
        re1, im1 = ft_total_grid(PotentialSpec(peaks=tuple(reversed(peaks))), qx, qy)
        assert np.array_equal(re0, re1) and np.array_equal(im0, im1)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def plain_fold(spec, q_x, q_y):
    """Reference: the per-peak fold with no trig reuse, in the sorted order."""
    q = np.hypot(q_x, q_y)
    order = sorted(
        range(len(spec.peaks)),
        key=lambda i: (spec.peaks[i].center_x, spec.peaks[i].shape.variant,
                       spec.peaks[i].shape.strength, spec.peaks[i].shape.width),
    )
    re = np.zeros_like(q)
    im = np.zeros_like(q)
    for i in order:
        p = spec.peaks[i]
        ft = ft_peak(p.shape, q)
        a = q_x * p.center_x
        re = re + ft * np.cos(a)
        im = im - ft * np.sin(a)
    return re, im


def trig_arguments():
    """+-0, subnormals, the dense_sweep range and magnitudes far past it,
    so that every argument-reduction branch of the trig kernels runs."""
    rng = np.random.default_rng(5)
    tiny = np.finfo(float).tiny
    parts = [
        np.array([0.0, 5e-324, 1e-310, tiny, 2.0 * tiny, 1e-300, 1e-160,
                  1e-8, 0.5, 1.0, math.pi / 4, math.pi / 2, math.pi, 2.0 * math.pi,
                  1e5, 1e6, 2.0 ** 52, 1e22, 1e300, np.finfo(float).max]),
        np.linspace(0.0, 400.0, 200_001),
        np.logspace(-320, 6, 200_001),
        np.logspace(6, 308, 20_001),
        rng.uniform(0.0, 1e6, 200_001),
        np.abs(rng.standard_normal(50_001)) * 10.0 ** rng.integers(-300, 300, 50_001),
    ]
    return np.concatenate(parts)


class TestMirrorTrig:
    """ft_total_grid reuses a centre's trig for the mirrored centre."""

    def test_cos_even_sin_odd_bitwise(self):
        a = trig_arguments()
        assert same_bits(np.cos(-a), np.cos(a))
        assert same_bits(np.sin(-a), -np.sin(a))
        # short arrays and odd offsets run the kernels' tail paths
        for n in range(1, 20):
            for start in (0, 1, 3):
                part = a[start:start + 997 * n:997]
                assert same_bits(np.cos(-part), np.cos(part))
                assert same_bits(np.sin(-part), -np.sin(part))

    def test_signed_zero_needs_no_trig(self):
        # a centre at +-0 gives a = +-0, where ft_total_grid takes cos = 1
        # and sin = a without calling either; short arrays and odd offsets
        # run the kernels' tail paths
        zeros = np.array([0.0, -0.0] * 600)
        for n in (1, 2, 3, 7, 8, 9, 16, 17, 33, 1200):
            for start in (0, 1, 3):
                part = zeros[start:start + n]
                assert same_bits(np.cos(part), np.ones(part.size))
                assert same_bits(np.sin(part), part)

    def test_centre_at_zero_keeps_nan_where_q_is_not_finite(self):
        # cos(inf * 0) is NaN, and so is the ft * NaN term, though ft is 0
        spec = PotentialSpec(peaks=(Peak(0.0, GAUSS11),))
        q_x = np.array([np.inf, -np.inf, np.nan, 1.5, -0.0, 0.0])
        q_y = np.array([0.0, 1.0, 0.0, -1.0, np.inf, 2.0])
        with np.errstate(invalid="ignore"):
            got, want = ft_total_grid(spec, q_x, q_y), plain_fold(spec, q_x, q_y)
        assert np.isnan(want[0][:3]).all()
        for g, w in zip(got, want):
            assert np.array_equal(np.isnan(g), np.isnan(w))
            assert same_bits(g[~np.isnan(g)], w[~np.isnan(w)])

    def test_negated_product_is_exact(self):
        a = trig_arguments()
        with np.errstate(over="ignore"):
            for c in (0.25, 3.7, 1e-3, 123.456):
                assert same_bits(a * -c, -(a * c))

    @pytest.mark.parametrize("peaks", [
        # symmetric 21-peak grating, as dense_sweep uses
        make_grating(10, 1.37, PeakShape(GAUSSIAN, 0.8, 0.3)).peaks,
        # asymmetric centres, no mirror partner
        (Peak(-2.2, GAUSS11), Peak(0.7, GAUSS11), Peak(3.1, POLY11)),
        # two shapes at one centre, and at its mirror
        (Peak(-1.5, GAUSS11), Peak(-1.5, POLY11), Peak(1.5, POLY11), Peak(1.5, GAUSS11)),
        # centres at 0.0 and -0.0
        (Peak(0.0, GAUSS11), Peak(-0.0, POLY11), Peak(-0.0, GAUSS11), Peak(2.0, GAUSS11)),
        # gaussian mixed with polynomial_gaussian, partly mirrored
        (Peak(-3.0, GAUSS11), Peak(-1.0, POLY11), Peak(1.0, GAUSS11), Peak(3.0, POLY11),
         Peak(4.0, GAUSS11)),
        # negative strengths
        (Peak(-2.0, PeakShape(GAUSSIAN, -1.3, 0.7)), Peak(2.0, PeakShape(GAUSSIAN, 2.1, 0.4)),
         Peak(2.0, PeakShape(POLYNOMIAL_GAUSSIAN, -0.6, 1.1))),
        # given unsorted, with repeats
        (Peak(5.0, POLY11), Peak(-0.5, GAUSS11), Peak(-5.0, GAUSS11), Peak(0.5, POLY11),
         Peak(-5.0, POLY11), Peak(0.0, GAUSS11), Peak(5.0, GAUSS11), Peak(0.5, POLY11)),
    ])
    def test_matches_plain_fold_bitwise(self, peaks):
        rng = np.random.default_rng(9)
        q_x = np.concatenate([np.linspace(-20.0, 20.0, 4001), [0.0, -0.0, 1e-300],
                              rng.uniform(-1e3, 1e3, 999)])
        q_y = rng.uniform(-3.0, 3.0, q_x.size)
        q_y[:5] = 0.0
        spec = PotentialSpec(peaks=tuple(peaks))
        re, im = ft_total_grid(spec, q_x, q_y)
        want_re, want_im = plain_fold(spec, q_x, q_y)
        assert same_bits(re, want_re)
        assert same_bits(im, want_im)


def mirrored_peak_set(rng):
    """Peaks of both shapes and repeated shapes: centres at 0.0 and -0.0,
    mirrored pairs of one shape and of two, lone centres, and a repeat."""
    shapes = [PeakShape(variant, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 2.0)))
              for variant in (GAUSSIAN, POLYNOMIAL_GAUSSIAN) for _ in range(2)]

    def shape():
        return shapes[rng.integers(len(shapes))]

    same, other = shape(), shape()
    c1, c2, lone1, lone2 = rng.uniform(0.05, 8.0, 4).tolist()
    peaks = [Peak(0.0, shape()), Peak(-0.0, shape()),
             Peak(c1, same), Peak(-c1, same), Peak(c1, same),
             Peak(c2, other), Peak(-c2, shape()),
             Peak(lone1, shape()), Peak(-lone2, shape())]
    keep = rng.random(len(peaks)) < 0.7
    peaks = [p for p, k in zip(peaks, keep) if k] or peaks[:1]
    rng.shuffle(peaks)
    return PotentialSpec(peaks=tuple(peaks))


class TestConjugateBits:
    """The identity born's mirror copies rest on: at -q_x, re has the bits
    of re at q_x, im those of -im (or both are zero), and re^2 + im^2 has
    the same bits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_mirrored_q_x_grid(self, seed):
        rng = np.random.default_rng(seed)
        spec = mirrored_peak_set(rng)
        q_x = np.concatenate([[0.0, -0.0, 5e-324, -1e-300, 1e-8],
                              np.linspace(-25.0, 25.0, 2001),
                              rng.uniform(-1e3, 1e3, 500)])
        q_y = np.concatenate([np.zeros(7), rng.uniform(-4.0, 4.0, q_x.size - 7)])
        re, im = ft_total_grid(spec, q_x, q_y)
        re_m, im_m = ft_total_grid(spec, -q_x, q_y)
        assert same_bits(re_m, re)
        zero = (im == 0.0) & (im_m == 0.0)
        assert same_bits(im_m[~zero], -im[~zero])
        assert same_bits(re_m * re_m + im_m * im_m, re * re + im * im)


class TestDirichletAmplitude:
    def test_center_value(self):
        assert dirichlet_amplitude(0.0, 10) == 21.0

    def test_period_revival(self):
        assert dirichlet_amplitude(4 * math.pi, 10) == pytest.approx(21.0, rel=1e-12)

    def test_single_peak_is_flat(self):
        for x in (0.0, 0.7, math.pi, 10.0):
            assert dirichlet_amplitude(x, 0) == 1.0

    def test_half_period(self):
        assert dirichlet_amplitude(math.pi, 1) == pytest.approx(-1.0, rel=1e-14)

    def test_matches_plain_ratio_away_from_zeros(self):
        for x in (0.3, 1.1, 2.0, 5.7):
            m = 7
            expect = math.sin(m * x / 2) / math.sin(x / 2)
            assert dirichlet_amplitude(x, 3) == pytest.approx(expect, rel=1e-13)

    def test_accurate_through_revival(self):
        # reference at high precision across all three evaluation zones
        import mpmath as mp

        m = 9
        for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 3e-3, 0.02, 0.1, 0.19, 0.3, 1.0):
            for sign in (1.0, -1.0):
                x = 3 * 2 * math.pi + sign * eps
                with mp.workdps(40):
                    xm = mp.mpf(x)
                    expect = float(mp.sin(m * xm / 2) / mp.sin(xm / 2)) if mp.sin(xm / 2) != 0 else float(m)
                assert dirichlet_amplitude(x, 4) == pytest.approx(expect, rel=2e-13)

    @given(x=st.floats(-40.0, 40.0), n=st.integers(0, 12))
    @settings(deadline=None)
    def test_bounded_by_peak_count(self, x, n):
        d = dirichlet_amplitude(x, n)
        assert abs(d) <= (2 * n + 1) * (1 + 1e-12)

    def test_grid_matches_scalar_bit_for_bit(self):
        # each element takes its own branch (ratio, reduced ratio, series):
        # one-element calls give the same bits as the whole grid
        xs = np.concatenate([
            np.linspace(-15.0, 15.0, 401),
            np.array([0.0, 2 * math.pi, 2 * math.pi + 1e-9, -4 * math.pi + 3e-9]),
        ])
        for n in (0, 1, 3, 10):
            grid = dirichlet_amplitude_grid(xs, n)
            for i, x in enumerate(xs.tolist()):
                assert grid[i] == dirichlet_amplitude(x, n)
            assert grid[-4] == 2 * n + 1


class TestGratingFactorization:
    def test_magnitude_factorizes(self):
        # a grating's pattern is one peak times the array kernel
        shape = GAUSS11
        spec = make_grating(3, 2.5, shape)
        for qx, qy in ((0.4, 0.1), (1.0, 0.9), (-2.2, 0.3)):
            q = math.sqrt(qx * qx + qy * qy)
            v = ft_total(spec, qx, qy)
            expect = ft_peak(shape, q) * dirichlet_amplitude(qx * 2.5, 3)
            assert abs(v) == pytest.approx(abs(expect), rel=1e-12)
            assert v.imag == pytest.approx(0.0, abs=1e-15)
