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
