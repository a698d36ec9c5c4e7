"""Fringe diagnostics: contrast, spacing, suppression comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotor_scatter.analysis import (
    AnalysisError,
    ResolutionError,
    UndefinedRatioError,
    _run_extrema,
    fringe_window,
    peak_spacing,
    visibility,
    visibility_ratio,
)
from rotor_scatter.born import profile_closed
from rotor_scatter.model import CrossSectionProfile


def make_profile(thetas, sigma):
    return CrossSectionProfile(thetas=np.asarray(thetas, dtype=float),
                               sigma=np.asarray(sigma, dtype=float))


def run_extrema_loop(values):
    """Scalar reference for the run-length extremum scan."""
    n = values.size
    maxima, minima = [], []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if i > 0 and j < n - 1:
            left, right = values[i - 1], values[j + 1]
            if left < values[i] and right < values[i]:
                maxima.append((i + j) // 2)
            elif left > values[i] and right > values[i]:
                minima.append((i + j) // 2)
        i = j + 1
    return maxima, minima


class TestRunExtrema:
    @given(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
                    max_size=40))
    def test_matches_scalar_loop(self, samples):
        values = np.array(samples, dtype=float)
        assert _run_extrema(values) == run_extrema_loop(values)

    @pytest.mark.parametrize("samples", [
        [], [1.0], [1.0, 2.0], [2.0, 2.0], [1.0, 2.0, 1.0], [2.0, 1.0, 2.0],
        [3.0, 3.0, 3.0, 1.0, 2.0],          # plateau touching the start
        [1.0, 2.0, 0.0, 0.0, 0.0],          # plateau touching the end
        [1.0, 1.0, 1.0, 1.0],               # one run only
        [1.0, 0.0, -0.0, 0.0, 1.0],         # signed zeros are one run
        [-0.0, 0.0, 1.0, -0.0, 2.0, 2.0, 2.0, 2.0, 0.0],
    ])
    def test_edge_cases_match_scalar_loop(self, samples):
        values = np.array(samples, dtype=float)
        got = _run_extrema(values)
        assert got == run_extrema_loop(values)
        assert all(type(i) is int for i in got[0] + got[1])


class TestVisibility:
    def test_pure_fringe_is_unity(self):
        th = np.linspace(-1.1, 1.1, 2_000_001)
        p = make_profile(th, np.cos(10 * th) ** 2)
        assert visibility(p, (-1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_constant_profile_has_no_contrast(self):
        th = np.linspace(-1.0, 1.0, 101)
        p = make_profile(th, np.full_like(th, 3.7))
        assert visibility(p, (-1.0, 1.0)) == 0.0

    def test_monotone_profile_has_no_contrast(self):
        th = np.linspace(-1.0, 1.0, 101)
        p = make_profile(th, np.exp(th))
        assert visibility(p, (-1.0, 1.0)) == 0.0

    def test_single_channel_two_peak_profile_reaches_unity(self):
        # one open channel only: the fringe factor passes through zero,
        # so interior minima sit at the floor of the pattern
        th = np.linspace(-math.pi / 2, math.pi / 2, 65537)
        p = profile_closed("closed_two_gaussian", th, mass=1, v0=1, delta=1,
                           k=5, alpha=0.3, d=6)
        assert visibility(p, (-math.pi / 2, math.pi / 2)) == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance(self):
        th = np.linspace(-1.0, 1.0, 501)
        base = (1.2 + np.cos(9 * th)) * np.exp(-th * th)
        v0 = visibility(make_profile(th, base), (-1.0, 1.0))
        for c in (1e-6, 0.125, 3.0, 1e6):
            vc = visibility(make_profile(th, c * base), (-1.0, 1.0))
            assert vc == pytest.approx(v0, rel=1e-12)

    def test_empty_window_rejected(self):
        th = np.linspace(-1.0, 1.0, 101)
        p = make_profile(th, np.cos(5 * th) ** 2)
        with pytest.raises(AnalysisError):
            visibility(p, (0.5, 0.5))
        with pytest.raises(AnalysisError):
            visibility(p, (0.8, -0.8))

    def test_sparse_window_rejected(self):
        th = np.linspace(-1.0, 1.0, 101)
        p = make_profile(th, np.cos(5 * th) ** 2)
        with pytest.raises(AnalysisError, match="32"):
            visibility(p, (-0.1, 0.1))

    def test_zero_profile_rejected(self):
        th = np.linspace(-1.0, 1.0, 201)
        sigma = np.where(np.abs(th) < 0.5, 0.0, 1.0)
        p = make_profile(th, sigma)
        with pytest.raises(AnalysisError, match="zero"):
            visibility(p, (-0.4, 0.4))


class TestPeakSpacing:
    def test_plateau_counts_once_at_midpoint(self):
        th = np.arange(9.0)
        sigma = [0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 1.0, 0.0]
        p = make_profile(th, sigma)
        # plateau maximum registers at theta = 3, lone maximum at theta = 7
        assert peak_spacing(p, 5.0, 1) == pytest.approx(4.0)

    def test_sinusoidal_grid_spacing(self):
        th = np.linspace(-1.2, 1.2, 48001)
        p = make_profile(th, np.cos(4 * np.sin(th)) ** 2)
        got = peak_spacing(p, 0.0, 2)
        assert got == pytest.approx(math.asin(math.pi / 4), abs=1e-3)
        # the flat-grid estimate pi/4 is good to the sine-projection error
        assert abs(got - math.pi / 4) / (math.pi / 4) < 0.16

    def test_grating_fringe_spacing(self):
        k, d, n = 1000.0, 1.0, 5
        th = np.linspace(0.0, 3e-3, 30001)
        p = profile_closed("closed_structureless_grating", th, mass=1, v0=1,
                           delta=1, k=k, d=d, half_count=n)
        expect = 2 * math.pi / (k * d * (2 * n + 1))
        assert peak_spacing(p, 1.5e-3, 3) == pytest.approx(expect, rel=0.10)

    def test_single_hump_cannot_resolve_spacing(self):
        th = np.linspace(-1.0, 1.0, 2001)
        p = profile_closed("closed_structureless_grating", th, mass=1, v0=1,
                           delta=1, k=1.0, d=3.0, half_count=0)
        with pytest.raises(ResolutionError, match="sample at least"):
            peak_spacing(p, 0.0, 1)

    def test_count_must_be_positive(self):
        th = np.linspace(-1.0, 1.0, 101)
        p = make_profile(th, np.cos(5 * th) ** 2)
        with pytest.raises(AnalysisError):
            peak_spacing(p, 0.0, 0)


class TestSuppressionRatio:
    def test_ratio_of_computed_visibilities(self):
        # the compare command forms the ratio from the two visibilities it
        # already reports, with the same refusal of a flat baseline
        assert visibility_ratio(0.25, 0.5) == 0.5
        with pytest.raises(UndefinedRatioError, match="zero visibility"):
            visibility_ratio(0.25, 0.0)

    def test_mixed_peaks_suppress_interference(self):
        # two unequal peaks excite distinguishable internal states; graded
        # over the reference's own oscillation span the structured target
        # shows no fringe contrast at all
        th = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        kw = dict(mass=1, v0=1, delta=1.5, k=1, d=4)
        with_internal = profile_closed("closed_mixed", th, alpha=2.5, **kw)
        without = profile_closed("closed_structureless_mixed", th, **kw)
        window = fringe_window(without)
        ratio = visibility_ratio(visibility(with_internal, window),
                                 visibility(without, window))
        assert ratio < 1.0
        assert visibility(with_internal, window) < 0.5 * visibility(without, window)


class TestFringeWindow:
    def test_span_of_reference_extrema(self):
        th = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        p = profile_closed("closed_structureless_mixed", th, mass=1, v0=1,
                           delta=1.5, k=1, d=4)
        lo, hi = fringe_window(p)
        assert lo == -hi
        assert 0.8 < hi < 0.9

    def test_featureless_reference_rejected(self):
        th = np.linspace(-1.0, 1.0, 201)
        with pytest.raises(AnalysisError, match="oscillation"):
            fringe_window(make_profile(th, np.exp(th)))
