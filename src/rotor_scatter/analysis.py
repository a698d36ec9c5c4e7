"""Interference-pattern diagnostics.

Fringe contrast is read off local extrema inside a window rather than the
global range, so a broad envelope on top of the fringes does not inflate
the figure. Plateaus (exactly repeated samples) count as one extremum at
their midpoint, which keeps the answer deterministic on symmetric grids.
"""

import math
from typing import List, Tuple

import numpy as np

from .model import CrossSectionProfile

__all__ = [
    "AnalysisError",
    "ResolutionError",
    "UndefinedRatioError",
    "visibility",
    "peak_spacing",
    "require_samples",
    "visibility_ratio",
    "fringe_window",
]

# fewer samples cannot support extremum classification at fringe scale
MIN_WINDOW_SAMPLES = 32


class AnalysisError(ValueError):
    """Diagnostic could not be computed from the given profile."""


class ResolutionError(AnalysisError):
    """The sampled grid is too coarse to resolve the requested features."""


class UndefinedRatioError(AnalysisError):
    """Comparison baseline has zero fringe contrast."""


def _run_extrema(values: np.ndarray) -> Tuple[List[int], List[int]]:
    """Indices of interior local maxima and minima, plateaus collapsed."""
    values = np.asarray(values)
    if values.size < 3:
        return [], []
    # runs of equal samples, by their first and last index
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    ends = np.append(starts - 1, values.size - 1)
    starts = np.insert(starts, 0, 0)
    # a run touching either end has no two-sided neighborhood
    run = values[starts]
    left, mid, right = run[:-2], run[1:-1], run[2:]
    middle = (starts[1:-1] + ends[1:-1]) // 2
    maxima = middle[(left < mid) & (right < mid)]
    minima = middle[(left > mid) & (right > mid)]
    return maxima.tolist(), minima.tolist()


def _window_values(profile: CrossSectionProfile, window) -> np.ndarray:
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise AnalysisError(f"window ({lo}, {hi}) is empty")
    values = profile.sigma[(profile.thetas >= lo) & (profile.thetas <= hi)]
    if values.size < MIN_WINDOW_SAMPLES:
        raise AnalysisError(
            f"window holds {values.size} samples, need >= {MIN_WINDOW_SAMPLES}")
    return values


def visibility(profile: CrossSectionProfile, window) -> float:
    """Fringe contrast (max - min)/(max + min) from interior local extrema.

    Returns 0.0 when the window contains no interior maximum or no interior
    minimum: an envelope without oscillation has no fringes to grade.
    """
    values = _window_values(profile, window)
    if not values.any():
        raise AnalysisError("profile is identically zero inside the window")
    maxima, minima = _run_extrema(values)
    if not maxima or not minima:
        return 0.0
    s_max = max(float(values[i]) for i in maxima)
    s_min = min(float(values[i]) for i in minima)
    return (s_max - s_min) / (s_max + s_min)


def peak_spacing(profile: CrossSectionProfile, near_theta: float, count: int) -> float:
    """Mean angular gap between the count+1 local maxima nearest near_theta."""
    if count < 1:
        raise AnalysisError("count must be >= 1")
    maxima, _ = _run_extrema(profile.sigma)
    if len(maxima) < count + 1:
        span = float(profile.thetas[-1] - profile.thetas[0])
        # alternating extrema need >= 4 samples per fringe to classify
        density = 4.0 * (count + 1) / span
        raise ResolutionError(
            f"resolved {len(maxima)} local maxima, need {count + 1}; "
            f"sample at least {density:.6g} points per unit angle "
            f"({math.ceil(density * span)} across the grid)")
    order = sorted(maxima, key=lambda i: (abs(profile.thetas[i] - near_theta), i))
    chosen = np.sort(profile.thetas[np.array(order[:count + 1])])
    return float(np.mean(np.diff(chosen)))


def require_samples(thetas: np.ndarray, frequency: float) -> None:
    """Refuse a uniform theta grid with fewer than 4 samples per period of
    sigma's fastest angular frequency (phase radians per radian of theta),
    the density alternating extrema need to be classified."""
    span = float(thetas[-1] - thetas[0])
    need = math.ceil(2.0 * frequency * span / math.pi) + 1
    if thetas.size < need:
        per_period = 2.0 * math.pi * (thetas.size - 1) / (frequency * span)
        raise ResolutionError(
            f"theta grid holds {per_period:.3g} samples per fringe period, "
            f"need >= 4; use scan.theta.steps >= {need}")


def fringe_window(reference: CrossSectionProfile) -> Tuple[float, float]:
    """Angular span over which the reference profile actually oscillates.

    The span runs from its first interior extremum to its last. Grading a
    structured target against a point-particle reference over this window
    keeps the comparison about fringes: features the target develops beyond
    the reference's interference region (form-factor dips, wide-angle
    pedestal bumps) would otherwise masquerade as contrast.
    """
    maxima, minima = _run_extrema(reference.sigma)
    spots = sorted(maxima + minima)
    if len(spots) < 2 or spots[0] == spots[-1]:
        raise AnalysisError("reference profile shows no oscillation span")
    lo = float(reference.thetas[spots[0]])
    hi = float(reference.thetas[spots[-1]])
    if not lo < hi:
        raise AnalysisError("reference profile shows no oscillation span")
    return lo, hi


def visibility_ratio(vis_with: float, vis_without: float) -> float:
    """Suppression ratio from the structured target's and its point-particle
    twin's visibilities over one window."""
    if vis_without == 0.0:
        raise UndefinedRatioError(
            "reference profile has zero visibility, ratio is undefined")
    return vis_with / vis_without
