"""Channel enumeration and outgoing-wave kinematics.

Energy bookkeeping: an incoming state (k, l_in) can scatter into (kappa,
l_out) when k^2 + (l_in^2 - l_out^2)/alpha^2 > 0. Marginal channels with
kappa exactly 0 carry no outgoing flux and are excluded, and so are odd
transfers l_in - l_out, whose amplitude vanishes for the rotor's two
identical atoms. The channel-summed engine and the closed forms both
enumerate channels with open_channels, so their channel sets always
agree, including at threshold coincidences.

A run's theta grid is an AngleGrid, made once: sin and cos of every
angle, which every geometry_grid of the run reuses, and the grid's exact
mirror pairs, whose values the engines compute once (see AngleGrid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import IncidentBeam, Molecule

# below this |q| the matrix-element phase angle is set to 0 by convention
Q_DEGENERATE = 1e-12


@dataclass(frozen=True)
class Channel:
    l_in: int
    l_out: int
    kappa: float
    weight: float  # |psi_{l_in}|^2


def outgoing_wavenumber(k: float, l_in: int, l_out: int,
                        molecule: Molecule) -> float | None:
    """kappa for the (l_in -> l_out) channel, or None when closed.

    Equals k exactly (same bits, no arithmetic) when l_out^2 == l_in^2.
    Marginal radicand 0 counts as closed.
    """
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError("wavenumber must be finite and > 0")
    if molecule.half_separation == 0.0 and not (l_in == 0 and l_out == 0):
        raise ValueError("half_separation must be > 0 for nonzero angular states")
    if l_out * l_out == l_in * l_in:
        return k
    alpha = molecule.half_separation
    radicand = k * k + (l_in * l_in - l_out * l_out) / (alpha * alpha)
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)


def open_channels(beam: IncidentBeam, molecule: Molecule) -> list[Channel]:
    """Every energetically open (l_in, l_out) pair of the beam with an
    even transfer l_in - l_out, sorted; odd transfers vanish identically
    for identical atoms."""
    k = beam.wavenumber
    alpha = molecule.half_separation
    out = []
    for l_in, amp in beam.sorted_states():
        weight = abs(amp) ** 2
        bound = math.sqrt(max(0.0, l_in * l_in + (k * alpha) ** 2))
        l_max = int(math.floor(bound)) + 1
        for l_out in range(-l_max, l_max + 1):
            if (l_in - l_out) % 2 != 0:
                continue
            kappa = outgoing_wavenumber(k, l_in, l_out, molecule)
            if kappa is not None:
                out.append(Channel(l_in=l_in, l_out=l_out, kappa=kappa,
                                   weight=weight))
    return out


class Trig(NamedTuple):
    """sin and cos of each of a set of angles."""

    sin: np.ndarray
    cos: np.ndarray


class AngleGrid(NamedTuple):
    """A theta grid, its trig and its exact mirror pairs.

    Angle i of the back half and angle n - 1 - i form an exact mirror
    pair when sin of one has the bits of the other's negated and their
    cos have the same bits. A pair then has exactly negated q_x and
    equal q_y and |q| at every kappa (negation is exact and rounding is
    sign-symmetric), so a value that is even in q_x, such as |V(q)|^2,
    has the same bits at both angles. ``trig`` is the trig of every
    angle; ``unique`` that of every angle but the back-half member of
    each pair, in grid order; ``expand`` the index into ``unique`` of
    each angle or of its partner, so that ``row.take(expand)`` copies a
    row computed on the unique angles to the whole grid.
    """

    thetas: np.ndarray
    trig: Trig
    unique: Trig
    expand: np.ndarray


def angle_grid(thetas) -> AngleGrid:
    """The AngleGrid of a theta array; an AngleGrid is returned as it is."""
    if isinstance(thetas, AngleGrid):
        return thetas
    thetas = np.asarray(thetas, dtype=float)
    sin, cos = np.sin(thetas), np.cos(thetas)
    n, half = thetas.size, thetas.size // 2
    back = slice(n - half, n)
    mirrored = ((sin[back].view(np.int64) == np.negative(sin[:half][::-1]).view(np.int64))
                & (cos[back].view(np.int64) == cos[:half][::-1].view(np.int64)))
    keep = np.ones(n, dtype=bool)
    keep[back] = ~mirrored
    expand = np.cumsum(keep) - 1  # the front half is kept: expand[:half] = i
    expand[back][mirrored] = expand[:half][::-1][mirrored]
    return AngleGrid(thetas, Trig(sin, cos), Trig(sin[keep], cos[keep]), expand)


def geometry_grid(k: float, kappa: float, angles):
    """(q_x, q_y, |q|) arrays of the momentum transfer q = k*y_hat -
    kappa*u_hat over a theta grid, given as a theta array or as the Trig
    of one (an AngleGrid's ``trig`` or ``unique``, then not recomputed).

    The matrix-element phase angle mu = atan2(-q_x, -q_y), set to 0 where
    |q| < Q_DEGENERATE, cancels in |amplitude|^2; only the complex
    amplitude of born.matrix_element forms it.
    """
    if k <= 0.0 or kappa < 0.0:
        raise ValueError("need k > 0 and kappa >= 0")
    sin, cos = angles if isinstance(angles, Trig) else (np.sin(angles), np.cos(angles))
    q_x = -kappa * sin
    q_y = k - kappa * cos
    # explicit sqrt rather than hypot: the two round differently, and the
    # pinned outputs were computed with this expression
    return q_x, q_y, np.sqrt(q_x * q_x + q_y * q_y)
