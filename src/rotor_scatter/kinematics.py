"""Channel enumeration and outgoing-wave kinematics.

Energy bookkeeping: an incoming state (k, l_in) can scatter into (kappa,
l_out) when k^2 + (l_in^2 - l_out^2)/alpha^2 > 0. Marginal channels with
kappa exactly 0 carry no outgoing flux and are excluded, and so are odd
transfers l_in - l_out, whose amplitude vanishes for the rotor's two
identical atoms. The channel-summed engine and the closed forms both
enumerate channels with open_channels, so their channel sets always
agree, including at threshold coincidences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if alpha == 0.0:
            if l_in == 0:
                out.append(Channel(l_in=0, l_out=0, kappa=k, weight=weight))
            continue
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


def geometry_grid(k: float, kappa: float, thetas: np.ndarray):
    """(q_x, q_y, |q|) arrays of the momentum transfer q = k*y_hat -
    kappa*u_hat over a theta grid.

    The matrix-element phase angle mu = atan2(-q_x, -q_y), set to 0 where
    |q| < Q_DEGENERATE, cancels in |amplitude|^2; only the complex
    amplitude of born.matrix_element forms it.
    """
    if k <= 0.0 or kappa < 0.0:
        raise ValueError("need k > 0 and kappa >= 0")
    q_x = -kappa * np.sin(thetas)
    q_y = k - kappa * np.cos(thetas)
    # explicit sqrt rather than hypot: the two round differently, and the
    # pinned outputs were computed with this expression
    return q_x, q_y, np.sqrt(q_x * q_x + q_y * q_y)
