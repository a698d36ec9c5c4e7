"""First-order scattering engines.

Three evaluation routes for the differential cross section of a rigid
two-atom rotor hitting a static multi-peak potential:

  * general: channel sum over open rotational transitions,
  * structureless: single point particle, no internal states,
  * closed_*: hand-derived specializations for the standard
    configurations (two Gaussians, peak array, mixed pair), kept as
    independent formulas so the general engine can be checked against
    them to high precision. Each is one _PREFACTOR entry times one
    angular factor; a closed_structureless_* twin is its internal variant
    at alpha = 0 (one channel, kappa = k, J_0(0) = 1). The grating twin's
    32 is 4x the 8 of the compare convention (ROADMAP item 3).

Conventions: hbar = 1, beam along +y with wavenumber k, flux prefactor
(2 pi)^3 * 4 m^2 / k for the rotor and 2 pi M^2 / k for the point
particle. The structureless COMPARISON convention (total mass 2m, every
peak strength doubled, see structureless_counterpart) is the caller's
job; profile_structureless itself takes whatever it is given.

Every engine evaluates a theta grid; a caller that wants a few angles
passes a grid holding them (a profile needs two ascending samples). The
grid is a theta array or a kinematics.AngleGrid, which the CLI makes
once per run, so that every q grid of the run reuses its sin and cos.
|V(q)|^2 is computed on the grid's unique angles only, and each value
is copied to its exact mirror angle: V is a sum of radial peaks on the
x axis, so V(-q_x, q_y) is the complex conjugate of V(q_x, q_y), and
ft_total_grid returns equal re and negated im there, whose
re^2 + im^2 has the same bits (kinematics.AngleGrid). The closed
envelope holds q_x, which is odd, and stays on the whole grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import specfun
from .kinematics import Q_DEGENERATE, angle_grid, geometry_grid, open_channels
from .model import (
    CLOSED_TWINS,
    CrossSectionProfile,
    IncidentBeam,
    Molecule,
    Peak,
    PeakShape,
    PotentialSpec,
)
from .potentials import dirichlet_amplitude_grid, ft_total_grid


class UnsupportedVariantError(ValueError):
    """Closed-form variant asked for a configuration it does not cover."""


def _rotor_prefactor(mass: float, k: float) -> float:
    return (2.0 * math.pi) ** 3 * 4.0 * mass * mass / k


def matrix_element(spec: PotentialSpec, molecule: Molecule, k: float,
                   theta: float, l_in: int, l_out: int, kappa: float) -> complex:
    """Transition amplitude for one open channel at one angle.

    (1/2pi) * exp(-i(l_in-l_out)mu) * [1 + (-1)^(l_in-l_out)]
           * J_(l_in-l_out)(alpha |q|) * V_total(q)

    The parity factor is 2 for even transfer and kills odd transfer
    exactly; the 2/(2pi) is folded into 1/pi below. This is the only
    complex amplitude: the profile engines form |amplitude|^2 directly,
    where the phase mu cancels.
    """
    n = l_in - l_out
    if n % 2 != 0:
        return 0j
    q_x, q_y, q_mag = geometry_grid(k, kappa, np.array([theta], dtype=float))
    mu = np.where(q_mag < Q_DEGENERATE, 0.0, np.arctan2(-q_x, -q_y))
    bess = specfun.bessel_j_grid(n, molecule.half_separation * q_mag)
    re, im = ft_total_grid(spec, q_x, q_y)
    amp = (1.0 / math.pi) * np.exp(-1j * (n * mu)) * bess * (re + 1j * im)
    return complex(amp[0])


def structureless_counterpart(molecule: Molecule, spec: PotentialSpec):
    """(mass, spec) for the point-particle comparison of a rotor run.

    Total mass 2m, and every peak strength doubled because the potential
    acts on each of the two atoms.
    """
    doubled = tuple(
        Peak(center_x=p.center_x,
             shape=PeakShape(variant=p.shape.variant,
                             strength=2.0 * p.shape.strength,
                             width=p.shape.width))
        for p in spec.peaks)
    return 2.0 * molecule.atom_mass, PotentialSpec(peaks=doubled)


# ---------------------------------------------------------------------------
# closed forms

# sigma of each closed variant in units of pi m^2 v0^2 delta^4 / k
_PREFACTOR = {
    "closed_two_gaussian": 32.0, "closed_grating": 8.0, "closed_mixed": 8.0,
    "closed_structureless_two_gaussian": 32.0,
    "closed_structureless_grating": 32.0, "closed_structureless_mixed": 8.0,
}
_INTERNAL_OF = {twin: internal for internal, twin in CLOSED_TWINS.items()}


def _require(variant, **params):
    missing = [name for name, val in params.items() if val is None]
    if missing:
        raise UnsupportedVariantError(
            f"{variant} needs parameters: {', '.join(sorted(missing))}")


def _times_angular(internal, acc, q_x, w, d, half_count):
    """acc times the variant's angular factor, in the order the pinned
    outputs were computed with: cos^2(q_x d), the Dirichlet amplitude
    squared, or the mixed pair's bracket."""
    if internal == "closed_grating":
        dir_amp = dirichlet_amplitude_grid(q_x * d, half_count)
        return acc * dir_amp * dir_amp
    c = np.cos(q_x * d)
    if internal == "closed_two_gaussian":
        return acc * c * c
    # regrouped from 1 + w^2/16 + (w/2)cos(2 q_x d): the two-square form
    # mirrors |V|^2 = (sum)^2 cos^2 + (difference)^2 sin^2 of the pair,
    # so it stays accurate where the bracket is small
    half = 1.0 - 0.25 * w
    return acc * (half * half + w * c * c)


# ---------------------------------------------------------------------------
# engines over a theta grid

class ChannelRows(NamedTuple):
    """A rotor's open channels at one k, and J_|n|(alpha |q|) over a theta
    grid per (kappa, |n|) key, n = l_in - l_out (J_-n^2 == J_n^2 exactly)."""

    channels: list
    bess: dict


def bessel_groups(thetas, rotors):
    """ChannelRows for each (beam, molecule) of ``rotors`` (None for an
    engine without channels: None back), one list per group.

    A group is a run of consecutive rotors; it closes once its keys hold
    at least specfun.BLOCK elements (one per key and angle), and its rows
    come from one specfun.bessel_j_grid call. Within it an element whose
    argument equals that of its mirror, angle index size - 1 - i in the
    same row, is not evaluated but copied from it. A value depends only
    on its (n, x), so neither the group nor the skipped elements change
    a bit. Each beam's channels are enumerated once, here. ``thetas`` is
    a theta array or its AngleGrid.
    """
    grid = angle_grid(thetas)
    group, size = [], 0
    for rotor in rotors:
        if rotor is not None:
            beam, molecule = rotor
            channels = open_channels(beam, molecule)
            keys = list(dict.fromkeys((ch.kappa, abs(ch.l_in - ch.l_out))
                                      for ch in channels))
            rotor = (beam.wavenumber, molecule.half_separation, channels, keys)
            size += len(keys) * grid.thetas.size
        group.append(rotor)
        if size >= specfun.BLOCK:
            yield _bessel_pass(grid, group)
            group, size = [], 0
    if group:
        yield _bessel_pass(grid, group)


def _bessel_pass(grid, group):
    """The ChannelRows of a group of (k, alpha, channels, keys) or None:
    one x = alpha |q| row per key, then one call for the rows' elements
    that are not their mirror's repeat."""
    row_keys = [(k, alpha, kappa, n) for k, alpha, _, keys in filter(None, group)
                for kappa, n in keys]
    size = grid.thetas.size
    xs = np.empty((len(row_keys), size))
    for row, (k, alpha, kappa, _) in zip(xs, row_keys):
        np.multiply(alpha, geometry_grid(k, kappa, grid.trig)[2], out=row)
    ns = np.broadcast_to(np.array([n for *_, n in row_keys], dtype=np.int64)[:, None],
                         xs.shape)
    half = size // 2
    back, front = xs[:, size - half:], xs[:, :half][:, ::-1]
    mirrored = back == front
    todo = np.ones(xs.shape, dtype=bool)
    todo[:, size - half:] = ~mirrored
    if xs.size:
        xs[todo] = specfun.bessel_j_grid(ns[todo], xs[todo])
    np.copyto(back, front, where=mirrored)
    rows = iter(xs)  # zip takes one row per key
    return [g and ChannelRows(g[2], dict(zip(g[3], rows))) for g in group]


def _channel_sum(rows, grid, at_kappa, term):
    """(sigma, per-channel terms) over the open channels of ``rows`` on
    the AngleGrid ``grid``.

    at_kappa(kappa) runs once per outgoing kappa. term(channel, at_kappa
    result, J row) is summed in channel order with compensated summation
    (bit-stable outputs). The J
    rows are those bessel_groups made, alone or with the rows of the
    other profiles of their group.
    """
    at = {kappa: at_kappa(kappa)
          for kappa in dict.fromkeys(ch.kappa for ch in rows.channels)}
    total = np.zeros_like(grid.thetas)
    comp = np.zeros_like(grid.thetas)
    per = {}
    for ch in rows.channels:
        t = term(ch, at[ch.kappa], rows.bess[(ch.kappa, abs(ch.l_in - ch.l_out))])
        per[(ch.l_in, ch.l_out)] = t
        y = t - comp
        s = total + y
        total, comp = s, (s - total) - y
    return total, per


def _rows_alone(grid, beam, molecule):
    """The ChannelRows of one profile, a group of one."""
    [rows] = next(bessel_groups(grid, [(beam, molecule)]))
    return rows


def _unique_v2(spec, k, kappa, grid):
    """|V(q)|^2 at outgoing kappa on the grid's unique angles; ``take``
    with grid.expand gives it on the whole grid."""
    q_x, q_y, _ = geometry_grid(k, kappa, grid.unique)
    re, im = ft_total_grid(spec, q_x, q_y)
    re *= re
    im *= im
    re += im
    return re


def profile_general(thetas, molecule: Molecule, beam: IncidentBeam,
                    spec: PotentialSpec, rows: ChannelRows | None = None
                    ) -> CrossSectionProfile:
    """Channel-summed profile with per-channel arrays.

    ``thetas`` is a theta array or its AngleGrid. ``rows`` are this
    (beam, molecule)'s from bessel_groups on that grid; without them the
    profile is a group of one.
    """
    grid = angle_grid(thetas)
    k = beam.wavenumber
    c = _rotor_prefactor(molecule.atom_mass, k)

    def v2(kappa):
        return _unique_v2(spec, k, kappa, grid).take(grid.expand)

    def term(ch, v2_k, bess):
        return (c * ch.weight / math.pi ** 2) * bess * bess * v2_k

    if rows is None:
        rows = _rows_alone(grid, beam, molecule)
    sigma, per = _channel_sum(rows, grid, v2, term)
    return CrossSectionProfile(thetas=grid.thetas, sigma=sigma, per_channel=per,
                               metadata={"engine": "general", "k": k})


def profile_structureless(thetas, mass: float, k: float,
                          spec: PotentialSpec) -> CrossSectionProfile:
    """Point-particle profile; ``thetas`` is a theta array or its AngleGrid."""
    if mass <= 0:
        raise ValueError("mass must be > 0")
    grid = angle_grid(thetas)
    sigma = _unique_v2(spec, k, k, grid)
    sigma *= 2.0 * math.pi * mass * mass / k
    return CrossSectionProfile(thetas=grid.thetas, sigma=sigma.take(grid.expand),
                               metadata={"engine": "structureless", "k": k})


def closed_rotor(variant: str, k: float, alpha: float | None):
    """(beam, molecule) whose open channels the closed ``variant`` sums at
    k: an l = 0 beam on a rotor of arm alpha, or of arm 0 for a
    structureless twin."""
    if variant in _INTERNAL_OF:
        alpha = 0.0
    return (IncidentBeam(wavenumber=k, amplitudes={0: 1.0}),
            Molecule(atom_mass=1.0, half_separation=alpha))


def profile_closed(variant: str, thetas, *, mass: float, v0: float,
                   delta: float, k: float, alpha: float | None = None,
                   d: float | None = None,
                   half_count: int | None = None,
                   rows: ChannelRows | None = None) -> CrossSectionProfile:
    """Hand-derived cross section for one of the six special setups.

    Internal-structure variants (the keys of CLOSED_TWINS) sum the open
    channels of closed_rotor: an l = 0 beam. A structureless twin is the
    same rotor at alpha = 0 (any alpha given is ignored) and returns no
    per-channel arrays. Built from the same primitives as
    profile_general so the two can be compared tightly. ``thetas`` and
    ``rows`` are as for profile_general, for closed_rotor's (beam,
    molecule).
    """
    if k <= 0:
        raise ValueError("k must be > 0")
    internal = _INTERNAL_OF.get(variant, variant)
    if internal not in CLOSED_TWINS:
        raise UnsupportedVariantError(f"not a closed-form variant: {variant!r}")
    twin = internal != variant
    _require(variant, alpha=0.0 if twin else alpha, d=d)
    if internal == "closed_grating":
        _require(variant, half_count=half_count)
    grid = angle_grid(thetas)
    pref = _PREFACTOR[variant] * (math.pi * mass * mass * v0 * v0 * delta ** 4 / k)

    def envelope(kappa):
        q_x, _, q_mag = geometry_grid(k, kappa, grid.trig)
        w = (q_mag * delta) ** 2
        return q_x, w, np.exp(-0.5 * w)

    def term(ch, at, bess):
        q_x, w, damp = at
        return _times_angular(internal, pref * damp * bess * bess, q_x, w, d,
                              half_count)

    if rows is None:
        rows = _rows_alone(grid, *closed_rotor(variant, k, alpha))
    sigma, per = _channel_sum(rows, grid, envelope, term)
    return CrossSectionProfile(thetas=grid.thetas, sigma=sigma,
                               per_channel=None if twin else per,
                               metadata={"engine": variant, "k": k})
