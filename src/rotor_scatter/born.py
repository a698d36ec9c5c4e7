"""First-order scattering engines.

Three evaluation routes for the differential cross section of a rigid
two-atom rotor hitting a static multi-peak potential:

  * general: channel sum over open rotational transitions,
  * structureless: single point particle, no internal states,
  * closed_*: hand-derived specializations for the standard
    configurations (two Gaussians, peak array, mixed pair), kept as
    independent formulas so the general engine can be checked against
    them to high precision.

Conventions: hbar = 1, beam along +y with wavenumber k, flux prefactor
(2 pi)^3 * 4 m^2 / k for the rotor and 2 pi M^2 / k for the point
particle. The structureless COMPARISON convention (total mass 2m, every
peak strength doubled, see structureless_counterpart) is the caller's
job; profile_structureless itself takes whatever it is given.

Every engine evaluates a theta grid; a caller that wants a few angles
passes a grid holding them (a profile needs two ascending samples).
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .kinematics import Q_DEGENERATE, geometry_grid, open_channels
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

def _require(variant, **params):
    missing = [name for name, val in params.items() if val is None]
    if missing:
        raise UnsupportedVariantError(
            f"{variant} needs parameters: {', '.join(sorted(missing))}")


def _mixed_bracket(w, cos_term):
    # regrouped from 1 + w^2/16 + (w/2)cos(2 q_x d): the two-square form
    # mirrors |V|^2 = (sum)^2 cos^2 + (difference)^2 sin^2 of the pair,
    # so it stays accurate where the bracket is small
    half = 1.0 - 0.25 * w
    return half * half + w * cos_term * cos_term


# ---------------------------------------------------------------------------
# engines over a theta grid

def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    return t, (t - total) - y


def _key_groups(keys, size):
    """The keys in runs of whole Bessel calls: at most specfun.BLOCK
    arguments per call, size arguments per key, one key at least."""
    step = max(1, specfun.BLOCK // max(1, size))
    return [keys[i:i + step] for i in range(0, len(keys), step)]


def _bessel_rows(orders, xs):
    """J_n(x) for row i of xs at order orders[i], as rows, from one
    specfun.bessel_j_grid call over all of xs. A value depends only on its
    (n, x), so grouping changes no bit."""
    values = specfun.bessel_j_grid(np.repeat(orders, xs.shape[1]), xs.ravel())
    return values.reshape(xs.shape)


def profile_general(thetas: np.ndarray, molecule: Molecule, beam: IncidentBeam,
                    spec: PotentialSpec) -> CrossSectionProfile:
    """Channel-summed profile; per-channel arrays accumulated in ascending
    channel order with compensated summation (bit-stable outputs)."""
    thetas = np.asarray(thetas, dtype=float)
    k = beam.wavenumber
    c = _rotor_prefactor(molecule.atom_mass, k)
    total = np.zeros_like(thetas)
    comp = np.zeros_like(thetas)
    per = {}
    v2_of = {}    # kappa -> |V(q)|^2
    bess_of = {}  # (kappa, |n|) -> J_n(alpha |q|); J_-n^2 == J_n^2 exactly
    channels = open_channels(beam, molecule)
    keys = list(dict.fromkeys((ch.kappa, abs(ch.l_in - ch.l_out)) for ch in channels))
    for group in _key_groups(keys, thetas.size):
        xs = np.empty((len(group), thetas.size))
        for row, (kappa, _) in zip(xs, group):
            q_x, q_y, q_mag = geometry_grid(k, kappa, thetas)
            if kappa not in v2_of:
                re, im = ft_total_grid(spec, q_x, q_y)
                v2_of[kappa] = re * re + im * im
            np.multiply(molecule.half_separation, q_mag, out=row)
        bess_of.update(zip(group, _bessel_rows([n for _, n in group], xs)))
    for ch in channels:
        bess = bess_of[(ch.kappa, abs(ch.l_in - ch.l_out))]
        term = (c * ch.weight / math.pi ** 2) * bess * bess * v2_of[ch.kappa]
        per[(ch.l_in, ch.l_out)] = term
        total, comp = _kahan_add(total, comp, term)
    return CrossSectionProfile(thetas=thetas, sigma=total, per_channel=per,
                               metadata={"engine": "general", "k": k})


def profile_structureless(thetas: np.ndarray, mass: float, k: float,
                          spec: PotentialSpec) -> CrossSectionProfile:
    if mass <= 0:
        raise ValueError("mass must be > 0")
    thetas = np.asarray(thetas, dtype=float)
    q_x, q_y, _ = geometry_grid(k, k, thetas)
    re, im = ft_total_grid(spec, q_x, q_y)
    sigma = (2.0 * math.pi * mass * mass / k) * (re * re + im * im)
    return CrossSectionProfile(thetas=thetas, sigma=sigma,
                               metadata={"engine": "structureless", "k": k})


def profile_closed(variant: str, thetas: np.ndarray, *, mass: float, v0: float,
                   delta: float, k: float, alpha: float | None = None,
                   d: float | None = None,
                   half_count: int | None = None) -> CrossSectionProfile:
    """Hand-derived cross section for one of the six special setups.

    Internal-structure variants (the keys of CLOSED_TWINS) sum the open
    channels of open_channels; their structureless twins evaluate at
    kappa = k. All assume the beam starts in the l = 0 state. Built from
    the same primitives as profile_general so the two can be compared
    tightly.
    """
    if k <= 0:
        raise ValueError("k must be > 0")
    thetas = np.asarray(thetas, dtype=float)
    base = math.pi * mass * mass * v0 * v0 * delta ** 4 / k
    meta = {"engine": variant, "k": k}

    if variant in CLOSED_TWINS:
        _require(variant, alpha=alpha, d=d)
        if variant == "closed_grating":
            _require(variant, half_count=half_count)
        total = np.zeros_like(thetas)
        comp = np.zeros_like(thetas)
        per = {}
        by_order = {}  # (kappa, |l'|) -> (q_x, w, damp); J_-l'^2 == J_l'^2
        bess_of = {}   # (kappa, |l'|) -> J_l'(alpha |q|)
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        mol = Molecule(atom_mass=1.0, half_separation=alpha)
        channels = open_channels(beam, mol)
        keys = list(dict.fromkeys((ch.kappa, abs(ch.l_out)) for ch in channels))
        for group in _key_groups(keys, thetas.size):
            xs = np.empty((len(group), thetas.size))
            for row, key in zip(xs, group):
                q_x, q_y, q_mag = geometry_grid(k, key[0], thetas)
                w = (q_mag * delta) ** 2
                by_order[key] = (q_x, w, np.exp(-0.5 * w))
                np.multiply(alpha, q_mag, out=row)
            bess_of.update(zip(group, _bessel_rows([n for _, n in group], xs)))
        for ch in channels:
            l_out = ch.l_out
            key = (ch.kappa, abs(l_out))
            q_x, w, damp = by_order[key]
            bess = bess_of[key]
            if variant == "closed_two_gaussian":
                c = np.cos(q_x * d)
                term = 32.0 * base * damp * bess * bess * c * c
            elif variant == "closed_grating":
                dir_amp = dirichlet_amplitude_grid(q_x * d, half_count)
                term = 8.0 * base * damp * bess * bess * dir_amp * dir_amp
            else:
                c = np.cos(q_x * d)
                term = 8.0 * base * damp * bess * bess * _mixed_bracket(w, c)
            per[(0, l_out)] = term
            total, comp = _kahan_add(total, comp, term)
        return CrossSectionProfile(thetas=thetas, sigma=total, per_channel=per,
                                   metadata=meta)

    if variant in CLOSED_TWINS.values():
        _require(variant, d=d)
        q_x, q_y, q_mag = geometry_grid(k, k, thetas)
        w = (q_mag * delta) ** 2
        damp = np.exp(-0.5 * w)
        if variant == "closed_structureless_two_gaussian":
            c = np.cos(q_x * d)
            sigma = 32.0 * base * damp * c * c
        elif variant == "closed_structureless_grating":
            _require(variant, half_count=half_count)
            dir_amp = dirichlet_amplitude_grid(q_x * d, half_count)
            sigma = 32.0 * base * damp * dir_amp * dir_amp
        else:
            c = np.cos(q_x * d)
            sigma = 8.0 * base * damp * _mixed_bracket(w, c)
        return CrossSectionProfile(thetas=thetas, sigma=sigma, metadata=meta)

    raise UnsupportedVariantError(f"not a closed-form variant: {variant!r}")
