"""Core domain types shared by the engines, plus configuration validation.

Natural units throughout (hbar = 1). The incident beam travels along +y,
scattering angles are measured from +y, and all potential peaks sit on
the x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .specfun import ORDER_CAP

GAUSSIAN = "gaussian"
POLYNOMIAL_GAUSSIAN = "polynomial_gaussian"
PEAK_VARIANTS = (GAUSSIAN, POLYNOMIAL_GAUSSIAN)

# each closed internal-structure variant and its point-particle twin
CLOSED_TWINS = {
    "closed_two_gaussian": "closed_structureless_two_gaussian",
    "closed_grating": "closed_structureless_grating",
    "closed_mixed": "closed_structureless_mixed",
}

ENGINE_VARIANTS = ("general", "structureless", *CLOSED_TWINS,
                   *CLOSED_TWINS.values())
# engines that sum rotational channels with Bessel form factors
_CHANNEL_ENGINES = ("general", *CLOSED_TWINS)

# beam-norm policy: leave bits alone inside this band ...
NORM_KEEP = 1e-12
# ... renormalize up to here, reject beyond
NORM_FIX = 1e-6
# no amplitude component of a beam inside the norm band can exceed this
_AMP_MAX = math.sqrt(1.0 + NORM_FIX)

# theta grid cap, checked before the grid is allocated
MAX_THETA_STEPS = 10**7


class ConfigError(Exception):
    """Carries every invariant violation found, as (field path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class Molecule:
    """Two identical point atoms at fixed distance 2*half_separation."""

    atom_mass: float
    half_separation: float

    def __post_init__(self):
        if not _finite(self.atom_mass) or self.atom_mass <= 0:
            raise ValueError("atom_mass must be finite and > 0")
        if not _finite(self.half_separation) or self.half_separation < 0:
            raise ValueError("half_separation must be finite and >= 0")

    @property
    def moment_of_inertia(self) -> float:
        return 2.0 * self.atom_mass * self.half_separation ** 2


@dataclass(frozen=True)
class IncidentBeam:
    """Plane wave along +y with a sparse set of internal-state amplitudes."""

    wavenumber: float
    amplitudes: dict  # l (int) -> complex

    def __post_init__(self):
        if not _finite(self.wavenumber) or self.wavenumber <= 0:
            raise ValueError("wavenumber must be finite and > 0")
        amps = {}
        for l, a in self.amplitudes.items():
            if not isinstance(l, int) or isinstance(l, bool):
                raise ValueError("internal-state labels must be integers")
            a = complex(a)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError("amplitudes must be finite")
            if a != 0:
                amps[l] = a
        if not amps:
            raise ValueError("at least one nonzero amplitude required")
        norm = math.fsum(abs(a) ** 2 for a in amps.values())
        if abs(norm - 1.0) > NORM_KEEP:
            raise ValueError("amplitudes must satisfy sum |psi_l|^2 = 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    def sorted_states(self):
        return sorted(self.amplitudes.items())


@dataclass(frozen=True)
class PeakShape:
    variant: str
    strength: float  # may be negative (attractive well)
    width: float

    def __post_init__(self):
        if self.variant not in PEAK_VARIANTS:
            raise ValueError(f"variant must be one of {PEAK_VARIANTS}")
        if not _finite(self.strength):
            raise ValueError("strength must be finite")
        if not _finite(self.width) or self.width <= 0:
            raise ValueError("width must be finite and > 0")


@dataclass(frozen=True)
class Peak:
    center_x: float
    shape: PeakShape

    def __post_init__(self):
        if not _finite(self.center_x):
            raise ValueError("center_x must be finite")


@dataclass(frozen=True)
class PotentialSpec:
    peaks: tuple

    def __post_init__(self):
        if not self.peaks:
            raise ValueError("potential needs at least one peak")
        object.__setattr__(self, "peaks", tuple(self.peaks))
        for p in self.peaks:
            if not isinstance(p, Peak):
                raise ValueError("peaks must be Peak instances")


@dataclass(frozen=True)
class ScanSpec:
    theta_min: float
    theta_max: float
    theta_steps: int
    k_values: tuple = ()

    def __post_init__(self):
        if not _finite(self.theta_min) or not _finite(self.theta_max):
            raise ValueError("theta bounds must be finite")
        if self.theta_max <= self.theta_min:
            raise ValueError("theta max must exceed theta min")
        if not isinstance(self.theta_steps, int) or self.theta_steps < 2:
            raise ValueError("theta steps must be an integer >= 2")
        if self.theta_steps > MAX_THETA_STEPS:
            raise ValueError(f"theta steps must be <= {MAX_THETA_STEPS}")
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        for k in self.k_values:
            if not _finite(k) or k <= 0:
                raise ValueError("scan k values must be finite and > 0")

    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.theta_steps)


@dataclass(frozen=True)
class Config:
    molecule: Molecule
    beam: IncidentBeam
    potential: PotentialSpec
    engine_variant: str
    scan: Optional[ScanSpec]
    # echo of grating construction when the potential came from one,
    # so closed grating engines can recover (n, d) without guessing
    grating: Optional[tuple] = None  # (half_count, spacing)


@dataclass
class CrossSectionProfile:
    """sigma(theta) on an ascending grid, optionally split by channel."""

    thetas: np.ndarray
    sigma: np.ndarray
    per_channel: Optional[dict] = None  # (l_in, l_out) -> np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.thetas.ndim != 1 or self.thetas.shape != self.sigma.shape:
            raise ValueError("thetas and sigma must be 1d arrays of equal length")
        if self.thetas.size < 2:
            raise ValueError("profile needs at least two samples")
        if not (np.diff(self.thetas) > 0).all():
            raise ValueError("thetas must be strictly ascending")
        if not np.isfinite(self.sigma).all():
            raise ValueError("sigma must be finite")
        if (self.sigma < 0).any():
            raise ValueError("sigma must be >= 0")
        if self.per_channel is not None:
            total = np.zeros_like(self.sigma)
            for key, arr in self.per_channel.items():
                arr = np.asarray(arr, dtype=float)
                if arr.shape != self.sigma.shape:
                    raise ValueError(f"channel {key} has mismatched length")
                if (arr < 0).any():
                    raise ValueError(f"channel {key} has negative contributions")
                self.per_channel[key] = arr
                total = total + arr
            scale = float(self.sigma.max(initial=0.0))
            if not np.allclose(total, self.sigma, rtol=1e-10, atol=1e-10 * (scale + 1e-300)):
                raise ValueError("per-channel contributions do not sum to sigma")


# ---------------------------------------------------------------------------
# configuration document handling

def _num(doc, path, errors, *, default=None, minimum=None, strict_min=False,
         label=None):
    label = label or path
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is not None:
                return default
            errors.append((label, "missing required number"))
            return None
        cur = cur[part]
    if not _finite(cur):
        errors.append((label, "must be a finite number"))
        return None
    v = float(cur)
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        cmp = ">" if strict_min else ">="
        errors.append((label, f"must be {cmp} {minimum}"))
        return None
    return v


def _shape_from_doc(doc, path, errors) -> Optional[PeakShape]:
    if not isinstance(doc, dict):
        errors.append((path, "must be an object"))
        return None
    variant = doc.get("variant")
    if variant not in PEAK_VARIANTS:
        errors.append((path + ".variant", f"must be one of {list(PEAK_VARIANTS)}"))
        return None
    v0 = _num(doc, "v0", errors, label=path + ".v0")
    delta = _num(doc, "delta", errors, minimum=0.0, strict_min=True,
                 label=path + ".delta")
    if v0 is None or delta is None:
        return None
    return PeakShape(variant=variant, strength=v0, width=delta)


def make_grating(half_count: int, spacing: float, shape: PeakShape) -> PotentialSpec:
    """2*half_count + 1 identical peaks at n*spacing, n = -half_count..half_count."""
    if not isinstance(half_count, int) or half_count < 0:
        raise ValueError("half_count must be an integer >= 0")
    if not _finite(spacing) or spacing <= 0:
        raise ValueError("spacing must be finite and > 0")
    peaks = [Peak(center_x=n * spacing, shape=shape)
             for n in range(-half_count, half_count + 1)]
    return PotentialSpec(peaks=tuple(peaks))


def _channel_order_reach(k: float, alpha: float, states) -> float:
    """Upper bound on |l_in - l_out| over the open channels at wavenumber k
    (one order of slack for the closed forms' even rounding)."""
    return max(abs(l) + math.hypot(l, k * alpha) + 2.0 for l in states)


def validate_config(doc) -> Config:
    """Build validated domain objects from a parsed JSON document.

    Every violated invariant is collected with its field path; one
    ConfigError reports them all. Beam amplitudes off unit norm by at
    most 1e-6 are renormalized; beyond that the document is rejected.
    """
    errors = []
    if not isinstance(doc, dict):
        raise ConfigError([("", "configuration must be a JSON object")])

    mass = _num(doc, "molecule.mass", errors, minimum=0.0, strict_min=True)
    alpha = _num(doc, "molecule.alpha", errors, minimum=0.0)
    molecule = None
    if mass is not None and alpha is not None:
        molecule = Molecule(atom_mass=mass, half_separation=alpha)

    k = _num(doc, "beam.k", errors, minimum=0.0, strict_min=True)
    amps_doc = doc.get("beam", {}).get("amplitudes") if isinstance(doc.get("beam"), dict) else None
    beam = None
    amps = {}
    if amps_doc is None:
        amps = {0: complex(1.0, 0.0)}
    elif not isinstance(amps_doc, list) or not amps_doc:
        errors.append(("beam.amplitudes", "must be a non-empty list"))
    else:
        for i, entry in enumerate(amps_doc):
            p = f"beam.amplitudes[{i}]"
            if not isinstance(entry, dict):
                errors.append((p, "must be an object with l, re, im"))
                continue
            l = entry.get("l")
            if not isinstance(l, int) or isinstance(l, bool):
                errors.append((p + ".l", "must be an integer"))
                continue
            if abs(l) > ORDER_CAP:
                errors.append((p + ".l", f"|l| must be at most {ORDER_CAP}, "
                               "the supported Bessel order cap"))
                continue
            re = _num(entry, "re", errors, default=0.0, label=p + ".re")
            im = _num(entry, "im", errors, default=0.0, label=p + ".im")
            if re is None or im is None:
                continue
            for part, v in (("re", re), ("im", im)):
                if abs(v) > _AMP_MAX:
                    errors.append((f"{p}.{part}", f"{v!r} exceeds 1 in magnitude, "
                                   "so sum |psi|^2 cannot be 1"))
            if l in amps:
                errors.append((p + ".l", f"duplicate state label {l}"))
                continue
            if alpha == 0.0 and l != 0 and complex(re, im) != 0:
                errors.append((p + ".l", f"state l = {l} needs molecule.alpha "
                               "> 0; a rotor with alpha = 0 has only l = 0"))
            amps[l] = complex(re, im)
    if k is not None and amps:
        nonzero = {l: a for l, a in amps.items() if a != 0}
        if not nonzero:
            errors.append(("beam.amplitudes", "all amplitudes are zero"))
        else:
            # |psi|^2 of an oversized component can overflow; its sum is
            # off the unit band either way
            oversized = any(max(abs(a.real), abs(a.imag)) > _AMP_MAX
                            for a in nonzero.values())
            norm = math.inf if oversized else math.fsum(
                abs(a) ** 2 for a in nonzero.values())
            if abs(norm - 1.0) > NORM_FIX:
                errors.append(("beam.amplitudes",
                               f"sum |psi|^2 = {norm!r} is farther than 1e-6 from 1"))
            else:
                if abs(norm - 1.0) > NORM_KEEP:
                    r = 1.0 / math.sqrt(norm)
                    nonzero = {l: a * r for l, a in nonzero.items()}
                try:
                    beam = IncidentBeam(wavenumber=k, amplitudes=nonzero)
                except ValueError as exc:
                    errors.append(("beam", str(exc)))

    potential = None
    grating_echo = None
    pot = doc.get("potential")
    if not isinstance(pot, dict):
        errors.append(("potential", "missing required object"))
    else:
        kind = pot.get("kind")
        if kind == "peaks":
            peaks_doc = pot.get("peaks")
            if not isinstance(peaks_doc, list) or not peaks_doc:
                errors.append(("potential.peaks", "must be a non-empty list"))
            else:
                peaks = []
                n_before = len(errors)
                for i, pk in enumerate(peaks_doc):
                    p = f"potential.peaks[{i}]"
                    if not isinstance(pk, dict):
                        errors.append((p, "must be an object"))
                        continue
                    center = pk.get("center")
                    if not _finite(center):
                        errors.append((p + ".center", "missing or non-finite"))
                        continue
                    shape = _shape_from_doc(pk.get("shape"), p + ".shape", errors)
                    if shape is not None:
                        peaks.append(Peak(center_x=float(center), shape=shape))
                if peaks and len(errors) == n_before:
                    potential = PotentialSpec(peaks=tuple(peaks))
        elif kind == "grating":
            g = pot.get("grating")
            if not isinstance(g, dict):
                errors.append(("potential.grating", "missing required object"))
            else:
                n = g.get("n")
                if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                    errors.append(("potential.grating.n", "must be an integer >= 0"))
                    n = None
                d = _num(g, "d", errors, minimum=0.0, strict_min=True,
                         label="potential.grating.d")
                shape = _shape_from_doc(g.get("shape"), "potential.grating.shape", errors)
                if n is not None and d is not None and shape is not None:
                    potential = make_grating(n, d, shape)
                    grating_echo = (n, d)
        else:
            errors.append(("potential.kind", "must be 'peaks' or 'grating'"))

    engine = doc.get("engine", {"variant": "general"})
    variant = engine.get("variant") if isinstance(engine, dict) else None
    if variant not in ENGINE_VARIANTS:
        errors.append(("engine.variant", f"must be one of {list(ENGINE_VARIANTS)}"))

    scan = None
    if "scan" in doc:
        s = doc["scan"]
        if not isinstance(s, dict):
            errors.append(("scan", "must be an object"))
        else:
            tmin = _num(s, "theta.min", errors, label="scan.theta.min")
            tmax = _num(s, "theta.max", errors, label="scan.theta.max")
            steps = None
            t = s.get("theta")
            if isinstance(t, dict):
                steps = t.get("steps")
                if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
                    errors.append(("scan.theta.steps", "must be an integer >= 2"))
                    steps = None
                elif steps > MAX_THETA_STEPS:
                    errors.append(("scan.theta.steps", f"must be <= {MAX_THETA_STEPS}"))
                    steps = None
            ks = s.get("k", [])
            k_ok = True
            if not isinstance(ks, list):
                errors.append(("scan.k", "must be a list of numbers"))
                k_ok = False
            else:
                for i, kv in enumerate(ks):
                    if not _finite(kv) or kv <= 0:
                        errors.append((f"scan.k[{i}]", "must be finite and > 0"))
                        k_ok = False
            if tmin is not None and tmax is not None and steps is not None and k_ok:
                if tmax <= tmin:
                    errors.append(("scan.theta.max", "must exceed scan.theta.min"))
                else:
                    scan = ScanSpec(theta_min=tmin, theta_max=tmax,
                                    theta_steps=steps, k_values=tuple(ks))

    if variant in _CHANNEL_ENGINES and alpha is not None and beam is not None:
        wavenumbers = [("beam.k", beam.wavenumber)]
        if scan is not None:
            wavenumbers += [(f"scan.k[{i}]", kv) for i, kv in enumerate(scan.k_values)]
        for path, kv in wavenumbers:
            reach = _channel_order_reach(kv, alpha, beam.amplitudes)
            if reach > ORDER_CAP:
                errors.append((path, f"with molecule.alpha = {alpha!r} the channels "
                               f"reach Bessel order {reach:.6g}, beyond the "
                               f"supported cap {ORDER_CAP}"))

    if errors:
        raise ConfigError(errors)
    return Config(molecule=molecule, beam=beam, potential=potential,
                  engine_variant=variant, scan=scan, grating=grating_echo)


def serialize_config(config: Config) -> dict:
    """Inverse of validate_config; re-validating the result is bit-stable."""
    amps = [{"l": l, "re": a.real, "im": a.imag}
            for l, a in config.beam.sorted_states()]
    doc = {
        "molecule": {"mass": config.molecule.atom_mass,
                     "alpha": config.molecule.half_separation},
        "beam": {"k": config.beam.wavenumber, "amplitudes": amps},
        "engine": {"variant": config.engine_variant},
    }
    if config.grating is not None:
        n, d = config.grating
        shape = config.potential.peaks[0].shape
        doc["potential"] = {"kind": "grating",
                            "grating": {"n": n, "d": d,
                                        "shape": {"variant": shape.variant,
                                                  "v0": shape.strength,
                                                  "delta": shape.width}}}
    else:
        doc["potential"] = {"kind": "peaks",
                            "peaks": [{"center": p.center_x,
                                       "shape": {"variant": p.shape.variant,
                                                 "v0": p.shape.strength,
                                                 "delta": p.shape.width}}
                                      for p in config.potential.peaks]}
    if config.scan is not None:
        doc["scan"] = {"theta": {"min": config.scan.theta_min,
                                 "max": config.scan.theta_max,
                                 "steps": config.scan.theta_steps},
                       "k": list(config.scan.k_values)}
    return doc
