"""Core domain types shared by the engines, plus configuration validation.

Natural units throughout (hbar = 1). The incident beam travels along +y,
scattering angles are measured from +y, and all potential peaks sit on
the x axis.
"""

from __future__ import annotations

import math
import sys
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
# grating half-count cap, checked before a peak is allocated
MAX_GRATING_N = 10**4


class FieldError(ValueError):
    """Every invariant violation found, as (field, message) pairs; a domain
    type names its fields as the document does, relative to its own block."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


class ConfigError(FieldError):
    """A rejected configuration document, paths from the document root; the
    CLI exits 1 on it, and 2 on a bare FieldError raised inside an engine."""


def _check(*rules):
    """Raise FieldError naming every (field, message, ok) rule not ok."""
    errors = [(f, m) for f, m, ok in rules if not ok]
    if errors:
        raise FieldError(errors)


def _finite(x) -> bool:
    # abs() keeps an int beyond the double range from overflowing
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _positive(x) -> bool:
    return _finite(x) and x > 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_POSITIVE = "must be a finite number > 0"
_PART = "must be a finite number of magnitude at most 1, so that sum |psi|^2 can be 1"


@dataclass(frozen=True)
class Molecule:
    """Two identical point atoms at fixed distance 2*half_separation."""

    atom_mass: float
    half_separation: float

    def __post_init__(self):
        _check(("mass", _POSITIVE, _positive(self.atom_mass)),
               ("alpha", "must be a finite number >= 0",
                _finite(self.half_separation) and self.half_separation >= 0))

    @property
    def moment_of_inertia(self) -> float:
        return 2.0 * self.atom_mass * self.half_separation ** 2


@dataclass(frozen=True)
class IncidentBeam:
    """Plane wave along +y with a sparse set of internal-state amplitudes.

    ``amplitudes`` maps l (int) -> complex, or lists (l, amplitude) pairs;
    errors name the i-th state given (``amplitudes[i].re``). Zeros are dropped.
    """

    wavenumber: float
    amplitudes: dict  # l (int) -> complex

    def __post_init__(self):
        items = self.amplitudes
        states = [(l, complex(a)) for l, a in
                  (items.items() if isinstance(items, dict) else items)]
        rules = [("k", _POSITIVE, _positive(self.wavenumber))]
        amps, first = {}, {}
        for i, (l, a) in enumerate(states):
            p, label = f"amplitudes[{i}]", _is_int(l)
            rules += [(p + ".l", "must be an integer", label),
                      (p + ".l", f"|l| must be at most {ORDER_CAP}, the supported "
                       "Bessel order cap", not label or abs(l) <= ORDER_CAP),
                      (p + ".l", f"duplicate state label {l}",
                       not label or first.setdefault(l, i) == i),
                      (p + ".re", _PART, abs(a.real) <= _AMP_MAX),
                      (p + ".im", _PART, abs(a.imag) <= _AMP_MAX)]
            if label and first[l] == i and a != 0:
                amps[l] = a
        if all(_is_int(l) and math.isfinite(a.real) and math.isfinite(a.imag)
               for l, a in states):
            # an oversized part would overflow |psi|^2; it is off the band anyway
            big = any(abs(x) > _AMP_MAX for a in amps.values() for x in (a.real, a.imag))
            norm = math.inf if big else math.fsum(abs(a) ** 2 for a in amps.values())
            rules += [("amplitudes", "at least one nonzero amplitude required",
                       bool(amps)),
                      ("amplitudes", f"sum |psi|^2 = {norm!r}, not 1",
                       not amps or abs(norm - 1.0) <= NORM_KEEP)]
        _check(*rules)
        object.__setattr__(self, "amplitudes", amps)

    def sorted_states(self):
        return sorted(self.amplitudes.items())


@dataclass(frozen=True)
class PeakShape:
    variant: str
    strength: float  # may be negative (attractive well)
    width: float

    def __post_init__(self):
        _check(("variant", f"must be one of {list(PEAK_VARIANTS)}",
                self.variant in PEAK_VARIANTS),
               ("v0", "must be a finite number", _finite(self.strength)),
               ("delta", _POSITIVE, _positive(self.width)))


@dataclass(frozen=True)
class Peak:
    center_x: float
    shape: PeakShape

    def __post_init__(self):
        _check(("center", "must be a finite number", _finite(self.center_x)))


@dataclass(frozen=True)
class PotentialSpec:
    peaks: tuple

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        _check(("peaks", "must list at least one peak", bool(self.peaks)),
               ("peaks", "must be Peak instances",
                all(isinstance(p, Peak) for p in self.peaks)))


def make_grating(half_count: int, spacing: float, shape: PeakShape) -> PotentialSpec:
    """2*half_count + 1 identical peaks at n*spacing, n = -half_count..half_count.

    The count (field ``n``) and spacing (``d``) are checked before any peak exists.
    """
    n_ok = _is_int(half_count) and half_count >= 0
    _check(("n", "must be an integer >= 0", n_ok),
           ("n", f"must be <= {MAX_GRATING_N}", not n_ok or half_count <= MAX_GRATING_N),
           ("d", _POSITIVE, _positive(spacing)))
    # the outermost peaks sit at +-n*d
    _check(("d", "n * d must be a finite number", _finite(half_count * spacing)))
    peaks = [Peak(center_x=n * spacing, shape=shape)
             for n in range(-half_count, half_count + 1)]
    return PotentialSpec(peaks=tuple(peaks))


@dataclass(frozen=True)
class ScanSpec:
    theta_min: float
    theta_max: float
    theta_steps: int
    k_values: tuple = ()

    def __post_init__(self):
        lo, hi, steps = self.theta_min, self.theta_max, self.theta_steps
        ks = tuple(self.k_values)
        bounds = _finite(lo) and _finite(hi)
        _check(("theta.min", "must be a finite number", _finite(lo)),
               ("theta.max", "must be a finite number", _finite(hi)),
               ("theta.max", "must exceed theta.min", not bounds or hi > lo),
               # linspace steps by (max - min), which must not overflow
               ("theta.max", "theta.max - theta.min must be a finite number",
                not bounds or _finite(hi - lo)),
               ("theta.steps", "must be an integer >= 2", _is_int(steps) and steps >= 2),
               ("theta.steps", f"must be <= {MAX_THETA_STEPS}",
                not _is_int(steps) or steps <= MAX_THETA_STEPS),
               *((f"k[{i}]", _POSITIVE, _positive(k)) for i, k in enumerate(ks)))
        object.__setattr__(self, "k_values", tuple(float(k) for k in ks))

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

def _num(x):
    # a document number as a float; anything else as NaN, which the types refuse
    return float(x) if _finite(x) else math.nan


def _block(value):
    # a missing or non-object block as {}, so that each of its fields is missing
    return value if isinstance(value, dict) else {}


def _object(errors, path, value):
    if not isinstance(value, dict):
        errors.append((path, "must be an object"))
        return None
    return value


def _build(errors, path, make, *args, **fields):
    """make(*args, **fields), with its FieldError pairs re-rooted under path."""
    try:
        return make(*args, **fields)
    except FieldError as exc:
        errors.extend((f"{path}.{f}", m) for f, m in exc.errors)
        return None


def validate_config(doc) -> Config:
    """Build validated domain objects from a parsed JSON document.

    The domain types check their own fields; this walks the document,
    names each of their errors by its document path, and adds what no
    single type can know. Every error is collected; one ConfigError
    reports them all. Beam amplitudes off unit norm by at most 1e-6 are
    renormalized; beyond that the beam refuses them.
    """
    if not isinstance(doc, dict):
        raise ConfigError([("", "configuration must be a JSON object")])
    errors = []

    mol = _block(doc.get("molecule"))
    alpha = _num(mol.get("alpha"))
    molecule = _build(errors, "molecule", Molecule,
                      atom_mass=_num(mol.get("mass")), half_separation=alpha)

    beam_doc = _block(doc.get("beam"))
    states = beam_doc.get("amplitudes")
    pairs = [(0, 1 + 0j)]  # the default, kept by a malformed list so k is still checked
    if isinstance(states, list):
        entries = [_object(errors, f"beam.amplitudes[{i}]", s) for i, s in enumerate(states)]
        if None not in entries:
            pairs = [(s.get("l"), complex(_num(s.get("re", 0.0)), _num(s.get("im", 0.0))))
                     for s in entries]
            errors += [(f"beam.amplitudes[{i}].l", f"state l = {l} needs molecule.alpha "
                        "> 0; a rotor with alpha = 0 has only l = 0")
                       for i, (l, a) in enumerate(pairs)
                       if alpha == 0.0 and _is_int(l) and l != 0 and a != 0]
    elif states is not None:
        errors.append(("beam.amplitudes", "must be a list of objects"))
    if all(abs(x) <= _AMP_MAX for _, a in pairs for x in (a.real, a.imag)):
        norm = math.fsum(abs(a) ** 2 for _, a in pairs)
        if NORM_KEEP < abs(norm - 1.0) <= NORM_FIX:
            r = 1.0 / math.sqrt(norm)
            pairs = [(l, a * r) for l, a in pairs]
    beam = _build(errors, "beam", IncidentBeam,
                  wavenumber=_num(beam_doc.get("k")), amplitudes=pairs)

    def shape_at(path, s):
        s = _object(errors, path, s)
        return None if s is None else _build(
            errors, path, PeakShape, variant=s.get("variant"),
            strength=_num(s.get("v0")), width=_num(s.get("delta")))

    def peak_at(path, pk):
        pk = _object(errors, path, pk)
        return None if pk is None else _build(
            errors, path, Peak, center_x=_num(pk.get("center")),
            shape=shape_at(path + ".shape", pk.get("shape")))

    potential = grating = None
    pot = _object(errors, "potential", doc.get("potential"))
    kind = None if pot is None else pot.get("kind")
    if kind == "peaks" and isinstance(pot.get("peaks"), list):
        before = len(errors)
        peaks = [peak_at(f"potential.peaks[{i}]", pk) for i, pk in enumerate(pot["peaks"])]
        if len(errors) == before:
            potential = _build(errors, "potential", PotentialSpec, peaks=peaks)
    elif kind == "peaks":
        errors.append(("potential.peaks", "must be a list of peaks"))
    elif kind == "grating":
        g = _object(errors, "potential.grating", pot.get("grating"))
        if g is not None:
            shape = shape_at("potential.grating.shape", g.get("shape"))
            n, d = g.get("n"), _num(g.get("d"))
            potential = _build(errors, "potential.grating", make_grating, n, d, shape)
            grating = (n, d)
    elif pot is not None:
        errors.append(("potential.kind", "must be 'peaks' or 'grating'"))

    engine = doc.get("engine", {"variant": "general"})
    variant = engine.get("variant") if isinstance(engine, dict) else None
    if variant not in ENGINE_VARIANTS:
        errors.append(("engine.variant", f"must be one of {list(ENGINE_VARIANTS)}"))

    scan = None
    s = _object(errors, "scan", doc["scan"]) if "scan" in doc else None
    if s is not None:
        ks = s.get("k", [])
        if not isinstance(ks, list):
            errors.append(("scan.k", "must be a list of numbers"))
            ks = []
        theta = _block(s.get("theta"))
        scan = _build(errors, "scan", ScanSpec, theta_min=_num(theta.get("min")),
                      theta_max=_num(theta.get("max")), theta_steps=theta.get("steps"),
                      k_values=[_num(k) for k in ks])

    if variant in _CHANNEL_ENGINES and molecule is not None and beam is not None:
        wavenumbers = [("beam.k", beam.wavenumber)]
        if scan is not None:
            wavenumbers += [(f"scan.k[{i}]", kv) for i, kv in enumerate(scan.k_values)]
        for path, kv in wavenumbers:
            # bound on |l_in - l_out| over the open channels at kv, with one
            # order of slack for the closed forms' even rounding
            reach = max(abs(l) + math.hypot(l, kv * alpha) + 2.0 for l in beam.amplitudes)
            if reach > ORDER_CAP:
                errors.append((path, f"with molecule.alpha = {alpha!r} the channels "
                               f"reach Bessel order {reach:.6g}, beyond the "
                               f"supported cap {ORDER_CAP}"))

    if errors:
        raise ConfigError(errors)
    return Config(molecule=molecule, beam=beam, potential=potential,
                  engine_variant=variant, scan=scan, grating=grating)


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

    def shape(s):
        return {"variant": s.variant, "v0": s.strength, "delta": s.width}

    if config.grating is not None:
        n, d = config.grating
        doc["potential"] = {"kind": "grating", "grating": {
            "n": n, "d": d, "shape": shape(config.potential.peaks[0].shape)}}
    else:
        doc["potential"] = {"kind": "peaks", "peaks": [
            {"center": p.center_x, "shape": shape(p.shape)}
            for p in config.potential.peaks]}
    if config.scan is not None:
        doc["scan"] = {"theta": {"min": config.scan.theta_min,
                                 "max": config.scan.theta_max,
                                 "steps": config.scan.theta_steps},
                       "k": list(config.scan.k_values)}
    return doc
