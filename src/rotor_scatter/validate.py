"""Self-check battery behind the `validate` subcommand.

Each check reports its worst observed deviation against the tolerance it
must meet. Checks are deterministic: fixed seeds, fixed grids, no wall
clock anywhere.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import specfun
from .born import (
    matrix_element,
    profile_closed,
    profile_general,
    profile_structureless,
    structureless_counterpart,
)
from .kinematics import open_channels, outgoing_wavenumber
from .model import (
    GAUSSIAN,
    POLYNOMIAL_GAUSSIAN,
    IncidentBeam,
    Molecule,
    Peak,
    PeakShape,
    PotentialSpec,
)
from .oracle import QuadratureSpec, ft_numeric, matrix_element_quadrature
from .potentials import ft_peak, make_grating

__all__ = ["CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool

    def __post_init__(self):
        # checks may compute with numpy scalars; store plain Python values
        # so every writer (JSON, CSV, text) can serialize them
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "passed", bool(self.passed))

    def as_dict(self) -> dict:
        return {"name": self.name, "worst": self.worst, "tol": self.tol,
                "passed": self.passed}


# (worst observed deviation, tolerance): a check passes when worst <= tol
Outcome = Tuple[float, float]


def _gauss(v0=1.0, delta=1.0) -> PeakShape:
    return PeakShape(variant=GAUSSIAN, strength=v0, width=delta)


def _poly(v0=1.0, delta=1.0) -> PeakShape:
    return PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=v0, width=delta)


def _worst_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    mask = scale > 0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / scale[mask]))


def _check_bessel_reflection() -> Outcome:
    ns, xs = np.meshgrid(np.arange(1, 9), (0.0, 0.3, 1.5, 7.2, 40.1, 400.0))
    ns, xs = ns.ravel(), xs.ravel()
    lhs = specfun.bessel_j_grid(-ns, xs)
    rhs = (-1.0) ** ns * specfun.bessel_j_grid(ns, xs)
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst, 0.0


def _check_bessel_sum_squares() -> Outcome:
    worst = 0.0
    for x in (1.0, 10.0, 100.0, 1000.0):
        n_max = int(x) + 60
        js = specfun.bessel_j_batch(n_max, x)
        total = js[0] ** 2 + 2.0 * math.fsum(j * j for j in js[1:])
        worst = max(worst, abs(total - 1.0))
    return worst, 1e-10


def _check_bessel_recurrence() -> Outcome:
    worst = 0.0
    for x in (0.1, 0.9, 3.7, 21.5, 150.3):
        js = specfun.bessel_j_batch(42, x)
        for n in range(1, 41):
            resid = abs(js[n - 1] + js[n + 1] - (2.0 * n / x) * js[n])
            worst = max(worst, resid / max(1.0, abs(js[n])))
    return worst, 1e-10


def _check_bessel_first_zero() -> Outcome:
    worst = abs(specfun.bessel_j(0, 2.404825557695773))
    return worst, 1e-12


def _ft_check(shape_of: Callable[[float], PeakShape],
              q_deltas: Tuple[float, ...]) -> Outcome:
    worst = 0.0
    for delta in (1.0, 2.5):
        shape = shape_of(delta)
        for qd in q_deltas:
            q = qd / delta
            q_x, q_y = 0.6 * q, 0.8 * q
            exact = ft_peak(shape, math.sqrt(q_x * q_x + q_y * q_y))
            quad = QuadratureSpec()
            if qd >= 8.0 and exact != 0.0:
                # deep in the Gaussian tail the integral cancels almost
                # completely; push the quadrature target below the result
                quad = QuadratureSpec(abs_tol=1e-10 * abs(exact))
            approx = ft_numeric(shape, q_x, q_y, quad).real
            scale = max(abs(exact), abs(approx))
            if scale > 0.0:
                worst = max(worst, abs(exact - approx) / scale)
    return worst, 1e-8


def _check_ft_gaussian() -> Outcome:
    return _ft_check(lambda d: _gauss(1.3, d), (0.0, 1.5, 4.0, 8.0, 12.0))


def _check_ft_polynomial_gaussian() -> Outcome:
    return _ft_check(lambda d: _poly(0.9, d), (1.0, 4.0, 8.0, 12.0))


def _check_me_oracle() -> Outcome:
    rng = random.Random(97)
    worst = 0.0
    draws = 0
    while draws < 40:
        k = rng.uniform(0.5, 5.0)
        alpha = rng.uniform(0.5, 3.0)
        delta = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0.05, 3.0)
        l_out = rng.choice((0, 2, 4)) * rng.choice((1, -1))
        mol = Molecule(atom_mass=1.0, half_separation=alpha)
        kappa = outgoing_wavenumber(k, 0, l_out, mol)
        if kappa is None:
            continue
        draws += 1
        d = rng.uniform(0.5, 4.0)
        shape = _gauss(1.0, delta) if draws % 2 else _poly(1.0, delta)
        spec = PotentialSpec(peaks=(Peak(d, shape), Peak(-d, _gauss(1.0, delta))))
        a = matrix_element(spec, mol, k, theta, 0, l_out, kappa)
        b = matrix_element_quadrature(spec, mol, k, theta, 0, l_out, kappa)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-3))
    return worst, 1e-10


_EQUIV_THETAS = np.linspace(-math.pi / 2, math.pi / 2, 101)
_EQUIV_KS = (0.5, 2.0, 10.0)


def _equiv_internal(variant: str, spec: PotentialSpec, alpha: float,
                    **kw) -> Outcome:
    mol = Molecule(atom_mass=1.0, half_separation=alpha)
    worst = 0.0
    for k in _EQUIV_KS:
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        pg = profile_general(_EQUIV_THETAS, mol, beam, spec)
        pc = profile_closed(variant, _EQUIV_THETAS, mass=1.0, k=k,
                            alpha=alpha, **kw)
        worst = max(worst, _worst_rel(pg.sigma, pc.sigma))
    return worst, 1e-12


def _equiv_structureless(variant: str, spec: PotentialSpec,
                         **kw) -> Outcome:
    worst = 0.0
    for k in _EQUIV_KS:
        ps = profile_structureless(_EQUIV_THETAS, 2.0, k, spec)
        pc = profile_closed(variant, _EQUIV_THETAS, mass=1.0, k=k, **kw)
        worst = max(worst, _worst_rel(ps.sigma, pc.sigma))
    return worst, 1e-12


def _check_equiv_two_gaussian() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(2.0, _gauss()), Peak(-2.0, _gauss())))
    return _equiv_internal("closed_two_gaussian", spec,
                           alpha=1.0, v0=1.0, delta=1.0, d=2.0)


def _check_equiv_grating() -> Outcome:
    spec = make_grating(3, 1.3, _gauss())
    return _equiv_internal("closed_grating", spec,
                           alpha=0.61, v0=1.0, delta=1.0, d=1.3, half_count=3)


def _check_equiv_mixed() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(7.0, _poly(1.0, 0.09)),
                                Peak(-7.0, _gauss(1.0, 0.09))))
    return _equiv_internal("closed_mixed", spec,
                           alpha=0.7, v0=1.0, delta=0.09, d=7.0)


def _check_equiv_structureless_two_gaussian() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(2.0, _gauss(2.0)), Peak(-2.0, _gauss(2.0))))
    return _equiv_structureless("closed_structureless_two_gaussian", spec,
                                v0=1.0, delta=1.0, d=2.0)


def _check_equiv_structureless_grating() -> Outcome:
    spec = make_grating(3, 1.3, _gauss(4.0))
    return _equiv_structureless("closed_structureless_grating", spec,
                                v0=1.0, delta=1.0, d=1.3, half_count=3)


def _check_equiv_structureless_mixed() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(4.0, _poly(2.0, 1.5)),
                                Peak(-4.0, _gauss(2.0, 1.5))))
    return _equiv_structureless("closed_structureless_mixed", spec,
                                v0=1.0, delta=1.5, d=4.0)


def _check_structureless_limit() -> Outcome:
    mol = Molecule(atom_mass=1.0, half_separation=1e-8)
    spec = PotentialSpec(peaks=(Peak(2.0, _gauss()), Peak(-2.0, _gauss())))
    mass2, spec2 = structureless_counterpart(mol, spec)
    th = np.linspace(-math.pi / 2, math.pi / 2, 61)
    worst = 0.0
    for k in (0.5, 5.0):
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        pg = profile_general(th, mol, beam, spec)
        ps = profile_structureless(th, mass2, k, spec2)
        worst = max(worst, _worst_rel(pg.sigma, ps.sigma))
    return worst, 1e-6


def _check_parity_threshold() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(2.0, _gauss()), Peak(-2.0, _gauss())))
    mol = Molecule(atom_mass=1.0, half_separation=1.0)
    worst = 0.0
    for l_in, l_out in ((0, 1), (0, -1), (0, 3), (2, -1)):
        me = matrix_element(spec, mol, 3.0, 0.7, l_in, l_out, 2.5)
        worst = max(worst, abs(me))
    # marginal channel kappa = 0 at k*alpha = |l'| must stay closed
    beam = IncidentBeam(wavenumber=2.0, amplitudes={0: 1.0})
    channels = {(c.l_in, c.l_out) for c in open_channels(beam, mol)}
    if channels != {(0, 0)}:
        worst = max(worst, 1.0)
    return worst, 0.0


def _forward_sigma(spec: PotentialSpec) -> float:
    # a profile needs two ascending samples; theta = 0 is the first
    return float(profile_structureless(np.array([0.0, 0.1]), 1.0, 1.0, spec).sigma[0])


def _check_grating_forward_scaling() -> Outcome:
    shape = _gauss()
    base = _forward_sigma(make_grating(0, 3.0, shape))
    worst = 0.0
    for n in (1, 2, 10):
        sig = _forward_sigma(make_grating(n, 3.0, shape))
        expect = (2 * n + 1) ** 2
        worst = max(worst, abs(sig / base - expect) / expect)
    return worst, 1e-9


def _check_mirror_symmetry() -> Outcome:
    spec = PotentialSpec(peaks=(Peak(4.0, _poly(1.0, 1.5)),
                                Peak(-4.0, _gauss(1.0, 1.5))))
    mol = Molecule(atom_mass=1.0, half_separation=2.5)
    th = np.linspace(0.05, 1.5, 40)
    worst = 0.0
    for k in (1.0, 3.0):
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 0.6, 2: 0.8})
        fwd = profile_general(th, mol, beam, spec)
        bwd = profile_general(-th[::-1], mol, beam, spec)
        worst = max(worst, _worst_rel(fwd.sigma, bwd.sigma[::-1]))
    return worst, 1e-12


_CHECKS: Tuple[Tuple[str, Callable[[], Outcome]], ...] = (
    ("bessel-reflection", _check_bessel_reflection),
    ("bessel-sum-squares", _check_bessel_sum_squares),
    ("bessel-recurrence", _check_bessel_recurrence),
    ("bessel-first-zero", _check_bessel_first_zero),
    ("ft-gaussian", _check_ft_gaussian),
    ("ft-polynomial-gaussian", _check_ft_polynomial_gaussian),
    ("me-oracle", _check_me_oracle),
    ("equiv-two-gaussian", _check_equiv_two_gaussian),
    ("equiv-grating", _check_equiv_grating),
    ("equiv-mixed", _check_equiv_mixed),
    ("equiv-structureless-two-gaussian", _check_equiv_structureless_two_gaussian),
    ("equiv-structureless-grating", _check_equiv_structureless_grating),
    ("equiv-structureless-mixed", _check_equiv_structureless_mixed),
    ("structureless-limit", _check_structureless_limit),
    ("parity-threshold", _check_parity_threshold),
    ("grating-forward-scaling", _check_grating_forward_scaling),
    ("mirror-symmetry", _check_mirror_symmetry),
)


def check_names() -> List[str]:
    return [name for name, _ in _CHECKS]


def run_checks(only: Optional[str] = None) -> List[CheckResult]:
    """Run all checks, or those whose name starts with `only`."""
    chosen = [(n, f) for n, f in _CHECKS if only is None or n.startswith(only)]
    if not chosen:
        raise ValueError(f"no check matches prefix {only!r}")
    results = []
    for name, check in chosen:
        worst, tol = check()
        results.append(CheckResult(name, worst, tol, worst <= tol))
    return results
