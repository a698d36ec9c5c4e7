"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance here is a contract; loosening one is a release decision,
not a test fix.
"""

import hashlib
import json
import math
import pathlib
import random
import time

import numpy as np
import pytest

from rotor_scatter import analysis, specfun
from rotor_scatter.born import (
    matrix_element,
    profile_closed,
    profile_general,
    profile_structureless,
    structureless_counterpart,
)
from rotor_scatter.cli import main as cli_main
from rotor_scatter.kinematics import open_channels, outgoing_wavenumber
from rotor_scatter.model import (
    GAUSSIAN,
    POLYNOMIAL_GAUSSIAN,
    IncidentBeam,
    Molecule,
    Peak,
    PeakShape,
    PotentialSpec,
    make_grating,
)
from rotor_scatter.oracle import QuadratureSpec, ft_numeric, matrix_element_quadrature
from rotor_scatter.potentials import ft_peak

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "tests" / "goldens.json").read_text())


def gauss(v0=1.0, delta=1.0):
    return PeakShape(variant=GAUSSIAN, strength=v0, width=delta)


def poly(v0=1.0, delta=1.0):
    return PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=v0, width=delta)


def worst_rel(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    mask = scale > 0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))[mask] / scale[mask]))


def verdict(num, label, worst, tol, extra=""):
    ok = worst <= tol
    tail = f" {extra}" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: "
          f"worst {worst:.3e} vs tol {tol:.0e}{tail}")
    assert ok, f"criterion {num:02d} {label}: {worst:.3e} > {tol:.0e}"


def test_criterion_01_matrix_element_vs_quadrature():
    rng = random.Random(20260816)
    t0 = time.perf_counter()
    draws = 0
    worst = 0.0
    while draws < 520:
        k = rng.uniform(0.5, 5.0)
        mol = Molecule(atom_mass=rng.uniform(0.5, 2.0),
                       half_separation=rng.uniform(0.5, 3.0))
        l_out = rng.choice((0, 2, 4)) * rng.choice((1, -1))
        kappa = outgoing_wavenumber(k, 0, l_out, mol)
        if kappa is None:
            continue
        draws += 1
        theta = rng.uniform(0.05, 3.0)
        d = rng.uniform(0.5, 4.0)
        delta = rng.uniform(0.5, 3.0)
        first = gauss(1.0, delta) if draws % 2 else poly(1.0, delta)
        spec = PotentialSpec(peaks=(Peak(d, first), Peak(-d, gauss(1.0, delta))))
        a = matrix_element(spec, mol, k, theta, 0, l_out, kappa)
        b = matrix_element_quadrature(spec, mol, k, theta, 0, l_out, kappa)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    verdict(1, "matrix element vs quadrature (520 draws)", worst, 1e-10,
            extra=f"({elapsed:.2f}s)")


def test_criterion_02_peak_transforms_vs_numeric():
    worst = 0.0
    cases = [(gauss, (0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)),
             (poly, (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0))]
    for make, q_deltas in cases:
        for delta in (1.0, 2.5):
            shape = make(1.1, delta)
            for qd in q_deltas:
                q = qd / delta
                q_x, q_y = 0.6 * q, 0.8 * q
                exact = ft_peak(shape, math.hypot(q_x, q_y))
                quad = QuadratureSpec()
                if qd >= 8.0 and exact != 0.0:
                    quad = QuadratureSpec(abs_tol=1e-10 * abs(exact))
                approx = ft_numeric(shape, q_x, q_y, quad).real
                scale = max(abs(exact), abs(approx))
                if scale > 0.0:
                    worst = max(worst, abs(exact - approx) / scale)
    verdict(2, "analytic peak transforms", worst, 1e-8)


_FULL_THETAS = np.linspace(-math.pi / 2, math.pi / 2, 201)
_FULL_KS = (0.5, 1.0, 2.0, 5.0, 10.0)


def _internal_equiv(variant, spec, alpha, **kw):
    mol = Molecule(atom_mass=1.0, half_separation=alpha)
    worst = 0.0
    for k in _FULL_KS:
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        pg = profile_general(_FULL_THETAS, mol, beam, spec)
        pc = profile_closed(variant, _FULL_THETAS, mass=1.0, k=k,
                            alpha=alpha, **kw)
        worst = max(worst, worst_rel(pg.sigma, pc.sigma))
    return worst


def _structureless_equiv(variant, spec, **kw):
    worst = 0.0
    for k in _FULL_KS:
        ps = profile_structureless(_FULL_THETAS, 2.0, k, spec)
        pc = profile_closed(variant, _FULL_THETAS, mass=1.0, k=k, **kw)
        worst = max(worst, worst_rel(ps.sigma, pc.sigma))
    return worst


def test_criterion_03_closed_form_specializations():
    worst = max(
        _internal_equiv(
            "closed_two_gaussian",
            PotentialSpec(peaks=(Peak(2.0, gauss()), Peak(-2.0, gauss()))),
            alpha=1.0, v0=1.0, delta=1.0, d=2.0),
        _internal_equiv(
            "closed_grating", make_grating(3, 1.3, gauss()),
            alpha=0.61, v0=1.0, delta=1.0, d=1.3, half_count=3),
        _internal_equiv(
            "closed_mixed",
            PotentialSpec(peaks=(Peak(7.0, poly(1.0, 0.09)),
                                 Peak(-7.0, gauss(1.0, 0.09)))),
            alpha=0.7, v0=1.0, delta=0.09, d=7.0),
        _structureless_equiv(
            "closed_structureless_two_gaussian",
            PotentialSpec(peaks=(Peak(2.0, gauss(2.0)), Peak(-2.0, gauss(2.0)))),
            v0=1.0, delta=1.0, d=2.0),
        _structureless_equiv(
            "closed_structureless_grating", make_grating(3, 1.3, gauss(4.0)),
            v0=1.0, delta=1.0, d=1.3, half_count=3),
        _structureless_equiv(
            "closed_structureless_mixed",
            PotentialSpec(peaks=(Peak(4.0, poly(2.0, 1.5)),
                                 Peak(-4.0, gauss(2.0, 1.5)))),
            v0=1.0, delta=1.5, d=4.0),
    )
    verdict(3, "six closed-form specializations", worst, 1e-12)


def test_criterion_04_pointlike_rotor_limit():
    mol = Molecule(atom_mass=1.0, half_separation=1e-8)
    spec = PotentialSpec(peaks=(Peak(2.0, gauss()), Peak(-2.0, gauss())))
    mass2, spec2 = structureless_counterpart(mol, spec)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 101)
    worst = 0.0
    for k in _FULL_KS:
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        pg = profile_general(thetas, mol, beam, spec)
        ps = profile_structureless(thetas, mass2, k, spec2)
        worst = max(worst, worst_rel(pg.sigma, ps.sigma))
    verdict(4, "pointlike rotor limit", worst, 1e-6)


def test_criterion_05_wide_peaks_preserve_rotor_state():
    # width/arm = 100 and k*width = 20: momentum kicks too soft to excite
    mol = Molecule(atom_mass=1.0, half_separation=0.02)
    beam = IncidentBeam(wavenumber=10.0, amplitudes={2: 1.0})
    spec = PotentialSpec(peaks=(Peak(4.0, gauss(1.0, 2.0)),
                                Peak(-4.0, gauss(1.0, 2.0))))
    prof = profile_general(np.linspace(-0.5, 0.5, 201), mol, beam, spec)
    diagonal = prof.per_channel[(2, 2)]
    share = float(np.max((prof.sigma - diagonal) / prof.sigma))
    verdict(5, "wide peaks keep the rotor state", share, 1e-6)


def test_criterion_06_parity_and_threshold():
    mol = Molecule(atom_mass=1.0, half_separation=1.0)
    spec = PotentialSpec(peaks=(Peak(1.5, gauss()), Peak(-1.5, poly())))
    worst = 0.0
    for l_out in (-3, -1, 1, 3, 5):
        for theta in (0.0, 0.4, 1.2):
            kappa = outgoing_wavenumber(4.0, 0, l_out, mol)
            me = matrix_element(spec, mol, 4.0, theta, 0, l_out, kappa)
            worst = max(worst, abs(me))
    at_threshold = open_channels(IncidentBeam(2.0, {0: 1.0}), mol)
    above = open_channels(IncidentBeam(2.0 + 1e-9, {0: 1.0}), mol)
    pairs = {(c.l_in, c.l_out) for c in at_threshold}
    assert pairs == {(0, 0)}, f"marginal channel leaked in: {pairs}"
    assert {(c.l_in, c.l_out) for c in above} == {(0, 0), (0, 2), (0, -2)}
    verdict(6, "parity zeros and threshold exclusion", worst, 0.0)


def test_criterion_07_grating_fringe_spacing():
    t0 = time.perf_counter()
    spec = make_grating(50, 1.0, gauss())
    thetas = np.linspace(0.0, 5e-5, 100_000)
    prof = profile_structureless(thetas, 1.0, 1e4, spec)
    got = analysis.peak_spacing(prof, near_theta=2.5e-5, count=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    worst = abs(got - 6.22e-6) / 6.22e-6
    verdict(7, "fine fringe spacing at k=1e4", worst, 1e-1,
            extra=f"(spacing {got:.4e}, {elapsed:.2f}s)")


def test_criterion_08_forward_coherent_scaling():
    mol = Molecule(atom_mass=1.0, half_separation=1.0)
    beam = IncidentBeam(wavenumber=2.0, amplitudes={0: 1.0})
    thetas = np.array([0.0, 0.1])  # forward is the first sample

    def forward(spec):
        return profile_general(thetas, mol, beam, spec).sigma[0]

    single = forward(PotentialSpec(peaks=(Peak(0.0, gauss()),)))
    worst = 0.0
    for n in (1, 2, 10):
        total = forward(make_grating(n, 3.0, gauss()))
        expected = float(2 * n + 1) ** 2
        worst = max(worst, abs(total / single - expected) / expected)
    verdict(8, "forward scaling with peak count", worst, 1e-9)


def _run_dir(out_root, sub):
    dirs = sorted(pathlib.Path(out_root).glob(f"{sub}_*"))
    assert len(dirs) == 1
    return dirs[0]


def test_criterion_09_figure_regression(tmp_path):
    out = tmp_path / "fig4"
    assert cli_main(["compare", "--config", str(ROOT / "configs/fig4.json"),
                     "--out", str(out), "--format", "json"]) == 0
    report = json.loads((_run_dir(out, "compare") / "compare.json")
                        .read_text())["reports"][0]
    golden = GOLDENS["fig4"]
    assert report["suppression_ratio"] < 1.0
    assert report["suppression_ratio"] == golden["suppression_ratio"]
    assert report["visibility_with"] == golden["visibility_with"]
    worst = abs(report["visibility_without"] - golden["visibility_without"])
    worst = max(worst, abs(report["window"][0] - golden["window"][0]),
                abs(report["window"][1] - golden["window"][1]))
    stale = []
    for stem, want in sorted(GOLDENS["sweep_sha256"].items()):
        out = tmp_path / stem
        assert cli_main(["sweep", "--config",
                         str(ROOT / f"configs/{stem}.json"),
                         "--out", str(out), "--format", "csv"]) == 0
        payload = (_run_dir(out, "sweep") / "sweep.csv").read_bytes()
        if hashlib.sha256(payload).hexdigest() != want:
            stale.append(stem)
    assert not stale, f"sweep matrices drifted: {stale}"
    verdict(9, "figure regression vs goldens", worst, 1e-10,
            extra=f"(ratio {report['suppression_ratio']}, 5 sweeps stable)")


def test_criterion_10_bessel_battery():
    worst = 0.0
    for x in (1.0, 10.0, 100.0, 1000.0):
        n_max = int(x) + 60
        js = specfun.bessel_j_batch(n_max, x)
        total = js[0] ** 2 + 2.0 * math.fsum(j * j for j in js[1:])
        worst = max(worst, abs(total - 1.0))
    ns, xs = np.meshgrid(np.arange(1, 9), (0.0, 0.3, 1.5, 7.2, 40.1, 400.0))
    ns, xs = ns.ravel(), xs.ravel()
    lhs = specfun.bessel_j_grid(-ns, xs)
    rhs = (-1.0) ** ns * specfun.bessel_j_grid(ns, xs)
    broke = [(int(n), float(x)) for n, x, a, b in zip(ns, xs, lhs, rhs) if a != b]
    assert not broke, f"reflection broke at (n, x) = {broke}"
    zero_resid = abs(specfun.bessel_j(0, 2.404825557695773))
    assert zero_resid <= 1e-12, f"first root residual {zero_resid:.3e}"
    verdict(10, "cylinder function battery", worst, 1e-10,
            extra=f"(root residual {zero_resid:.1e})")
