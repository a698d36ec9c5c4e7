"""Independent quadrature oracles and their architectural isolation."""

import ast
import math
import pathlib

import pytest

from rotor_scatter.born import matrix_element
from rotor_scatter.model import GAUSSIAN, POLYNOMIAL_GAUSSIAN, Molecule, Peak, PeakShape, PotentialSpec
from rotor_scatter.oracle import (
    NODE_CAP,
    OracleConvergenceError,
    QuadratureSpec,
    ft_numeric,
    matrix_element_quadrature,
)
from rotor_scatter.potentials import ft_peak


GAUSS11 = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)
TWO_SLIT = PotentialSpec(peaks=(Peak(2.0, GAUSS11), Peak(-2.0, GAUSS11)))


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.node_count == 64 and q.radial_cutoff == 12.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=100)
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=32)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)


class TestMatrixElementQuadrature:
    def test_forward_elastic_tiny_rotor(self):
        # rotor arm -> 0 makes the orientation average trivial: the
        # amplitude collapses to the potential transform over pi
        mol = Molecule(atom_mass=1.0, half_separation=1e-12)
        me = matrix_element_quadrature(TWO_SLIT, mol, 1.0, 0.0, 0, 0, 1.0)
        assert me.real == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert me.imag == pytest.approx(0.0, abs=1e-15)

    def test_odd_transfer_vanishes(self):
        mol = Molecule(atom_mass=1.0, half_separation=1.3)
        me = matrix_element_quadrature(TWO_SLIT, mol, 2.0, 0.7, 0, 1, 1.8)
        assert abs(me) < 1e-13

    def test_matches_analytic_form(self):
        # the engine's amplitude: phase * bessel * transform / pi
        mol = Molecule(atom_mass=1.0, half_separation=1.1)
        k, theta, kappa = 1.0, math.pi / 2, 1.0
        for n in (0, 2, -4):
            me = matrix_element_quadrature(TWO_SLIT, mol, k, theta, n, 0, kappa)
            expect = matrix_element(TWO_SLIT, mol, k, theta, n, 0, kappa)
            assert me == pytest.approx(expect, rel=1e-10, abs=1e-13)

    def test_polynomial_peak_channel(self):
        spec = PotentialSpec(peaks=(Peak(1.0, PeakShape(variant=POLYNOMIAL_GAUSSIAN,
                                                        strength=0.8, width=1.4)),))
        mol = Molecule(atom_mass=1.0, half_separation=0.9)
        k, theta, kappa = 2.0, 0.4, 1.6
        me = matrix_element_quadrature(spec, mol, k, theta, 2, 0, kappa)
        expect = matrix_element(spec, mol, k, theta, 2, 0, kappa)
        assert me == pytest.approx(expect, rel=1e-10, abs=1e-13)

    def test_start_resolution_does_not_matter(self):
        mol = Molecule(atom_mass=1.0, half_separation=1.1)
        a = matrix_element_quadrature(TWO_SLIT, mol, 1.5, 0.8, 0, 2, 1.0,
                                      QuadratureSpec(node_count=64))
        b = matrix_element_quadrature(TWO_SLIT, mol, 1.5, 0.8, 0, 2, 1.0,
                                      QuadratureSpec(node_count=512))
        assert a == pytest.approx(b, rel=1e-11, abs=1e-14)

    def test_unresolvable_oscillation_raises(self):
        # rotor arm so long the angular integrand cannot be resolved
        # within the node cap
        mol = Molecule(atom_mass=1.0, half_separation=1e8)
        with pytest.raises(OracleConvergenceError):
            matrix_element_quadrature(TWO_SLIT, mol, 1.0, 0.3, 0, 0, 1.0)

    def test_rejects_bad_kinematics(self):
        mol = Molecule(atom_mass=1.0, half_separation=1.0)
        with pytest.raises(ValueError):
            matrix_element_quadrature(TWO_SLIT, mol, 0.0, 0.3, 0, 0, 1.0)


class TestFtNumeric:
    def test_gaussian_against_analytic(self):
        for qx, qy in ((0.0, 0.0), (0.7, -0.4), (2.0, 1.0)):
            q = math.hypot(qx, qy)
            val = ft_numeric(GAUSS11, qx, qy)
            assert val.imag == 0.0
            assert val.real == pytest.approx(ft_peak(GAUSS11, q), rel=1e-10)

    def test_polynomial_against_analytic(self):
        shape = PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=1.0, width=1.0)
        val = ft_numeric(shape, 2.0, 0.0)
        assert val.real == pytest.approx(0.5 * math.exp(-1.0), rel=1e-10)
        # and the sign of the lobe beyond the zero crossing
        assert ft_numeric(shape, 0.0, 0.0).real == pytest.approx(0.0, abs=1e-13)

    def test_strong_cancellation_regime(self):
        # q*width = 12: the true value sits 60+ digits below the integrand
        shape = PeakShape(variant=GAUSSIAN, strength=1.0, width=2.0)
        q = 6.0
        tol = QuadratureSpec(abs_tol=1e-10 * ft_peak(shape, q))
        val = ft_numeric(shape, q, 0.0, tol)
        assert val.real == pytest.approx(ft_peak(shape, q), rel=1e-8)

    def test_anisotropic_argument(self):
        val = ft_numeric(GAUSS11, 3.0, 4.0)
        assert val.real == pytest.approx(ft_peak(GAUSS11, 5.0), rel=1e-10)


def test_oracle_imports_only_domain_types():
    # the module must stay decoupled from every production formula path
    src = pathlib.Path("src/rotor_scatter/oracle.py").read_text()
    tree = ast.parse(src)
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level > 0 or node.module.startswith("rotor_scatter")):
            internal.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rotor_scatter"):
                    internal.add(alias.name.split(".")[-1])
    assert internal == {"model"}
