"""Engine cross checks: anchors, symmetries, closed-form agreement."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_scatter import born, specfun
from rotor_scatter.born import (
    UnsupportedVariantError,
    matrix_element,
    profile_closed,
    profile_general,
    profile_structureless,
    structureless_counterpart,
)
from rotor_scatter.model import (
    CLOSED_TWINS,
    GAUSSIAN,
    POLYNOMIAL_GAUSSIAN,
    IncidentBeam,
    Molecule,
    Peak,
    PeakShape,
    PotentialSpec,
)
from rotor_scatter.oracle import matrix_element_quadrature
from rotor_scatter.kinematics import angle_grid, geometry_grid, open_channels
from rotor_scatter.potentials import ft_total_grid, make_grating


def gauss(v0, delta):
    return PeakShape(variant=GAUSSIAN, strength=v0, width=delta)


def poly(v0, delta):
    return PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=v0, width=delta)


TWO_SLIT = PotentialSpec(peaks=(Peak(2.0, gauss(1, 1)), Peak(-2.0, gauss(1, 1))))
TINY_ROTOR = Molecule(atom_mass=1.0, half_separation=1e-12)
UNIT_ROTOR = Molecule(atom_mass=1.0, half_separation=1.0)
BEAM1 = IncidentBeam(wavenumber=1.0, amplitudes={0: 1.0})


def at_angle(make_profile, theta):
    """(sigma, per_channel) at one angle, from a two-sample grid starting
    there (a profile needs two ascending samples)."""
    p = make_profile(np.array([theta, theta + 1e-3]))
    per = {key: arr[0] for key, arr in (p.per_channel or {}).items()}
    return p.sigma[0], per


def cross_section_general(theta, molecule, beam, spec):
    return at_angle(lambda th: profile_general(th, molecule, beam, spec), theta)


def cross_section_structureless(theta, mass, k, spec):
    return at_angle(lambda th: profile_structureless(th, mass, k, spec), theta)[0]


def cross_section_closed(variant, theta, **kw):
    return at_angle(lambda th: profile_closed(variant, th, **kw), theta)[0]


def amplitude_sum(theta, molecule, beam, spec, amplitude=matrix_element):
    """sigma and its channel terms at one angle from a complex amplitude:
    prefactor * |psi_l|^2 * |amplitude|^2 per open even channel."""
    c = (2.0 * math.pi) ** 3 * 4.0 * molecule.atom_mass ** 2 / beam.wavenumber
    per = {}
    for ch in born.open_channels(beam, molecule):
        me = amplitude(spec, molecule, beam.wavenumber, theta, ch.l_in,
                       ch.l_out, ch.kappa)
        per[(ch.l_in, ch.l_out)] = c * ch.weight * abs(me) ** 2
    return math.fsum(per.values()), per


class TestMatrixElement:
    def test_odd_transfer_is_exact_zero(self):
        for l_in, l_out in ((0, 1), (0, -3), (2, 1), (-1, 2)):
            me = matrix_element(TWO_SLIT, UNIT_ROTOR, 2.0, 0.7, l_in, l_out, 1.5)
            assert me == 0j

    def test_forward_anchor(self):
        me = matrix_element(TWO_SLIT, TINY_ROTOR, 1.0, 0.0, 0, 0, 1.0)
        assert me.real == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert me.imag == 0.0

    def test_uses_bessel_through_module_attribute(self, monkeypatch):
        # a broken special function must be visible downstream; this guards
        # against the engines quietly swapping in another evaluator
        monkeypatch.setattr(specfun, "bessel_j_grid", lambda n, xs: np.zeros_like(xs))
        me = matrix_element(TWO_SLIT, UNIT_ROTOR, 1.0, 0.3, 0, 0, 1.0)
        assert me == 0j

    def test_phase_angle_convention(self):
        # mu = atan2(-q_x, -q_y) enters as exp(-i n mu); a single centred
        # Gaussian has a real positive transform and J_2(alpha |q|) > 0
        # for a short arm, so the amplitude's phase is exactly -2 mu
        spec = PotentialSpec(peaks=(Peak(0.0, gauss(1, 1)),))
        mol = Molecule(atom_mass=1.0, half_separation=0.1)
        side = matrix_element(spec, mol, 1.0, math.pi / 2, 2, 0, 1.0)
        assert side.imag > 0 and abs(side.real) <= 1e-15 * abs(side)  # mu = 3pi/4
        ahead = matrix_element(spec, mol, 2.0, 0.0, 2, 0, 1.0)
        assert ahead.real > 0 and abs(ahead.imag) <= 1e-15 * abs(ahead)  # mu = pi
        for theta in (0.3, 1.1, 2.9):
            q_x = -1.5 * math.sin(theta)
            q_y = 2.0 - 1.5 * math.cos(theta)
            me = matrix_element(spec, mol, 2.0, theta, 2, 0, 1.5)
            assert cmath.phase(me) == pytest.approx(
                cmath.phase(cmath.exp(-2j * math.atan2(-q_x, -q_y))), abs=1e-14)

    def test_phase_convention_cancels_in_cross_section(self, monkeypatch):
        # moving the angular origin of the momentum-transfer phase (here to
        # mu = 0 at every angle) must leave every |amplitude|^2 unchanged
        beam = IncidentBeam(wavenumber=2.5, amplitudes={0: 1.0})
        base, _ = amplitude_sum(0.8, UNIT_ROTOR, beam, TWO_SLIT)
        monkeypatch.setattr(born, "Q_DEGENERATE", math.inf)
        moved, _ = amplitude_sum(0.8, UNIT_ROTOR, beam, TWO_SLIT)
        assert moved == pytest.approx(base, rel=1e-13)


class TestCrossSectionGeneral:
    def test_forward_anchor_32pi(self):
        sigma, per = cross_section_general(0.0, TINY_ROTOR, BEAM1, TWO_SLIT)
        assert sigma == pytest.approx(32 * math.pi, rel=1e-14)
        assert set(per) == {(0, 0)}

    def test_breakdown_sums_to_total(self):
        beam = IncidentBeam(wavenumber=4.2, amplitudes={0: 0.6, 2: 0.8})
        sigma, per = cross_section_general(0.5, UNIT_ROTOR, beam, TWO_SLIT)
        assert sigma == pytest.approx(math.fsum(per.values()), rel=1e-15)
        assert all(v >= 0.0 for v in per.values())
        assert all((li - lo) % 2 == 0 for li, lo in per)

    def test_mirror_symmetry(self):
        beam = IncidentBeam(wavenumber=2.5, amplitudes={0: 1.0})
        for th in (0.3, 0.9, 1.4):
            a, _ = cross_section_general(th, UNIT_ROTOR, beam, TWO_SLIT)
            b, _ = cross_section_general(-th, UNIT_ROTOR, beam, TWO_SLIT)
            assert a == pytest.approx(b, rel=1e-12)

    @given(k=st.floats(0.3, 8.0), alpha=st.floats(0.05, 2.5),
           theta=st.floats(-3.1, 3.1), v0=st.floats(-3.0, 3.0),
           center=st.floats(-5.0, 5.0))
    @settings(deadline=None, max_examples=40)
    def test_nonnegative_and_finite(self, k, alpha, theta, v0, center):
        mol = Molecule(atom_mass=1.0, half_separation=alpha)
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        spec = PotentialSpec(peaks=(Peak(center, gauss(v0, 0.8)),
                                    Peak(-center, poly(1.0, 1.2))))
        sigma, per = cross_section_general(theta, mol, beam, spec)
        assert math.isfinite(sigma) and sigma >= 0.0
        assert all(v >= 0.0 and math.isfinite(v) for v in per.values())


class TestCrossSectionStructureless:
    def test_forward_anchor(self):
        spec = PotentialSpec(peaks=(Peak(2.0, gauss(2, 1)), Peak(-2.0, gauss(2, 1))))
        v = cross_section_structureless(0.0, 2.0, 1.0, spec)
        assert v == pytest.approx(32 * math.pi, rel=1e-14)

    def test_forward_grating_ratio_exact(self):
        for n in (1, 2, 10):
            num = cross_section_structureless(0.0, 1.0, 1.0, make_grating(n, 3.0, gauss(1, 1)))
            den = cross_section_structureless(0.0, 1.0, 1.0, make_grating(0, 3.0, gauss(1, 1)))
            assert num / den == (2 * n + 1) ** 2

    def test_counterpart_convention(self):
        mass, spec = structureless_counterpart(UNIT_ROTOR, TWO_SLIT)
        assert mass == 2.0
        assert all(p.shape.strength == 2.0 for p in spec.peaks)
        assert [p.center_x for p in spec.peaks] == [2.0, -2.0]


class TestCrossSectionClosed:
    def test_two_gaussian_forward_anchor(self):
        v = cross_section_closed("closed_two_gaussian", 0.0, mass=1, v0=1,
                                 delta=1, k=1, alpha=1, d=2)
        assert v == pytest.approx(32 * math.pi, rel=1e-15)

    def test_mixed_forward_anchor(self):
        v = cross_section_closed("closed_mixed", 0.0, mass=1, v0=1,
                                 delta=1, k=1, alpha=1, d=1)
        assert v == pytest.approx(8 * math.pi, rel=1e-15)

    def test_structureless_grating_forward_formula(self):
        for n in (0, 1, 4):
            v = cross_section_closed("closed_structureless_grating", 0.0,
                                     mass=1.5, v0=0.7, delta=1.2, k=2.0,
                                     d=3.0, half_count=n)
            expect = 32 * math.pi * 1.5 ** 2 * 0.7 ** 2 * 1.2 ** 4 / 2.0 * (2 * n + 1) ** 2
            assert v == pytest.approx(expect, rel=1e-14)

    def test_missing_parameters_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            cross_section_closed("closed_grating", 0.0, mass=1, v0=1,
                                 delta=1, k=1, alpha=1, d=2)  # no half_count

    def test_non_closed_variant_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            cross_section_closed("general", 0.0, mass=1, v0=1, delta=1, k=1)

    def test_threshold_channel_drops_out(self):
        # k*alpha = 2 exactly: the |l'| = 2 channel is marginal and must be
        # excluded, leaving the elastic term only
        v = cross_section_closed("closed_two_gaussian", 0.0, mass=1, v0=1,
                                 delta=1, k=2, alpha=1, d=2)
        expect = 32 * math.pi * 1.0 / 2.0  # just l' = 0 at q = 0
        assert v == pytest.approx(expect, rel=1e-14)

    def test_fringe_positions_forward_regime(self):
        # kd >> 1 with a single open channel and nearly flat envelope
        # factors: maxima of cos^2 sit at k d sin(theta) = n pi
        k, d = 5.0, 6.0
        th = np.linspace(-0.5, 0.5, 20001)
        p = profile_closed("closed_two_gaussian", th, mass=1, v0=1, delta=0.05,
                           k=k, alpha=0.01, d=d)
        s = p.sigma
        idx = np.nonzero((s[1:-1] > s[:-2]) & (s[1:-1] > s[2:]))[0] + 1
        got = np.sort(th[idx])
        expect = np.array(sorted(math.asin(n * math.pi / (k * d))
                                 for n in range(-4, 5)))
        step = th[1] - th[0]
        assert len(got) == len(expect)
        assert np.max(np.abs(got - expect)) < 2 * step


# the grating twin is 4x its rotor at alpha = 0: its prefactor 32 against
# the 8 of the compare convention (2m, 2v0), ROADMAP item 3
TWIN_OVER_ROTOR = {"closed_two_gaussian": 1.0, "closed_grating": 4.0,
                   "closed_mixed": 1.0}


@pytest.mark.parametrize("internal, twin", sorted(CLOSED_TWINS.items()))
def test_twin_is_its_rotor_at_zero_arm(internal, twin):
    # alpha = 0 leaves one channel at kappa = k with J_0(0) = 1 exactly
    th = np.linspace(-1.5, 1.5, 301)
    for k in (0.5, 3.0, 12.0):
        kw = dict(mass=1.3, v0=0.7, delta=0.8, k=k, d=2.5, half_count=3)
        rotor = profile_closed(internal, th, alpha=0.0, **kw)
        point = profile_closed(twin, th, **kw)
        assert np.array_equal(point.sigma, TWIN_OVER_ROTOR[internal] * rotor.sigma)
        assert point.per_channel is None


class TestSpecializationEquivalence:
    KS = (0.5, 1.0, 2.0, 5.0, 10.0)
    TH = np.linspace(-math.pi / 2, math.pi / 2, 201)

    @staticmethod
    def worst_rel(a, b):
        scale = np.maximum(np.abs(a), np.abs(b))
        mask = scale > 0
        return float(np.max(np.abs(a - b)[mask] / scale[mask]))

    def check_internal(self, variant, spec, mol, **kw):
        worst = 0.0
        for k in self.KS:
            beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
            pg = profile_general(self.TH, mol, beam, spec)
            pc = profile_closed(variant, self.TH, mass=mol.atom_mass, k=k, **kw)
            worst = max(worst, self.worst_rel(pg.sigma, pc.sigma))
        return worst

    def check_structureless(self, variant, spec, big_mass, kw):
        worst = 0.0
        for k in self.KS:
            ps = profile_structureless(self.TH, big_mass, k, spec)
            pc = profile_closed(variant, self.TH, k=k, **kw)
            worst = max(worst, self.worst_rel(ps.sigma, pc.sigma))
        return worst

    def test_two_gaussian(self):
        assert self.check_internal("closed_two_gaussian", TWO_SLIT, UNIT_ROTOR,
                                   v0=1.0, delta=1.0, alpha=1.0, d=2.0) < 1e-12

    def test_grating(self):
        mol = Molecule(atom_mass=1.0, half_separation=0.61)
        for n in (1, 3):
            spec = make_grating(n, 1.3, gauss(1.0, 1.0))
            assert self.check_internal("closed_grating", spec, mol, v0=1.0,
                                       delta=1.0, alpha=0.61, d=1.3,
                                       half_count=n) < 1e-12

    def test_mixed(self):
        mol = Molecule(atom_mass=1.0, half_separation=0.7)
        spec = PotentialSpec(peaks=(Peak(7.0, poly(1.0, 0.09)),
                                    Peak(-7.0, gauss(1.0, 0.09))))
        assert self.check_internal("closed_mixed", spec, mol, v0=1.0,
                                   delta=0.09, alpha=0.7, d=7.0) < 1e-12

    def test_structureless_two_gaussian(self):
        spec = PotentialSpec(peaks=(Peak(2.0, gauss(2, 1)), Peak(-2.0, gauss(2, 1))))
        assert self.check_structureless(
            "closed_structureless_two_gaussian", spec, 2.0,
            dict(mass=1.0, v0=1.0, delta=1.0, d=2.0)) < 1e-12

    def test_structureless_grating(self):
        # the closed form's own normalization: feeding quadrupled strengths
        # at mass 2m reproduces it, see ROADMAP item 3
        for n in (1, 3):
            spec = make_grating(n, 1.3, gauss(4.0, 1.0))
            assert self.check_structureless(
                "closed_structureless_grating", spec, 2.0,
                dict(mass=1.0, v0=1.0, delta=1.0, d=1.3, half_count=n)) < 1e-12

    def test_structureless_mixed(self):
        spec = PotentialSpec(peaks=(Peak(4.0, poly(2.0, 1.5)),
                                    Peak(-4.0, gauss(2.0, 1.5))))
        assert self.check_structureless(
            "closed_structureless_mixed", spec, 2.0,
            dict(mass=1.0, v0=1.0, delta=1.5, d=4.0)) < 1e-12


class TestStructurelessLimit:
    def test_tiny_rotor_matches_point_particle(self):
        mol = Molecule(atom_mass=1.0, half_separation=1e-8)
        mass2, spec2 = structureless_counterpart(mol, TWO_SLIT)
        th = np.linspace(-math.pi / 2, math.pi / 2, 101)
        worst = 0.0
        for k in (0.5, 1.0, 2.0, 5.0, 10.0):
            beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
            pg = profile_general(th, mol, beam, TWO_SLIT)
            ps = profile_structureless(th, mass2, k, spec2)
            worst = max(worst, TestSpecializationEquivalence.worst_rel(pg.sigma, ps.sigma))
        assert worst < 1e-6


class TestGridEngines:
    def test_profile_matches_scalar_general(self):
        # against the per-angle sum over the complex channel amplitudes
        beam = IncidentBeam(wavenumber=2.5, amplitudes={0: 1.0})
        th = np.linspace(-1.2, 1.2, 41)
        p = profile_general(th, UNIT_ROTOR, beam, TWO_SLIT)
        for i in (0, 7, 20, 33, 40):
            s, per = amplitude_sum(float(th[i]), UNIT_ROTOR, beam, TWO_SLIT)
            assert p.sigma[i] == pytest.approx(s, rel=5e-14)
            for key, arr in p.per_channel.items():
                assert arr[i] == pytest.approx(per[key], rel=5e-14, abs=1e-290)

    def test_profile_matches_scalar_closed(self):
        # against the quadrature oracle, angle by angle: the closed grating
        # is the general engine on the same (2N+1)-peak grating
        th = np.linspace(-1.0, 1.0, 21)
        p = profile_closed("closed_grating", th, mass=1.2, v0=0.8, delta=1.1,
                           k=3.0, alpha=0.61, d=1.3, half_count=2)
        spec = make_grating(2, 1.3, gauss(0.8, 1.1))
        mol = Molecule(atom_mass=1.2, half_separation=0.61)
        beam = IncidentBeam(wavenumber=3.0, amplitudes={0: 1.0})
        for i in (0, 5, 13, 20):
            v, _ = amplitude_sum(float(th[i]), mol, beam, spec,
                                 matrix_element_quadrature)
            assert p.sigma[i] == pytest.approx(v, rel=1e-9)

    def test_profile_matches_scalar_structureless(self):
        # against the closed form of two Gaussians at +-2, angle by angle:
        # |V|^2 = (v0 delta^2 / 2)^2 exp(-(q delta)^2 / 2) 4 cos^2(2 q_x)
        th = np.linspace(-1.0, 1.0, 21)
        k = 1.5
        p = profile_structureless(th, 2.0, k, TWO_SLIT)
        for i in (0, 10, 20):
            t = float(th[i])
            q2 = 2.0 * k * k * (1.0 - math.cos(t))
            v2 = 0.25 * math.exp(-0.5 * q2) * 4.0 * math.cos(2.0 * k * math.sin(t)) ** 2
            assert p.sigma[i] == pytest.approx(2.0 * math.pi * 4.0 / k * v2, rel=5e-14)

    def test_metadata_records_engine(self):
        th = np.linspace(-1.0, 1.0, 5)
        assert profile_structureless(th, 1.0, 1.0, TWO_SLIT).metadata["engine"] == "structureless"
        p = profile_closed("closed_structureless_mixed", th, mass=1, v0=1,
                           delta=1, k=1, d=2)
        assert p.metadata == {"engine": "closed_structureless_mixed", "k": 1.0}

    def test_mirror_channels_share_one_bessel_evaluation(self, monkeypatch):
        # an l = 0 beam opens (0, +l') and (0, -l') with the same kappa and
        # J_-l'^2 == J_l'^2, and a symmetric grid repeats each |q| at the
        # mirror angle: each |l'| is evaluated at most once per angle and
        # exactly once per distinct argument of its row, and the channel
        # terms are equal
        pairs = []
        real = specfun.bessel_j_grid

        def counted(n, xs):
            pairs.extend(zip(np.broadcast_to(n, xs.shape).tolist(), xs.tolist()))
            return real(n, xs)

        monkeypatch.setattr(specfun, "bessel_j_grid", counted)
        th = np.linspace(-1.2, 1.2, 41)
        k = 10.0
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        want = {(abs(ch.l_out), x) for ch in open_channels(beam, UNIT_ROTOR)
                for x in (UNIT_ROTOR.half_separation
                          * geometry_grid(k, ch.kappa, th)[2]).tolist()}
        assert {n for n, _ in want} == {0, 2, 4, 6, 8}  # l' = 10 is marginal, closed
        profiles = []
        for make in (lambda: profile_general(th, UNIT_ROTOR, beam, TWO_SLIT),
                     lambda: profile_closed("closed_two_gaussian", th, mass=1.0,
                                            v0=1.0, delta=1.0, k=k, alpha=1.0,
                                            d=2.0)):
            pairs.clear()
            profiles.append(make())
            assert max(Counter(n for n, _ in pairs).values()) <= len(th)
            assert Counter(pairs).most_common(1)[0][1] == 1
            assert set(pairs) == want
            assert len(pairs) < 5 * len(th)  # some mirrors repeat exactly
        for prof in profiles:
            for (l_in, l_out), arr in prof.per_channel.items():
                assert np.array_equal(arr, prof.per_channel[(l_in, -l_out)])

    def test_grouped_bessel_calls_keep_every_channel_bit(self, monkeypatch):
        # at k alpha = 30 the profile's distinct (kappa, |l'|) keys go
        # through one Bessel call; every channel term has the bits of the
        # one built from a per-key call
        sizes = []
        real = specfun.bessel_j_grid

        def counted(n, xs):
            sizes.append(xs.size)
            return real(n, xs)

        monkeypatch.setattr(specfun, "bessel_j_grid", counted)
        th = np.linspace(-1.5, 1.5, 1001)
        k = 30.0
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        p = profile_general(th, UNIT_ROTOR, beam, TWO_SLIT)
        assert len(sizes) == 1
        assert sum(sizes) < len(p.per_channel) * th.size  # mirrors shared
        c = born._rotor_prefactor(UNIT_ROTOR.atom_mass, k)
        for ch in open_channels(beam, UNIT_ROTOR):
            q_x, q_y, q_mag = geometry_grid(k, ch.kappa, th)
            re, im = ft_total_grid(TWO_SLIT, q_x, q_y)
            bess = real(abs(ch.l_out), UNIT_ROTOR.half_separation * q_mag)
            term = (c * ch.weight / math.pi ** 2) * bess * bess * (re * re + im * im)
            assert np.array_equal(p.per_channel[(ch.l_in, ch.l_out)], term)


# rotors of every channel engine: the general engine with l != 0 states,
# each closed internal variant and the alpha = 0 twin (whose every
# argument is 0, so every mirror repeats)
GROUP_ROTORS = [
    (IncidentBeam(wavenumber=3.0, amplitudes={0: 0.6, 3: 0.8}), UNIT_ROTOR),
    (IncidentBeam(wavenumber=2.2, amplitudes={-2: 0.6j, 1: 0.8}),
     Molecule(atom_mass=1.0, half_separation=1.7)),
    *(born.closed_rotor(variant, 4.5, 0.9) for variant in CLOSED_TWINS),
    None,
    born.closed_rotor("closed_structureless_mixed", 4.5, 0.9),
]
GROUP_GRIDS = {
    "symmetric_odd": np.linspace(-1.3, 1.3, 15),
    "symmetric_even": np.linspace(-1.3, 1.3, 14),
    # negated copies: every mirror pair repeats its |q| exactly
    "exact_mirror_even": np.concatenate([-np.geomspace(0.01, 1.4, 6)[::-1],
                                         np.geomspace(0.01, 1.4, 6)]),
    "asymmetric_odd": np.linspace(-0.4, 1.5, 11),
    "asymmetric_even": np.linspace(-1.5, 0.2, 10),
    "two": np.array([-0.7, 0.7]),
    "two_asymmetric": np.array([-0.7, 0.9]),
}


_ELEMENTS = {}


def one_element(bessel_j_grid, n, x):
    """J_n(x) from a call of its own, kept across the tests that ask."""
    if (n, x) not in _ELEMENTS:
        _ELEMENTS[n, x] = bessel_j_grid(n, np.array([x]))[0]
    return _ELEMENTS[n, x]


class TestBesselGroups:
    @pytest.mark.parametrize("grid", sorted(GROUP_GRIDS))
    @pytest.mark.parametrize("block", [specfun.BLOCK, 40])
    def test_rows_have_the_bits_of_per_element_calls(self, monkeypatch, grid, block):
        # a small BLOCK splits the rotors into several groups
        monkeypatch.setattr(specfun, "BLOCK", block)
        th = GROUP_GRIDS[grid]
        evaluated = []
        real = specfun.bessel_j_grid

        def counted(n, xs):
            evaluated.append(xs.size)
            return real(n, xs)

        monkeypatch.setattr(specfun, "bessel_j_grid", counted)
        groups = list(born.bessel_groups(th, GROUP_ROTORS))
        rows = [r for group in groups for r in group]
        assert len(rows) == len(GROUP_ROTORS)
        assert len(groups) > 1 if block == 40 else len(groups) == 1
        total = 0
        for rotor, got in zip(GROUP_ROTORS, rows):
            if rotor is None:
                assert got is None
                continue
            beam, molecule = rotor
            assert got.channels == open_channels(beam, molecule)
            for (kappa, n), row in got.bess.items():
                x = molecule.half_separation * geometry_grid(beam.wavenumber, kappa, th)[2]
                want = np.array([one_element(real, n, xi) for xi in x.tolist()])
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
                total += th.size
        assert sum(evaluated) < total  # the twins' mirrors at least are skipped
        assert len(evaluated) == len(groups)

    def test_engines_take_the_rows_of_their_group(self):
        # a profile from its group's rows is the profile made alone, bit for bit
        th = GROUP_GRIDS["symmetric_odd"]
        [rows] = born.bessel_groups(th, GROUP_ROTORS)
        beam, molecule = GROUP_ROTORS[0]
        pairs = [(profile_general(th, molecule, beam, TWO_SLIT, rows=rows[0]),
                  profile_general(th, molecule, beam, TWO_SLIT))]
        kw = dict(mass=1.0, v0=1.0, delta=0.8, k=4.5, alpha=0.9, d=2.0, half_count=1)
        closed = [*CLOSED_TWINS, "closed_structureless_mixed"]
        pairs += [(profile_closed(v, th, rows=r, **kw), profile_closed(v, th, **kw))
                  for v, r in zip(closed, rows[2:5] + rows[6:])]
        for got, want in pairs:
            assert np.array_equal(got.sigma, want.sigma)
            for key, arr in (want.per_channel or {}).items():
                assert np.array_equal(got.per_channel[key], arr)


# every engine on a theta grid: the general engine with GROUP_ROTORS'
# multi-state beams, the point particle and each closed variant and twin
MIXED_PEAKS = PotentialSpec(peaks=(Peak(2.0, gauss(1.0, 0.9)), Peak(-2.0, gauss(1.0, 0.9)),
                                   Peak(-0.0, poly(0.7, 1.2)), Peak(1.1, poly(-0.4, 0.6)),
                                   Peak(-1.1, gauss(0.5, 0.6))))
CLOSED_KW = dict(mass=1.0, v0=1.0, delta=0.8, k=4.5, alpha=0.9, d=2.0, half_count=1)
GRID_ENGINES = {
    **{f"general-{i}": (lambda th, r=GROUP_ROTORS[i]: profile_general(
        th, r[1], r[0], MIXED_PEAKS)) for i in (0, 1)},
    "structureless": lambda th: profile_structureless(th, 1.3, 2.7, MIXED_PEAKS),
    **{v: (lambda th, v=v: profile_closed(v, th, **CLOSED_KW))
       for pair in CLOSED_TWINS.items() for v in pair},
}


def split_profile(make, th):
    """sigma and per-channel arrays of ``make`` on th[:h] and th[h:],
    joined, h = size // 2. A half of one angle is evaluated with a
    companion 1e-3 on, since a profile needs two samples; the companion
    is no mirror of it."""
    h = th.size // 2
    parts = []
    for half in (th[:h], th[h:]):
        grid = half if half.size > 1 else np.array([half[0], half[0] + 1e-3])
        p = make(grid)
        parts.append((p.sigma[:half.size],
                      {key: arr[:half.size] for key, arr in (p.per_channel or {}).items()}))
    (s0, per0), (s1, per1) = parts
    return np.concatenate([s0, s1]), {key: np.concatenate([per0[key], per1[key]])
                                      for key in per0}


class TestMirrorCopies:
    @pytest.mark.parametrize("engine", sorted(GRID_ENGINES))
    @pytest.mark.parametrize("grid", sorted(GROUP_GRIDS))
    def test_full_grid_has_the_bits_of_its_halves(self, grid, engine):
        # neither half holds a mirror pair, so nothing is copied there
        th = GROUP_GRIDS[grid]
        make = GRID_ENGINES[engine]
        full = make(th)
        sigma, per = split_profile(make, th)
        assert np.array_equal(full.sigma.view(np.uint64), sigma.view(np.uint64))
        assert sorted(full.per_channel or {}) == sorted(per)
        for key, arr in per.items():
            assert np.array_equal(full.per_channel[key].view(np.uint64), arr.view(np.uint64))

    def test_exact_mirror_grid_pairs_every_angle(self):
        # all 6 pairs are exact, so the front half is the whole unique set
        grid = angle_grid(GROUP_GRIDS["exact_mirror_even"])
        assert grid.unique.sin.size == 6
        assert grid.expand.tolist() == [0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]

    @pytest.mark.parametrize("grid", ["symmetric_odd", "asymmetric_odd", "asymmetric_even"])
    def test_transform_sees_each_mirror_pair_once(self, grid, monkeypatch):
        seen = []
        real = born.ft_total_grid
        monkeypatch.setattr(born, "ft_total_grid",
                            lambda spec, q_x, q_y: seen.append(q_x.size) or real(spec, q_x, q_y))
        th = GROUP_GRIDS[grid]
        kappas = 0
        for beam, molecule in GROUP_ROTORS[:2]:
            profile_general(th, molecule, beam, MIXED_PEAKS)
            kappas += len({ch.kappa for ch in open_channels(beam, molecule)})
        profile_structureless(th, 1.3, 2.7, MIXED_PEAKS)
        assert len(seen) == kappas + 1
        if grid == "symmetric_odd":
            assert sum(seen) < th.size * (kappas + 1)
        else:
            assert sum(seen) == th.size * (kappas + 1)
