"""Channel kinematics: outgoing wavenumbers, open channels, momentum transfer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_scatter.kinematics import (
    Channel,
    geometry_grid,
    open_channels,
    outgoing_wavenumber,
)
from rotor_scatter.born import profile_general
from rotor_scatter.model import GAUSSIAN, IncidentBeam, Molecule, Peak, PeakShape, PotentialSpec


MOL = Molecule(atom_mass=1.0, half_separation=1.0)


class TestOutgoingWavenumber:
    def test_elastic_is_exact(self):
        # same |l| in and out: no rotational energy exchanged, returned value
        # must be the input wavenumber bit for bit, not a recomputed root
        k = 5.0
        assert outgoing_wavenumber(k, 3, -3, MOL) == k
        assert outgoing_wavenumber(k, 3, 3, MOL) == k
        k2 = 0.1 + 0.2  # not exactly representable as 0.3
        assert outgoing_wavenumber(k2, 0, 0, MOL) == k2

    def test_inelastic_gain(self):
        # dropping from |l|=1 to 0 releases rotational energy into the motion
        assert outgoing_wavenumber(2.0, 1, 0, MOL) == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_inelastic_loss(self):
        assert outgoing_wavenumber(2.0, 0, 1, MOL) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_closed_channel_is_none(self):
        assert outgoing_wavenumber(1.0, 0, 2, MOL) is None

    def test_marginal_channel_is_closed(self):
        # radicand exactly zero: treated as closed, not as a zero-speed wave
        assert outgoing_wavenumber(2.0, 0, 2, MOL) is None

    def test_point_particle_requires_no_rotation(self):
        point = Molecule(atom_mass=1.0, half_separation=0.0)
        assert outgoing_wavenumber(1.5, 0, 0, point) == 1.5
        with pytest.raises(ValueError):
            outgoing_wavenumber(1.5, 0, 2, point)

    def test_rejects_bad_wavenumber(self):
        with pytest.raises(ValueError):
            outgoing_wavenumber(0.0, 0, 0, MOL)

    @given(k=st.floats(0.1, 50.0), alpha=st.floats(0.1, 10.0),
           l_in=st.integers(-6, 6), l_out=st.integers(-6, 6))
    @settings(deadline=None)
    def test_energy_conservation(self, k, alpha, l_in, l_out):
        mol = Molecule(atom_mass=1.3, half_separation=alpha)
        kappa = outgoing_wavenumber(k, l_in, l_out, mol)
        if kappa is None:
            return
        inertia = mol.moment_of_inertia
        e_in = k * k / (4 * mol.atom_mass) + l_in * l_in / (2 * inertia)
        e_out = kappa * kappa / (4 * mol.atom_mass) + l_out * l_out / (2 * inertia)
        assert e_out == pytest.approx(e_in, rel=1e-12)

    @given(k=st.floats(0.5, 20.0), alpha=st.floats(0.2, 5.0))
    @settings(deadline=None)
    def test_monotone_in_transferred_energy(self, k, alpha):
        mol = Molecule(atom_mass=1.0, half_separation=alpha)
        kappas = []
        for l_out in range(0, 8):
            kp = outgoing_wavenumber(k, 0, l_out, mol)
            if kp is None:
                break
            kappas.append(kp)
        assert all(a > b for a, b in zip(kappas, kappas[1:]))


class TestOpenChannels:
    def test_single_elastic_channel(self):
        beam = IncidentBeam(wavenumber=1.0, amplitudes={0: 1.0})
        chans = open_channels(beam, MOL)
        assert [(c.l_in, c.l_out) for c in chans] == [(0, 0)]
        assert chans[0].kappa == 1.0 and chans[0].weight == 1.0

    def test_three_channels_at_k_2_5(self):
        beam = IncidentBeam(wavenumber=2.5, amplitudes={0: 1.0})
        chans = open_channels(beam, MOL)
        assert [(c.l_in, c.l_out) for c in chans] == [(0, -2), (0, 0), (0, 2)]

    def test_exact_threshold_channel_absent(self):
        # k*alpha = 2 puts |l_out| = 2 exactly at threshold; it must not appear
        beam = IncidentBeam(wavenumber=2.0, amplitudes={0: 1.0})
        chans = open_channels(beam, MOL)
        assert [(c.l_in, c.l_out) for c in chans] == [(0, 0)]

    def test_weights_follow_amplitudes(self):
        beam = IncidentBeam(wavenumber=1.0, amplitudes={0: 0.6, 2: 0.8j})
        chans = open_channels(beam, MOL)
        w = {(c.l_in, c.l_out): c.weight for c in chans}
        # k*alpha = 1: from l=0 only elastic; from l=2 both l'=2 and the
        # energy-releasing l'=0 and l'=-2 are open
        assert w[(0, 0)] == pytest.approx(0.36)
        assert w[(2, 2)] == pytest.approx(0.64)
        assert (2, 0) in w and (2, -2) in w

    def test_point_particle_keeps_elastic_only(self):
        point = Molecule(atom_mass=1.0, half_separation=0.0)
        beam = IncidentBeam(wavenumber=3.0, amplitudes={0: 1.0})
        chans = open_channels(beam, point)
        assert chans == [Channel(l_in=0, l_out=0, kappa=3.0, weight=1.0)]

    @pytest.mark.parametrize("amplitudes", [{0: 0.6, 2: 0.8}, {2: 1.0}])
    def test_point_particle_refuses_rotational_states(self, amplitudes):
        # an l != 0 state without an arm is an error, not a dropped state
        point = Molecule(atom_mass=1.0, half_separation=0.0)
        beam = IncidentBeam(wavenumber=1.0, amplitudes=amplitudes)
        spec = PotentialSpec(peaks=(Peak(0.0, PeakShape(GAUSSIAN, 1.0, 1.0)),))
        with pytest.raises(ValueError, match="half_separation must be > 0"):
            open_channels(beam, point)
        with pytest.raises(ValueError, match="half_separation must be > 0"):
            profile_general(np.linspace(-1.0, 1.0, 5), point, beam, spec)

    def test_sorted_by_channel_labels(self):
        beam = IncidentBeam(wavenumber=4.5, amplitudes={0: 0.6, 2: 0.8})
        chans = open_channels(beam, MOL)
        keys = [(c.l_in, c.l_out) for c in chans]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @given(k=st.floats(0.3, 30.0), alpha=st.floats(0.1, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_channel_count_matches_threshold_rule(self, k, alpha):
        # open l' for a ground-state beam are the even ones with
        # |l'| < k*alpha strictly
        half = k * alpha / 2
        if abs(half - round(half)) < 1e-9:
            return  # stay away from exact thresholds, covered separately
        beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
        mol = Molecule(atom_mass=1.0, half_separation=alpha)
        chans = open_channels(beam, mol)
        assert len(chans) == 2 * math.floor(half) + 1


def geometry(k, kappa, theta):
    """(q_x, q_y, |q|) at one angle, from a one-element grid."""
    q_x, q_y, q_mag = geometry_grid(k, kappa, np.array([theta]))
    return q_x[0], q_y[0], q_mag[0]


def even_channels_reference(k, alpha):
    """The closed engines' former channel rule, with its own l_max: signed
    even l' with an open outgoing wavenumber, ascending."""
    mol = Molecule(atom_mass=1.0, half_separation=alpha)
    l_max = int(math.floor(math.sqrt((k * alpha) ** 2))) + 1
    if l_max % 2 == 1:
        l_max += 1
    out = []
    for l_out in range(-l_max, l_max + 1, 2):
        kappa = outgoing_wavenumber(k, 0, l_out, mol)
        if kappa is not None:
            out.append((l_out, kappa))
    return out


class TestClosedEngineChannels:
    def test_open_channels_reproduce_even_rule_bit_for_bit(self):
        # exact thresholds k*alpha = l' and their float neighbours, plus a
        # plain (k, alpha) grid; the closed engines enumerate through
        # open_channels, which must give the same (l', kappa) list
        cases = []
        for alpha in (0.05, 0.3, 0.61, 1.0, 1.7, 2.5, 7.0):
            for l in range(1, 41):
                k = l / alpha
                cases += [(k, alpha), (math.nextafter(k, 0.0), alpha),
                          (math.nextafter(k, math.inf), alpha)]
        cases += [(float(k), float(a)) for k in np.linspace(0.1, 30.0, 23)
                  for a in np.linspace(0.02, 3.0, 23)]
        for k, alpha in cases:
            beam = IncidentBeam(wavenumber=k, amplitudes={0: 1.0})
            mol = Molecule(atom_mass=1.0, half_separation=alpha)
            got = [(c.l_out, c.kappa)
                   for c in open_channels(beam, mol)]
            assert got == even_channels_reference(k, alpha), (k, alpha)


class TestGeometry:
    # the phase angle mu is formed only in born.matrix_element; its
    # convention is tested there (TestMatrixElement)

    def test_side_scattering(self):
        q_x, q_y, q_mag = geometry(1.0, 1.0, math.pi / 2)
        assert q_x == -1.0
        assert q_y == pytest.approx(1.0, abs=1e-15)
        assert q_mag == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_back_scattering(self):
        _, _, q_mag = geometry(1.0, 1.0, math.pi)
        assert q_mag == pytest.approx(2.0, rel=1e-15)

    def test_forward_elastic_is_degenerate(self):
        assert geometry(2.0, 2.0, 0.0)[2] == 0.0

    def test_forward_inelastic(self):
        # straight ahead with kappa < k: momentum transfer points along -y
        q_x, q_y, _ = geometry(2.0, 1.0, 0.0)
        assert q_x == 0.0 and q_y == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            geometry(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            geometry(1.0, -0.5, 0.1)

    @given(k=st.floats(0.1, 20.0), kappa=st.floats(0.0, 20.0),
           thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=20))
    @settings(deadline=None)
    def test_law_of_cosines(self, k, kappa, thetas):
        thetas = np.array(thetas)
        _, _, q_mag = geometry_grid(k, kappa, thetas)
        expect = k * k + kappa * kappa - 2 * k * kappa * np.cos(thetas)
        assert q_mag ** 2 == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_grid_matches_scalar_bit_for_bit(self):
        # the scalar formula with libm trig, value by value
        thetas = np.linspace(-1.5, 1.5, 201)
        qx, qy, qm = geometry_grid(2.0, 1.2, thetas)
        for i, t in enumerate(thetas.tolist()):
            q_x = -1.2 * math.sin(t)
            q_y = 2.0 - 1.2 * math.cos(t)
            assert qx[i] == q_x
            assert qy[i] == q_y
            assert qm[i] == math.sqrt(q_x * q_x + q_y * q_y)


class TestChannel:
    def test_fields(self):
        c = Channel(l_in=0, l_out=2, kappa=1.5, weight=1.0)
        assert (c.l_in, c.l_out, c.kappa, c.weight) == (0, 2, 1.5, 1.0)
