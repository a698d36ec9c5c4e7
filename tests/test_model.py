"""Domain objects and configuration validation."""

import copy
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_scatter.kinematics import geometry_grid, open_channels
from rotor_scatter.specfun import ARGUMENT_CAP
from rotor_scatter.model import (
    GAUSSIAN,
    MAX_GRATING_N,
    MAX_THETA_STEPS,
    POLYNOMIAL_GAUSSIAN,
    Config,
    ConfigError,
    CrossSectionProfile,
    FieldError,
    IncidentBeam,
    Molecule,
    Peak,
    PeakShape,
    PotentialSpec,
    ScanSpec,
    make_grating,
    serialize_config,
    validate_config,
)


def minimal_doc():
    return {
        "molecule": {"mass": 1.0, "alpha": 1.0},
        "beam": {"k": 1.0},
        "potential": {
            "kind": "peaks",
            "peaks": [
                {"center": 2.0, "shape": {"variant": GAUSSIAN, "v0": 1.0, "delta": 1.0}},
                {"center": -2.0, "shape": {"variant": GAUSSIAN, "v0": 1.0, "delta": 1.0}},
            ],
        },
        "engine": {"variant": "general"},
        "scan": {"theta": {"min": -1.0, "max": 1.0, "steps": 11}},
    }


class TestMolecule:
    def test_moment_of_inertia(self):
        m = Molecule(atom_mass=3.0, half_separation=2.0)
        assert m.moment_of_inertia == 24.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Molecule(atom_mass=0.0, half_separation=1.0)
        with pytest.raises(ValueError):
            Molecule(atom_mass=1.0, half_separation=-0.5)
        with pytest.raises(ValueError):
            Molecule(atom_mass=float("nan"), half_separation=1.0)


class TestIncidentBeam:
    def test_default_state(self):
        b = IncidentBeam(wavenumber=2.0, amplitudes={0: 1.0})
        assert b.sorted_states() == [(0, 1.0 + 0.0j)]

    def test_two_state_superposition(self):
        b = IncidentBeam(wavenumber=1.0, amplitudes={0: 0.6, 2: 0.8})
        assert b.sorted_states() == [(0, 0.6 + 0j), (2, 0.8 + 0j)]

    def test_drops_exact_zeros(self):
        b = IncidentBeam(wavenumber=1.0, amplitudes={0: 1.0, 4: 0.0})
        assert set(b.amplitudes) == {0}

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError):
            IncidentBeam(wavenumber=1.0, amplitudes={0: 0.5, 2: 0.5})

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            IncidentBeam(wavenumber=1.0, amplitudes={0: 0.0})

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError):
            IncidentBeam(wavenumber=1.0, amplitudes={0.5: 1.0})
        with pytest.raises(ValueError):
            IncidentBeam(wavenumber=1.0, amplitudes={True: 1.0})


class TestPeakShape:
    def test_variants(self):
        PeakShape(variant=GAUSSIAN, strength=-2.0, width=0.5)  # wells allowed
        PeakShape(variant=POLYNOMIAL_GAUSSIAN, strength=1.0, width=1.0)
        with pytest.raises(ValueError):
            PeakShape(variant="lorentzian", strength=1.0, width=1.0)
        with pytest.raises(ValueError):
            PeakShape(variant=GAUSSIAN, strength=1.0, width=0.0)


class TestMakeGrating:
    def test_zero_half_count_is_single_peak(self):
        shape = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)
        g = make_grating(0, 3.0, shape)
        assert len(g.peaks) == 1
        assert g.peaks[0].center_x == 0.0

    def test_centers(self):
        shape = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)
        g = make_grating(2, 1.5, shape)
        assert [p.center_x for p in g.peaks] == [-3.0, -1.5, 0.0, 1.5, 3.0]
        assert all(p.shape is shape for p in g.peaks)

    def test_rejects_bad_arguments(self):
        shape = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)
        with pytest.raises(ValueError):
            make_grating(-1, 1.0, shape)
        with pytest.raises(ValueError):
            make_grating(2, 0.0, shape)


class TestScanSpec:
    def test_grid_endpoints(self):
        s = ScanSpec(theta_min=-1.0, theta_max=1.0, theta_steps=5)
        t = s.thetas()
        assert t[0] == -1.0 and t[-1] == 1.0 and len(t) == 5

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            ScanSpec(theta_min=1.0, theta_max=1.0, theta_steps=5)
        with pytest.raises(ValueError):
            ScanSpec(theta_min=0.0, theta_max=1.0, theta_steps=1)


class TestFieldErrors:
    SHAPE = PeakShape(variant=GAUSSIAN, strength=1.0, width=1.0)

    @pytest.mark.parametrize("make, fields", [
        (lambda: Molecule(atom_mass=0.0, half_separation=-1.0), {"mass", "alpha"}),
        (lambda: IncidentBeam(wavenumber=0.0, amplitudes=[(0, 1.0), (0, 0.0), (0.5, 2.0)]),
         {"k", "amplitudes[1].l", "amplitudes[2].l", "amplitudes[2].re"}),
        (lambda: PeakShape(variant="x", strength=math.inf, width=0.0),
         {"variant", "v0", "delta"}),
        (lambda: Peak(center_x=math.nan, shape=TestFieldErrors.SHAPE), {"center"}),
        (lambda: ScanSpec(theta_min=1.0, theta_max=0.0, theta_steps=1,
                          k_values=(1.0, -1.0)), {"theta.max", "theta.steps", "k[1]"}),
        (lambda: make_grating(MAX_GRATING_N + 1, 0.0, TestFieldErrors.SHAPE), {"n", "d"}),
    ], ids=["molecule", "beam", "shape", "peak", "scan", "grating"])
    def test_types_name_every_bad_field_as_the_document_does(self, make, fields):
        # a plain ValueError to engines (exit 2), re-rooted by validate_config
        with pytest.raises(FieldError) as exc:
            make()
        assert not isinstance(exc.value, ConfigError)
        assert {f for f, _ in exc.value.errors} == fields


class TestValidateConfig:
    def test_minimal_document(self):
        cfg = validate_config(minimal_doc())
        assert isinstance(cfg, Config)
        assert cfg.molecule.moment_of_inertia == 2.0
        assert cfg.beam.sorted_states() == [(0, 1.0 + 0j)]
        assert len(cfg.potential.peaks) == 2
        assert cfg.engine_variant == "general"
        assert cfg.scan == ScanSpec(theta_min=-1.0, theta_max=1.0, theta_steps=11)
        assert cfg.grating is None

    def test_explicit_amplitudes(self):
        doc = minimal_doc()
        doc["beam"]["amplitudes"] = [
            {"l": 0, "re": 0.6},
            {"l": 2, "im": 0.8},
        ]
        cfg = validate_config(doc)
        assert cfg.beam.amplitudes[2] == 0.8j

    def test_collects_every_error(self):
        doc = minimal_doc()
        doc["molecule"]["alpha"] = -1.0
        doc["beam"]["k"] = 0.0
        doc["engine"]["variant"] = "nonsense"
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        paths = {p for p, _ in exc.value.errors}
        assert paths == {"molecule.alpha", "beam.k", "engine.variant"}

    def test_norm_kept_bit_for_bit(self):
        doc = minimal_doc()
        a = math.sqrt(0.5)
        doc["beam"]["amplitudes"] = [{"l": 0, "re": a}, {"l": 2, "re": a}]
        cfg = validate_config(doc)
        # norm error here is below 1e-12, amplitudes must pass through untouched
        assert cfg.beam.amplitudes[0].real == a

    def test_norm_repaired_in_band(self):
        doc = minimal_doc()
        eps = 4e-7
        doc["beam"]["amplitudes"] = [{"l": 0, "re": math.sqrt(1.0 + eps)}]
        cfg = validate_config(doc)
        norm = sum(abs(v) ** 2 for v in cfg.beam.amplitudes.values())
        assert abs(norm - 1.0) <= 1e-12

    def test_norm_rejected_beyond_band(self):
        doc = minimal_doc()
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 1.1}]
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert any(p == "beam.amplitudes" for p, _ in exc.value.errors)

    def test_duplicate_state_label_rejected(self):
        doc = minimal_doc()
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 1.0}, {"l": 0, "re": 0.1}]
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_grating_document(self):
        doc = minimal_doc()
        doc["potential"] = {
            "kind": "grating",
            "grating": {"n": 2, "d": 1.5,
                        "shape": {"variant": GAUSSIAN, "v0": 1.0, "delta": 1.0}},
        }
        cfg = validate_config(doc)
        assert cfg.grating == (2, 1.5)
        assert [p.center_x for p in cfg.potential.peaks] == [-3.0, -1.5, 0.0, 1.5, 3.0]

    def test_scan_block(self):
        doc = minimal_doc()
        doc["scan"] = {"theta": {"min": -1.5, "max": 1.5, "steps": 301},
                       "k": [0.5, 1.0, 2.0]}
        cfg = validate_config(doc)
        assert cfg.scan.k_values == (0.5, 1.0, 2.0)
        assert cfg.scan.thetas().shape == (301,)

    def test_bad_scan_k_rejected(self):
        doc = minimal_doc()
        doc["scan"] = {"theta": {"min": 0.0, "max": 1.0, "steps": 2}, "k": [1.0, -2.0]}
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert any(p == "scan.k[1]" for p, _ in exc.value.errors)

    def test_theta_steps_capped_with_field_path(self):
        doc = minimal_doc()
        doc["scan"] = {"theta": {"min": 0.0, "max": 1.0, "steps": MAX_THETA_STEPS},
                       "k": [1.0]}
        assert validate_config(doc).scan.theta_steps == MAX_THETA_STEPS
        for steps in (MAX_THETA_STEPS + 1, 10**12):
            doc["scan"]["theta"]["steps"] = steps
            with pytest.raises(ConfigError) as exc:
                validate_config(doc)
            assert {p for p, _ in exc.value.errors} == {"scan.theta.steps"}
        with pytest.raises(ValueError):
            ScanSpec(theta_min=0.0, theta_max=1.0, theta_steps=MAX_THETA_STEPS + 1)

    def test_boolean_is_not_a_number(self):
        doc = minimal_doc()
        doc["molecule"]["mass"] = True
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_oversized_amplitude_rejected_with_field_path(self):
        for part in ("re", "im"):
            doc = minimal_doc()
            doc["beam"]["amplitudes"] = [{"l": 0, part: 1e200}]
            with pytest.raises(ConfigError) as exc:
                validate_config(doc)
            assert f"beam.amplitudes[0].{part}" in {p for p, _ in exc.value.errors}

    def test_huge_wavenumber_rejected_with_field_path(self):
        doc = minimal_doc()
        doc["scan"] = {"theta": {"min": 0.0, "max": 1.0, "steps": 2},
                       "k": [1.0, 1e300]}
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert {p for p, _ in exc.value.errors} == {"scan.k[1]"}
        doc = minimal_doc()
        doc["beam"]["k"] = 1e300
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert {p for p, _ in exc.value.errors} == {"beam.k"}

    def test_channel_order_cap_follows_alpha(self):
        # k * alpha near the Bessel order cap is accepted, past it rejected;
        # engines without rotational channels do not care
        doc = minimal_doc()
        doc["beam"]["k"] = 9000.0
        validate_config(doc)
        doc["molecule"]["alpha"] = 3.0
        with pytest.raises(ConfigError):
            validate_config(doc)
        doc["engine"]["variant"] = "structureless"
        validate_config(doc)

    @pytest.mark.parametrize("states", [[0], [0, 4000]])
    def test_largest_accepted_channels_stay_inside_the_argument_cap(self, states):
        # the largest k validate_config accepts at alpha = 1, and the
        # largest Bessel argument alpha |q| its channels reach (|q| = k +
        # kappa at backscatter), as the engines form it
        def doc_at(k):
            doc = minimal_doc()
            doc["beam"] = {"k": k, "amplitudes": [
                {"l": l, "re": math.sqrt(1.0 / len(states)), "im": 0.0}
                for l in states]}
            return doc

        lo, hi = 1.0, 1e6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                validate_config(doc_at(mid))
                lo = mid
            except ConfigError:
                hi = mid
        config = validate_config(doc_at(lo))
        kappas = {c.kappa for c in open_channels(config.beam, config.molecule)}
        alpha = config.molecule.half_separation
        x = max(float(alpha * geometry_grid(lo, kappa, np.array([math.pi]))[2][0])
                for kappa in kappas)
        with pytest.raises(ConfigError):
            validate_config(doc_at(hi))
        assert x < ARGUMENT_CAP

    def test_rotational_state_without_arm_rejected(self):
        doc = minimal_doc()
        doc["molecule"]["alpha"] = 0.0
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 0.6}, {"l": 2, "re": 0.8}]
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        (path, message), = exc.value.errors
        assert path == "beam.amplitudes[1].l" and "molecule.alpha" in message
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 1.0}]
        assert validate_config(doc).molecule.half_separation == 0.0

    def test_missing_scan_block_rejected(self):
        doc = minimal_doc()
        del doc["scan"]
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert exc.value.errors == [
            ("scan", "this subcommand needs a scan block with a theta grid")]

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            validate_config([1, 2, 3])

    def test_serialize_round_trip_is_bit_stable(self):
        doc = minimal_doc()
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 0.6}, {"l": 2, "im": 0.8}]
        doc["scan"] = {"theta": {"min": -0.7, "max": 0.7, "steps": 11}, "k": [1.0]}
        cfg = validate_config(doc)
        cfg2 = validate_config(serialize_config(cfg))
        assert cfg2.molecule == cfg.molecule
        assert cfg2.beam == cfg.beam
        assert cfg2.potential == cfg.potential
        assert cfg2.scan == cfg.scan
        assert serialize_config(cfg2) == serialize_config(cfg)

    def test_serialize_grating_round_trip(self):
        doc = minimal_doc()
        doc["potential"] = {
            "kind": "grating",
            "grating": {"n": 3, "d": 2.0,
                        "shape": {"variant": POLYNOMIAL_GAUSSIAN, "v0": 0.5, "delta": 1.5}},
        }
        cfg = validate_config(doc)
        cfg2 = validate_config(serialize_config(cfg))
        assert cfg2.grating == cfg.grating
        assert cfg2.potential == cfg.potential


def _closed_doc(variant, peaks=((2.0, GAUSSIAN), (-2.0, GAUSSIAN))):
    doc = minimal_doc()
    doc["engine"]["variant"] = variant
    doc["potential"]["peaks"] = [
        {"center": c, "shape": {"variant": v, "v0": 1.0, "delta": 1.0}} for c, v in peaks]
    return doc


def _grating(variant):
    return {"kind": "grating", "grating": {
        "n": 2, "d": 1.5, "shape": {"variant": variant, "v0": 1.0, "delta": 1.0}}}


_TWO_PEAKS = "closed two-peak engines need exactly two peaks at +d and -d with d > 0"


class TestClosedTemplates:
    @pytest.mark.parametrize("variant, peaks", [
        ("closed_two_gaussian", ((2.0, GAUSSIAN), (-2.0, GAUSSIAN))),
        ("closed_structureless_two_gaussian", ((2.0, GAUSSIAN), (-2.0, GAUSSIAN))),
        ("closed_mixed", ((2.0, POLYNOMIAL_GAUSSIAN), (-2.0, GAUSSIAN))),
        ("closed_structureless_mixed", ((2.0, POLYNOMIAL_GAUSSIAN), (-2.0, GAUSSIAN))),
    ])
    def test_two_peak_templates_accepted(self, variant, peaks):
        assert validate_config(_closed_doc(variant, peaks)).engine_variant == variant

    @pytest.mark.parametrize("variant", ["closed_grating", "closed_structureless_grating"])
    def test_gaussian_grating_accepted(self, variant):
        doc = _closed_doc(variant)
        doc["potential"] = _grating(GAUSSIAN)
        assert validate_config(doc).grating == (2, 1.5)

    @pytest.mark.parametrize("variant, edit, error", [
        ("closed_two_gaussian",
         lambda d: d["beam"].update(amplitudes=[{"l": 2, "re": 1.0}]),
         ("beam.amplitudes", "closed engines require a pure l = 0 beam")),
        ("closed_grating", lambda d: None,
         ("potential.kind", "closed grating engines need potential.kind = 'grating'")),
        ("closed_structureless_grating",
         lambda d: d.update(potential=_grating(POLYNOMIAL_GAUSSIAN)),
         ("potential.grating.shape.variant",
          "closed grating engines support Gaussian peaks only")),
        ("closed_two_gaussian", lambda d: d["potential"]["peaks"].pop(),
         ("potential.peaks", _TWO_PEAKS)),
        ("closed_mixed", lambda d: d["potential"]["peaks"].reverse(),
         ("potential.peaks", _TWO_PEAKS)),
        ("closed_two_gaussian",
         lambda d: d["potential"]["peaks"][1].update(center=-2.5),
         ("potential.peaks", _TWO_PEAKS)),
        ("closed_two_gaussian", lambda d: d.update(potential=_grating(GAUSSIAN)),
         ("potential.kind", _TWO_PEAKS)),
        ("closed_structureless_two_gaussian",
         lambda d: d["potential"]["peaks"][1]["shape"].update(v0=2.0),
         ("potential.peaks",
          "closed two-peak engines need equal strength and width on both peaks")),
        ("closed_mixed", lambda d: d["potential"]["peaks"][0]["shape"].update(delta=2.0),
         ("potential.peaks",
          "closed two-peak engines need equal strength and width on both peaks")),
        ("closed_mixed", lambda d: None,
         ("potential.peaks[0].shape", "engine closed_mixed needs peak shapes "
          "polynomial_gaussian at +d and gaussian at -d")),
        ("closed_two_gaussian",
         lambda d: d["potential"]["peaks"][1]["shape"].update(variant=POLYNOMIAL_GAUSSIAN),
         ("potential.peaks[1].shape", "engine closed_two_gaussian needs peak shapes "
          "gaussian at +d and gaussian at -d")),
    ])
    def test_each_misfit_named_by_its_field(self, variant, edit, error):
        doc = _closed_doc(variant)
        edit(doc)
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert exc.value.errors == [error]
        doc["engine"]["variant"] = "general"
        validate_config(doc)  # the general engine takes any beam and potential

    def test_misfits_collected_with_the_other_errors(self):
        doc = _closed_doc("closed_mixed")
        doc["molecule"]["mass"] = -1.0
        doc["beam"]["amplitudes"] = [{"l": 0, "re": 0.6}, {"l": 2, "re": 0.8}]
        del doc["scan"]
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert [p for p, _ in exc.value.errors] == [
            "molecule.mass", "scan", "beam.amplitudes", "potential.peaks[0].shape"]

    def test_template_waits_for_a_valid_potential(self):
        doc = _closed_doc("closed_mixed")
        doc["potential"]["peaks"][1]["shape"]["delta"] = 0.0
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert [p for p, _ in exc.value.errors] == ["potential.peaks[1].shape.delta"]


class TestCrossSectionProfile:
    def test_accepts_consistent_channels(self):
        t = np.linspace(0.0, 1.0, 8)
        a = np.full(8, 0.25)
        b = np.full(8, 0.75)
        p = CrossSectionProfile(thetas=t, sigma=a + b,
                                per_channel={(0, 0): a, (0, 2): b})
        assert p.sigma[0] == 1.0

    def test_rejects_descending_grid(self):
        t = np.linspace(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            CrossSectionProfile(thetas=t, sigma=np.ones(8))

    def test_rejects_negative_sigma(self):
        t = np.linspace(0.0, 1.0, 8)
        s = np.ones(8)
        s[3] = -1e-3
        with pytest.raises(ValueError):
            CrossSectionProfile(thetas=t, sigma=s)

    def test_rejects_channel_mismatch(self):
        t = np.linspace(0.0, 1.0, 8)
        s = np.ones(8)
        with pytest.raises(ValueError):
            CrossSectionProfile(thetas=t, sigma=s, per_channel={(0, 0): 0.5 * s})

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            CrossSectionProfile(thetas=np.array([0.0]), sigma=np.array([1.0]))


SHIPPED = {path.stem: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted((pathlib.Path(__file__).resolve().parent.parent
                               / "configs").glob("*.json"))}
# wrong types, values at and past the double range, an int past 2**53 and
# past the double range, and grating counts past the cap
LEAF_POOL = (None, True, False, "x", "", [], [1.0], {}, 0, -1, 0.5, 1e308, -1e308,
             1.7e308, 1e-320, 2**53 + 1, 10**400, math.inf, -math.inf, math.nan,
             MAX_GRATING_N + 1, 10**30)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SHIPPED)),
       st.lists(st.tuples(st.integers(0, 63), st.sampled_from(LEAF_POOL)),
                min_size=1, max_size=3))
def test_mutated_shipped_configs_accept_or_name_fields(name, mutations):
    # any leaf may change; the document is either accepted and
    # round-trips, or refused with paths under its own top-level blocks
    doc = copy.deepcopy(SHIPPED[name])
    paths = list(_leaf_paths(doc))
    for index, value in mutations:
        *parents, key = paths[index % len(paths)]
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
    try:
        config = validate_config(doc)
    except ConfigError as exc:
        assert exc.errors
        for path, _ in exc.errors:
            assert path.split(".")[0].split("[")[0] in doc, path
        return
    echo = serialize_config(config)
    assert serialize_config(validate_config(echo)) == echo
