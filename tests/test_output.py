"""Serialization determinism: number formatting, JSON, CSV, SVG."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotor_scatter import output
from rotor_scatter.model import CrossSectionProfile
from rotor_scatter.output import (
    _BLOCK_ROWS,
    _CHUNK,
    Column,
    emit_json,
    fmt_table,
    fmt_real,
    manifest_hash,
    profile_csv,
    profile_svg,
    sweep_csv,
    sweep_svg,
    table_csv,
    write_text,
)


def json_text(value):
    return "".join(emit_json(value))


def sweep_text(thetas, k_values, columns):
    return "".join(sweep_csv(thetas, k_values, columns))


def profile_text(p):
    return "".join(profile_csv(p.thetas, p.sigma, p.per_channel or {}))


class TestFmtReal:
    def test_seventeen_significant_digits(self):
        assert fmt_real(0.1) == "0.10000000000000001"
        assert fmt_real(1.0) == "1"
        assert fmt_real(-2.5e-7) == "-2.4999999999999999e-07"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_lossless(self, x):
        assert float(fmt_real(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fmt_real(float("nan"))
        with pytest.raises(ValueError):
            fmt_real(float("inf"))


# edge values of the 17-digit format: signed zeros, subnormals, the
# largest finite doubles and exponents near +-300
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.5e-310, 1.7976931348623157e308, -1.7976931348623157e308,
               1e300, -3.3e-300, 1e-300, 0.1, 1.0, -2.5e-7, 123456789.0]


def ref_table(values, sep=","):
    """fmt_real per value, joined the way fmt_table documents."""
    rows = values if values and isinstance(values[0], list) else [values]
    return "\n".join(sep.join(fmt_real(v) for v in row) for row in rows)


def ref_emit_json(value, indent=0):
    """The recursive per-value writer the fast path must reproduce."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json_text(str(k))}: {ref_emit_json(value[k], indent + 1)}'
                for k in sorted(value, key=str)]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{ref_emit_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, float):
        return fmt_real(value)
    return json_text(value)


def ref_sweep_csv(thetas, k_values, columns):
    lines = [",".join(["theta"] + [f"k={fmt_real(k)}" for k in k_values])]
    for i, th in enumerate(thetas):
        lines.append(",".join([fmt_real(th)] + [fmt_real(c[i]) for c in columns]))
    return "\n".join(lines) + "\n"


def ref_profile_csv(profile):
    channels = sorted(profile.per_channel) if profile.per_channel else []
    cols = ["theta", "sigma"] + [f"sigma_{a}_{b}" for a, b in channels]
    lines = [",".join(cols)]
    for i in range(profile.thetas.size):
        row = [fmt_real(profile.thetas[i]), fmt_real(profile.sigma[i])]
        row.extend(fmt_real(profile.per_channel[c][i]) for c in channels)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def edge_column(n, shift=0):
    """n values cycling through EDGE_VALUES and a spread of magnitudes."""
    rng = np.random.default_rng(n + shift)
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    edges = np.resize(np.array(EDGE_VALUES), n)
    return np.where(np.arange(n) % 3 == 0, edges, spread)


def mirror_repeats(values):
    """How many values i of the back half have the bits of value n - 1 - i."""
    values = np.asarray(values, dtype=float)
    n = values.size
    return sum(values[i].tobytes() == values[n - 1 - i].tobytes()
               for i in range(n - n // 2, n))


class TestFmtTable:
    def test_edge_values_match_fmt_real(self):
        assert fmt_table(EDGE_VALUES) == ref_table(EDGE_VALUES)
        assert fmt_table(np.array(EDGE_VALUES), sep=",\n  ") == \
            ref_table(EDGE_VALUES, sep=",\n  ")
        assert fmt_table(EDGE_VALUES, sep="%s,%%d") == ref_table(EDGE_VALUES, sep="%s,%%d")
        table = [EDGE_VALUES[:5], EDGE_VALUES[5:10], EDGE_VALUES[10:15]]
        assert fmt_table(np.array(table)) == ref_table(table)
        assert fmt_table([]) == ""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_matches_fmt_real_per_value(self, values):
        assert fmt_table(values) == ref_table(values)
        assert fmt_table(np.array(values, dtype=float), sep=" ") == \
            ref_table(values, sep=" ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_non_finite_value_named(self, bad):
        # first in row order is bad; first in column order would be the nan
        table = np.array([[1.0, bad, 3.0], [math.nan, 2.0, -math.inf]])
        with pytest.raises(ValueError) as got:
            fmt_table(table)
        with pytest.raises(ValueError) as want:
            fmt_real(bad)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("cannot serialize non-finite value ")


def powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)])


def kernel_range_ends():
    ends = np.array([10.0 ** output._E_LO, 10.0 ** (output._E_HI + 1)])
    return np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf)])


# the values where a kernel that settles the decade from yh alone, or that
# trusts log10 near a power of ten, would print a wrong text
TRAPS = [9.9999999999999997e+98, 9.9999999999999996e-39, 1e+20]

EXACT_CORPUS = {
    "zeros_and_subnormal": [0.0, -0.0, 5e-324, -5e-324],
    "normal_ends": [2.2250738585072014e-308, 1.7976931348623157e308,
                    -2.2250738585072014e-308, -1.7976931348623157e308],
    "powers_of_ten": powers_of_ten_and_neighbours(),
    "integers": np.concatenate([2.0 ** 53 + np.arange(-4, 5),
                                1e16 + np.arange(-64, 65),
                                1e17 + 16 * np.arange(-64, 65)]),
    "kernel_range_ends": kernel_range_ends(),
    "traps": TRAPS + [-v for v in TRAPS],
}


class TestFmtTableExact:
    """fmt_table against fmt_real where a fixed-precision conversion can
    go wrong; the per-value reference is the exact dtoa."""

    @pytest.mark.parametrize("name", sorted(EXACT_CORPUS))
    def test_corpus_matches_fmt_real(self, name):
        values = np.asarray(EXACT_CORPUS[name], dtype=float)
        assert fmt_table(values, sep="\n").split("\n") == \
            [fmt_real(v) for v in values.tolist()]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_bit_patterns_match_fmt_real(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert fmt_table(values) == ref_table(values.tolist())

    def test_exact_path_only_where_uncertified(self, monkeypatch):
        calls = []
        real_fmt_real = output.fmt_real
        monkeypatch.setattr(output, "fmt_real",
                            lambda x: calls.append(x) or real_fmt_real(x))
        outside = [10.0 ** (output._E_LO - 1), 10.0 ** (output._E_HI + 2), 5e-324]
        assert fmt_table([1e20, 0.5, -0.0, *outside]) == \
            ref_table([1e20, 0.5, -0.0, *outside])
        assert calls == [1e20, *outside]
        calls.clear()
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 20001)
        assert fmt_table(thetas, sep="\n") == ref_table(thetas.tolist(), sep="\n")
        assert calls == []


class TestEmitJson:
    def test_sorted_keys_and_types(self):
        doc = {"b": [1, 2.5, "x"], "a": {"nested": True, "z": None}}
        text = json_text(doc)
        assert text.index('"a"') < text.index('"b"')
        assert "true" in text and "null" in text
        assert "2.5" in text

    def test_escaping(self):
        assert json_text('he said "hi"\n') == '"he said \\"hi\\"\\n"'

    # the C0 controls, the two characters JSON escapes, and non-ASCII text
    # in and beyond the Basic Multilingual Plane
    @pytest.mark.parametrize("s", [chr(c) for c in range(0x20)]
                             + ['"', "\\", "\u00e9", "\u03b8=0", "\U0001d70b"])
    def test_strings_are_the_stdlib_text(self, s):
        want = json.dumps(s, ensure_ascii=False)
        assert json_text(s) == want
        assert json.loads(json_text(s)) == s
        doc = {s: s}
        assert json_text(doc) == "{\n  " + want + ": " + want + "\n}"
        assert json.loads(json_text(doc)) == doc

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            json_text({"x": object()})

    def test_empty_containers(self):
        assert json_text({}) == "{}"
        assert json_text([]) == "[]"


class TestManifestHash:
    def test_twelve_hex_digits(self):
        h = manifest_hash({"subcommand": "profile"})
        assert len(h) == 12
        assert all(c in "0123456789abcdef" for c in h)

    def test_key_order_does_not_matter(self):
        a = manifest_hash({"x": 1, "y": 2})
        b = manifest_hash({"y": 2, "x": 1})
        assert a == b

    def test_content_changes_hash(self):
        assert manifest_hash({"x": 1}) != manifest_hash({"x": 2})


def small_profile():
    th = np.linspace(-1.0, 1.0, 5)
    sigma = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
    per = {(0, 0): sigma * 0.75, (0, -2): sigma * 0.125, (0, 2): sigma * 0.125}
    return CrossSectionProfile(thetas=th, sigma=sigma, per_channel=per)


class TestCsv:
    def test_profile_header_and_rows(self):
        text = profile_text(small_profile())
        lines = text.strip().split("\n")
        assert lines[0] == "theta,sigma,sigma_0_-2,sigma_0_0,sigma_0_2"
        assert len(lines) == 6
        cells = lines[3].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[1]) == 4.0
        assert float(cells[2]) == 0.5

    def test_profile_without_channels(self):
        th = np.linspace(0.0, 1.0, 3)
        p = CrossSectionProfile(thetas=th, sigma=np.ones(3))
        assert profile_text(p).split("\n")[0] == "theta,sigma"

    def test_lf_endings_only(self):
        assert "\r" not in profile_text(small_profile())

    def test_sweep_matrix(self):
        th = [0.0, 0.5]
        text = sweep_text(th, [1.0, 2.0], [[3.0, 4.0], [5.0, 6.0]])
        lines = text.strip().split("\n")
        assert lines[0] == "theta,k=1,k=2"
        assert lines[1] == "0,3,5"
        assert lines[2] == "0.5,4,6"

    def test_sweep_shape_mismatch(self):
        with pytest.raises(ValueError):
            sweep_csv([0.0], [1.0, 2.0], [[3.0]])


class TestSvg:
    def test_profile_svg_structure(self):
        text = profile_svg([("demo", small_profile())], "demo plot")
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "demo plot" in text
        assert text == profile_svg([("demo", small_profile())], "demo plot")

    def test_sweep_svg_one_series_per_k(self):
        th = [0.0, 0.5, 1.0]
        cols = [[1.0, 2.0, 1.0], [2.0, 3.0, 2.0]]
        text = sweep_svg(th, [1.0, 2.0], cols, "sweep")
        assert text.count("<polyline") == 2

    def test_every_legend_entry_on_the_canvas(self):
        # 40 k values, as in a dense sweep: the legend wraps into columns
        ks = [0.25 * i for i in range(1, 41)]
        th = np.linspace(-1.0, 1.0, 9)
        text = sweep_svg(th, ks, [np.cos(k * th) ** 2 for k in ks], "sweep")
        for k in ks:
            assert f">k={k:g}</text>" in text
        coords = [float(v) for v in re.findall(r' (?:x|x1|x2)="([-0-9.]+)"', text)]
        assert coords and all(0 <= x <= 640 for x in coords)
        coords = [float(v) for v in re.findall(r' (?:y|y1|y2)="([-0-9.]+)"', text)]
        assert coords and all(0 <= y <= 420 for y in coords)


# row counts around one formatting block, and four blocks with and without
# a one-row tail
BLOCK_EDGES = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
               4 * _BLOCK_ROWS, 4 * _BLOCK_ROWS + 1]
# value counts around one chunk of the formatting kernel, and three chunks
# with a tail
CHUNK_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


class TestWritersMatchPerValueReference:
    # and a table of the theta column alone, where every cell ends a row
    @pytest.mark.parametrize("rows, ks", [
        *(pytest.param(r, [0.25, 1.0, 1e-300], id=str(r)) for r in [1, *BLOCK_EDGES]),
        *(pytest.param(r, [], id=f"theta_only-{r}") for r in BLOCK_EDGES)])
    def test_sweep_csv_across_block_boundary(self, rows, ks):
        thetas = np.linspace(-1.5, 1.5, rows) if rows > 1 else np.array([-0.0])
        columns = [edge_column(rows, s) for s in range(len(ks))]
        assert sweep_text(thetas, ks, columns) == ref_sweep_csv(thetas, ks, columns)

    # and the Column twice in a JSON list, its values 6 spaces in
    @pytest.mark.parametrize("n, nested", [
        *(pytest.param(n, False, id=str(n)) for n in CHUNK_EDGES),
        *(pytest.param(n, True, id=f"nested-{n}") for n in CHUNK_EDGES)])
    def test_column_across_chunk_boundary(self, n, nested):
        # one Column through both writers, against the per-value reference
        values = edge_column(n, 7)
        thetas = np.linspace(-1.5, 1.5, n)
        column = Column(values)
        assert sweep_text(thetas, [2.0], [column]) == \
            ref_sweep_csv(thetas, [2.0], [values])

        def doc(col):
            return {"with": [col, col]} if nested else {"sigma": col}

        assert json_text(doc(column)) == ref_emit_json(doc(values.tolist()))

    def test_sweep_csv_integer_list_entries(self):
        thetas = [0, 0.5, 1]
        columns = [[3, 4.0, -0.0], [5.5, 0, 2**52 + 1]]
        text = sweep_text(thetas, [1, 2.0], columns)
        assert text == ref_sweep_csv(thetas, [1, 2.0], columns)
        assert text.split("\n")[3] == "1,-0,4503599627370497"

    @pytest.mark.parametrize("rows", [2, *BLOCK_EDGES])
    @pytest.mark.parametrize("n_channels", [0, 3])
    def test_profile_csv_across_block_boundary(self, rows, n_channels):
        # a profile holds >= 2 ascending angles and non-negative sigma
        def sigma_like(shift):
            col = np.abs(edge_column(rows, shift))
            col[::5] = -0.0
            return col

        # a quarter each, so three channels sum without overflow
        per = {(0, 2 * i - 2): 0.25 * sigma_like(i) for i in range(n_channels)}
        sigma = sum(per.values()) if per else sigma_like(9)
        p = CrossSectionProfile(thetas=np.linspace(-1.5, 1.5, rows),
                                sigma=sigma, per_channel=per or None)
        assert profile_text(p) == ref_profile_csv(p)

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    def test_documents_share_one_formatting_pass(self, rows, monkeypatch):
        # the CLI's documents: each array is one Column that the CSVs and
        # the JSON both write, and every value is formatted exactly once
        formatted = []
        real_format_cells = output._format_cells
        monkeypatch.setattr(output, "_format_cells", lambda x: (
            formatted.append(x.size) or real_format_cells(x)))
        thetas = np.linspace(-1.5, 1.5, rows)
        ks = [0.5, 1e-300, 7.0]
        # a quarter each, so three channels sum without overflow
        arrays = [0.25 * np.abs(edge_column(rows, s)) for s in range(2 * len(ks))]

        def as_lists(doc):
            if isinstance(doc, dict):
                return {key: as_lists(v) for key, v in doc.items()}
            if isinstance(doc, list):
                return [as_lists(v) for v in doc]
            return doc.values.tolist() if isinstance(doc, Column) else doc

        # sweep: one CSV, one JSON
        theta, sigma = Column(thetas), [Column(a) for a in arrays[:3]]
        assert sweep_text(theta, ks, sigma) == ref_sweep_csv(thetas, ks, arrays[:3])
        doc = {"theta": theta, "k": ks, "sigma_columns": sigma,
               "engine": "structureless"}
        assert json_text(doc) == ref_emit_json(as_lists(doc))
        # compare: two CSVs, one JSON holding both column sets and reports
        theta, sigma = Column(thetas), [Column(a) for a in arrays]
        for half in (slice(0, 3), slice(3, 6)):
            assert sweep_text(theta, ks, sigma[half]) == \
                ref_sweep_csv(thetas, ks, arrays[half])
        reports = [{"k": k, "window": [-0.25, 0.5], "visibility_with": 0.75,
                    "visibility_without": 1.0, "suppression_ratio": 0.75}
                   for k in ks]
        doc = {"theta": theta, "k": ks, "with": sigma[:3], "without": sigma[3:],
               "engine": "general", "reports": reports}
        assert json_text(doc) == ref_emit_json(as_lists(doc))
        # per-channel profile: channels in (l_in, l_out) order in the CSV
        p = CrossSectionProfile(thetas=thetas, sigma=sum(arrays[:3]),
                                per_channel={(0, 2 * i - 2): arrays[i] for i in range(3)})
        theta, total = Column(thetas), Column(p.sigma)
        per_channel = {key: Column(a) for key, a in p.per_channel.items()}
        assert "".join(profile_csv(theta, total, per_channel)) == ref_profile_csv(p)
        doc = {"theta": theta, "sigma": total, "metadata": {"k": 2.5},
               "channels": {f"sigma_{a}_{b}": c for (a, b), c in per_channel.items()}}
        assert json_text(doc) == ref_emit_json(as_lists(doc))
        # rows values per Column: 4 in the sweep, 7 in the compare and 5 in
        # the profile, less each back-half value with its mirror's bits; the
        # k lists of two documents and three windows. edge_column holds
        # EDGE_VALUES with period 15 at every third index, and 511 - 1 is
        # 34 * 15: there 221 values repeat their mirror's bits
        columns = [thetas, *arrays[:3], thetas, *arrays, thetas, p.sigma, *arrays[:3]]
        assert sum(map(mirror_repeats, columns)) == (221 if rows == 511 else 0)
        assert sum(formatted) == ((4 + 7 + 5) * rows + 2 * len(ks) + 3 * 2
                                  - (221 if rows == 511 else 0))

    def test_columns_must_match_theta_grid(self):
        with pytest.raises(ValueError):
            sweep_csv([0.0, 0.5, 1.0], [1.0], [[3.0, 4.0]])

    def test_mixed_json_document(self):
        doc = {
            "floats": EDGE_VALUES,
            "tuple": tuple(EDGE_VALUES[:4]),
            "ints": [1, -2, 0],
            "mixed": [1.5, 2, True, None, np.float64(-0.0), "s", 5e-324],
            "bools": [True, False],
            "numpy": [np.float64(0.1), np.float64(1e300)],
            "nested": [[0.25, -0.0], [], [[1e-300]], {"b": [2.0], "a": 1}],
            "empty": {},
            "scalar": np.float64(5e-324),
            "column": edge_column(_BLOCK_ROWS + 1).tolist(),
        }
        assert json_text(doc) == ref_emit_json(doc)
        assert json.loads(json_text(doc))["floats"] == EDGE_VALUES

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS + 1, 4 * _BLOCK_ROWS + 1])
    def test_float_array_writes_as_its_list(self, n):
        # a bare 1-D float64 array lays out as a Column of its own would;
        # the CLI itself hands emit_json Columns
        col = edge_column(n)
        doc = {"sigma": col, "columns": [col, col[::-1]], "k": [1.0]}
        as_lists = {"sigma": col.tolist(),
                    "columns": [col.tolist(), col[::-1].tolist()], "k": [1.0]}
        assert json_text(doc) == ref_emit_json(as_lists)

    def test_other_arrays_still_rejected(self):
        for arr in (np.zeros((2, 2)), np.arange(3), np.zeros(3, dtype=np.float32)):
            with pytest.raises(TypeError):
                json_text({"a": arr})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_anywhere_rejected(self, bad):
        rows = _BLOCK_ROWS + 1
        message = "cannot serialize non-finite value "
        for where in (0, _BLOCK_ROWS - 1, rows - 1):
            col = edge_column(rows)
            col[where] = bad
            with pytest.raises(ValueError, match=message):
                sweep_csv(np.linspace(0.0, 1.0, rows), [1.0], [col])
            with pytest.raises(ValueError, match=message):
                json_text({"sigma": col.tolist()})
            with pytest.raises(ValueError, match=message):
                json_text([[1.0, 2], col.tolist()])
            with pytest.raises(ValueError, match=message):
                json_text({"sigma": col})
            with pytest.raises(ValueError, match=message):
                json_text([[1.0, 2], col])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refusal_writes_no_file(self, tmp_path, bad):
        # a non-finite value in the last block or chunk is refused before
        # the file is opened, with fmt_real's error for the first one in
        # row order
        rows = 2 * _BLOCK_ROWS + 1
        thetas = np.linspace(0.0, 1.0, rows)
        early, late = edge_column(rows, 1), edge_column(rows, 2)
        early[rows - 1] = -math.inf
        late[rows - 2] = bad
        # and in the last formatting chunk of a longer column
        long = edge_column(3 * _CHUNK + 7, 3)
        long[3 * _CHUNK + 2] = bad
        with pytest.raises(ValueError) as want:
            fmt_real(bad)
        writers = {
            "sweep.csv": lambda: sweep_csv(thetas, [1.0, 2.0], [early, late]),
            "profile.csv": lambda: profile_csv(thetas, late, {(0, 0): early}),
            "table.csv": lambda: table_csv(["n", "J_n"], [thetas, late]),
            "sweep.json": lambda: emit_json({"theta": thetas,
                                             "sigma_columns": [late, early]}),
            "list.json": lambda: emit_json({"sigma": late.tolist()}),
            "long.csv": lambda: table_csv(["n", "J_n"], [np.arange(long.size), long]),
            "long.json": lambda: emit_json({"values": Column(long)}),
        }
        for name, writer in writers.items():
            with pytest.raises(ValueError) as got:
                write_text(tmp_path / name, writer())
            assert str(got.value) == str(want.value), name
            assert not (tmp_path / name).exists(), name


# signed zeros, subnormals, fmt_real's fallbacks and kernel values
MIRROR_POOL = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072009e-308,
                        1e20, 1e-300, 1e300, 0.1, 1.0, -2.5e-7, 123456789.0])


def mirrored_column(n, rng):
    """n values whose back half mostly repeats its mirror's bits, index
    n - 1 - i: a share is negated or replaced, and the outermost two
    pairs are +0.0 against -0.0."""
    values = np.where(rng.random(n) < 0.5, rng.choice(MIRROR_POOL, n),
                      rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n))
    half = n // 2
    back = values[n - half:]
    back[:] = values[:half][::-1]
    back[rng.random(half) < 0.2] *= -1.0
    changed = rng.random(half) < 0.1
    back[changed] = rng.choice(MIRROR_POOL, changed.sum())
    if half >= 2:
        values[[0, 1, n - 2, n - 1]] = [0.0, -0.0, 0.0, -0.0]
    return values


class TestMirroredColumns:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_text_is_fmt_real_per_value(self, n, monkeypatch):
        formatted = []
        real_format_cells = output._format_cells
        monkeypatch.setattr(output, "_format_cells", lambda x: (
            formatted.append(x.size) or real_format_cells(x)))
        values = mirrored_column(n, np.random.default_rng(n))
        thetas = np.linspace(-1.0, 1.0, n)
        column = Column(values)
        csv = sweep_text(thetas, [2.0], [column])
        assert csv == ref_sweep_csv(thetas, [2.0], [values])
        assert json_text({"sigma": column}) == ref_emit_json({"sigma": values.tolist()})
        assert fmt_table(values) == ref_table(values.tolist())
        if n >= 4:  # +0.0 prints 0 and -0.0 prints -0, at either end
            rows = [line.split(",")[1] for line in csv.splitlines()[1:]]
            assert rows[:2] == ["0", "-0"] and rows[-2:] == ["0", "-0"]
        # each value that repeats its mirror's bits is copied, not formatted:
        # the theta column has none, the sigma column once, fmt_table's again
        repeats = mirror_repeats(values)
        assert mirror_repeats(thetas) == 0
        assert sum(formatted) == n + 2 * (n - repeats)
        assert repeats >= (n // 2) // 2


def ref_svg_coords(xs, ys, x_range, y_range):
    """The per-point scalar formula of the SVG writer: (px, py) floats."""
    (x_lo, x_hi), (y_lo, y_hi) = x_range, y_range
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    return ([54 + (x - x_lo) / x_span * 532 for x in xs],
            [420 - 54 - (y - y_lo) / y_span * 312 for y in ys])


def ref_m4(px, py):
    """Kept indices, pure Python: per run of consecutive points in one pixel
    column, the first, the last, the first minimum and the first maximum of py."""
    keep = set()
    start = 0
    for i in range(1, len(px) + 1):
        if i == len(px) or math.floor(px[i]) != math.floor(px[start]):
            idx = range(start, i)
            keep.update((start, i - 1, min(idx, key=lambda j: py[j]),
                         max(idx, key=lambda j: py[j])))
            start = i
    return sorted(keep)


def svg_point_text(px, py, indices):
    return " ".join(f"{px[i]:.2f},{py[i]:.2f}" for i in indices)


def written_points(text, n):
    """The points attribute of the n-th polyline."""
    return text.split('<polyline')[n + 1].split('points="')[1].split('"')[0]


def curve_points(xs, ys):
    """(written points, scalar px, scalar py) of a one-curve sweep SVG;
    unlike a profile, a sweep's x need not ascend."""
    text = sweep_svg(xs, [1.0], [ys], "t")
    rx = (min(xs), max(xs))
    ry = (min(min(ys), 0.0), max(ys))
    px, py = ref_svg_coords(xs, ys, rx, ry)
    return written_points(text, 0), px, py


def noisy_curve(n, rng):
    ys = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-5, 6, n)
    ys[::7] = -0.0
    return ys.tolist()


class TestSvgArrays:
    def test_points_match_scalar_formula(self):
        # ~7.5 points per pixel column, so M4 drops most of them
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-1.6, 1.6, 4001)).tolist()
        got, px, py = curve_points(xs, noisy_curve(4001, rng))
        keep = ref_m4(px, py)
        # each point written is the scalar formula at its kept source index
        assert got == svg_point_text(px, py, keep)
        assert len(got.split()) == len(keep) < 4001
        columns = [math.floor(px[i]) for i in keep]
        assert max(columns.count(c) for c in set(columns)) <= 4
        # the extremes of the curve survive, so the drawn range is the same
        assert {min(range(4001), key=py.__getitem__),
                max(range(4001), key=py.__getitem__)} <= set(keep)

    def test_one_point_per_column_keeps_every_point(self):
        rng = np.random.default_rng(4)
        xs = np.linspace(-1.5, 1.5, 400).tolist()
        ys = noisy_curve(400, rng)
        got, px, py = curve_points(xs, ys)
        assert len({math.floor(x) for x in px}) == 400
        assert got == svg_point_text(px, py, range(400))

    def test_descending_x(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-1.6, 1.6, 3001))[::-1].tolist()
        got, px, py = curve_points(xs, noisy_curve(3001, rng))
        keep = ref_m4(px, py)
        assert got == svg_point_text(px, py, keep)
        columns = [math.floor(px[i]) for i in keep]
        assert max(columns.count(c) for c in set(columns)) <= 4

    def test_runs_not_columns(self):
        # x doubles back into pixel column 54: each visit is its own run
        xs = [0.0, 0.0003, 0.0006, 0.0009, 0.0012, 1.0,
              0.0001, 0.0004, 0.0007, 0.001, 0.0013]
        ys = [1.0, 5.0, 0.0, 2.0, 3.0, 4.0,
              2.0, 2.0, 6.0, -1.0, 2.0]
        got, px, py = curve_points(xs, ys)
        assert ref_m4(px, py) == [0, 1, 2, 4, 5, 6, 8, 9, 10]
        assert got == svg_point_text(px, py, [0, 1, 2, 4, 5, 6, 8, 9, 10])

    @pytest.mark.parametrize("col,label", [([-0.0, 1.0, 0.0], "-0"),
                                           ([0.0, 1.0, -0.0], "0")])
    def test_axis_label_keeps_first_zero_sign(self, col, label):
        text = sweep_svg([0.0, 0.5, 1.0], [1.0], [col], "zeros")
        assert f'text-anchor="end" font-family="sans-serif" font-size="11">{label}<' in text

    @pytest.mark.parametrize("scale,top", [(1.2345678901234566e-07, "1.23457e-07"),
                                           (8.6e22, "8.6e+22")])
    def test_labels_round_and_keep_the_exponent(self, scale, top):
        xs = [-0.5999999999999999, 0.0, 0.5999999999999999]
        text = sweep_svg(xs, [1.0999999999999999], [[0.0, scale, 0.5 * scale]], "s")
        labels = [t.split("<")[0] for t in text.split('font-size="11">')[1:]]
        assert labels == ["-0.6", "0.6", "0", top, "k=1.1"]


class TestPinnedBytes:
    def test_every_output_file_reproduced(self, tmp_path, monkeypatch):
        """sha256 of all files of the figure runs and a per-channel profile,
        and the goldens read from the same runs, both frozen by
        scripts/freeze_output_bytes.py: the two pin files cannot disagree."""
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "scripts"))
        from freeze_output_bytes import output_digests

        frozen = json.loads((root / "tests" / "output_sha256.json").read_text())
        digests, goldens = output_digests(tmp_path)
        assert digests == frozen
        assert goldens == json.loads((root / "tests" / "goldens.json").read_text())
