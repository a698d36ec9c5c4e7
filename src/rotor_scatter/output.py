"""Deterministic emission: CSV, JSON, and minimal SVG.

Every number is printed with 17 significant digits so a 64-bit float
round-trips losslessly and repeated runs produce byte-identical files.
The JSON writer is hand-rolled for the same reason: dict keys are sorted
and float formatting is pinned rather than left to the stdlib default.

Numbers are formatted an array at a time: ``fmt_table`` checks a whole
array for finiteness once, then fills a template holding one ``%.17g``
per value in a single ``%`` call, which prints exactly what ``fmt_real``
prints per value. Each float vector a file holds is a ``Column``, whose
text is formatted once, one ``fmt_table`` string per ``_BLOCK_ROWS``
values, and shared: the CSV writers zip the split block texts of their
columns into row blocks, and ``emit_json`` writes a column as an array
by putting ``",\n" + indent`` between its values. The CLI hands the same
``Column`` objects to both writers, so a value is formatted once for
both files; the JSON writer drops a column's text once it has been
written. Both writers return string pieces for ``write_text``, so
neither joins or encodes a whole document, and both refuse a
non-finite value before the first piece is written. The SVG writers
compute pixel coordinates over arrays, with the same IEEE operations in
the same order as the scalar formula, keep per pixel column the M4
points of each curve (first, lowest, highest, last), which draw the same
polyline, and label axes, legend and titles with 6 significant digits.
The SVG is a view; the CSV and JSON are the authoritative outputs.
Every output byte is pinned by ``tests/output_sha256.json``.
"""

import hashlib
import math
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import CrossSectionProfile

__all__ = [
    "Column",
    "fmt_real",
    "fmt_label",
    "fmt_table",
    "emit_json",
    "manifest_hash",
    "profile_csv",
    "sweep_csv",
    "table_csv",
    "profile_svg",
    "sweep_svg",
    "write_text",
]

# values per formatted block: bounds the Python floats and the template of one
# fmt_table call, and the _BLOCK_ROWS x columns cell strings a CSV row block
# splits into (at 2,048 rows the 101 columns of a k*alpha = 100 profile
# split into ~15 MB of cells)
_BLOCK_ROWS = 512


def _finite(x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return x


def fmt_real(x: float) -> str:
    return format(_finite(x), ".17g")


def fmt_label(x: float) -> str:
    """A plot label: rounded to 6 significant digits, exponent and the
    sign of a zero kept."""
    return format(_finite(x), ".6g")


def fmt_table(values, sep: str = ",") -> str:
    """``fmt_real`` of every value of a 1-D or 2-D array, joined by sep
    within a row and by newlines between rows.

    One finiteness check covers the array, and one ``%`` call with a
    ``%.17g`` per value formats it, which prints what ``fmt_real`` prints;
    sep goes into that template, so it must not contain ``%``. A
    non-finite value raises ``fmt_real``'s error for the first one in row
    order.
    """
    arr = np.asarray(values, dtype=float)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    finite = np.isfinite(rows)
    if not finite.all():
        fmt_real(rows.flat[np.argmin(finite)])
    template = "\n".join([sep.join(["%.17g"] * rows.shape[1])] * rows.shape[0])
    return template % tuple(rows.ravel().tolist())


class Column:
    """A float vector of an output file, formatted at most once.

    ``blocks()`` is its ``fmt_real`` text: one string per ``_BLOCK_ROWS``
    values, the values separated by newlines. It is kept until ``drop()``,
    so every writer handed the same column reuses it.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self._blocks: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self) -> List[str]:
        if self._blocks is None:
            v = self.values
            self._blocks = [fmt_table(v[s:s + _BLOCK_ROWS], sep="\n")
                            for s in range(0, len(v), _BLOCK_ROWS)]
        return self._blocks

    def drop(self) -> None:
        self._blocks = None


def _column(values) -> Column:
    return values if isinstance(values, Column) else Column(values)


def _refuse_non_finite(columns: Sequence[Column]) -> None:
    """``fmt_real``'s error for the first non-finite value in row order."""
    bad = []
    for j, col in enumerate(columns):
        finite = np.isfinite(col.values)
        if not finite.all():
            bad.append((int(np.argmin(finite)), j))
    if bad:
        i, j = min(bad)
        fmt_real(columns[j].values[i])


def emit_json(value) -> Iterator[str]:
    """Canonical JSON as string pieces: sorted keys, pinned float format,
    LF separators.

    The document is laid out and every value checked before this returns,
    so a refusal writes nothing. A float vector (a ``Column``, a 1-D
    float64 array, or a list of plain floats) is one piece, made from its
    column's block texts when the piece is reached; the text is dropped
    before the piece is handed out.
    """
    out: List = []
    _emit_json(value, 0, out)
    return _json_pieces(out)


def _json_pieces(out: List) -> Iterator[str]:
    for piece in out:
        if isinstance(piece, str):
            yield piece
            continue
        column, sep = piece
        text = "\n".join(column.blocks()).replace("\n", sep)
        column.drop()
        yield text


def _emit_json(value, indent: int, out: List) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n"
        for k in sorted(value, key=str):
            out.append(f"{sep}{inner}{_json_string(str(k))}: ")
            _emit_json(value[k], indent + 1, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
        return
    vector = isinstance(value, Column) or (isinstance(value, np.ndarray)
                                           and value.ndim == 1
                                           and value.dtype == np.float64)
    if vector or isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        if vector or all(type(v) is float for v in value):
            column = _column(value)
            _refuse_non_finite([column])
            out.extend(["[\n" + inner, (column, ",\n" + inner)])
        else:
            sep = "[\n"
            for v in value:
                out.append(sep + inner)
                _emit_json(v, indent + 1, out)
                sep = ",\n"
        out.append("\n" + pad + "]")
        return
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_real(value))
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def manifest_hash(doc) -> str:
    """First 12 hex digits of the canonical-JSON digest of a manifest."""
    blob = "".join(emit_json(doc)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def channel_label(key: Tuple[int, int]) -> str:
    """Column name (CSV) and key (JSON) of the (l_in, l_out) channel."""
    return f"sigma_{key[0]}_{key[1]}"


def table_csv(header: List[str], columns: Sequence) -> Iterator[str]:
    """Header plus one row per index of the equal-length columns.

    Every column is checked and formatted before this returns; the row
    blocks are zipped from the column blocks as the pieces are taken.
    """
    columns = [_column(col) for col in columns]
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("every column must have one value per theta")
    _refuse_non_finite(columns)
    blocks = [col.blocks() for col in columns]
    return _csv_pieces(",".join(header), blocks)


def _csv_pieces(header: str, blocks: List[List[str]]) -> Iterator[str]:
    yield header + "\n"
    for row_block in zip(*blocks):
        cells = zip(*[text.split("\n") for text in row_block])
        yield "\n".join(map(",".join, cells)) + "\n"


def profile_csv(thetas, sigma,
                per_channel: Dict[Tuple[int, int], Sequence]) -> Iterator[str]:
    """theta, sigma, then one column per (l_in, l_out) channel in key order."""
    channels = sorted(per_channel)
    header = ["theta", "sigma"] + [channel_label(c) for c in channels]
    return table_csv(header, [thetas, sigma, *(per_channel[c] for c in channels)])


def sweep_csv(thetas, k_values: Sequence[float], columns: Sequence) -> Iterator[str]:
    """Matrix CSV: one row per theta, one sigma column per wavenumber."""
    if len(columns) != len(k_values):
        raise ValueError("one sigma column required per k value")
    header = ["theta"] + [f"k={fmt_real(k)}" for k in k_values]
    return table_csv(header, [thetas, *columns])


def write_text(path: Path, pieces: Iterable[str]) -> None:
    """Write the string pieces in order; each is encoded as it is written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


# fixed canvas for the optional plots; CSV remains the authoritative output
_W, _H, _MARGIN = 640, 420, 54
_COLORS = ("#1f6feb", "#d1242f", "#2da44e", "#bf8700", "#8250df", "#57606a")


def _svg_points(xs: np.ndarray, ys: np.ndarray, x_range, y_range) -> str:
    """The polyline's points, reduced per pixel column by M4 (Jugel et al.,
    PVLDB 7(10), 2014): of each run of consecutive points in one column
    floor(px) keep the first, the last, the first lowest and the first
    highest, in their order. The kept points draw the same polyline; a
    curve with at most one point per column keeps every point."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    # the scalar formula's operations in its order, so every point rounds alike
    px = _MARGIN + (xs - x_lo) / x_span * (_W - 2 * _MARGIN)
    py = _H - _MARGIN - (ys - y_lo) / y_span * (_H - 2 * _MARGIN)
    col = np.floor(px)
    new_run = np.concatenate(([True], col[1:] != col[:-1]))
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], px.size) - 1
    run = np.cumsum(new_run) - 1
    index = np.arange(px.size)
    keep = np.zeros(px.size, dtype=bool)
    keep[starts] = keep[ends] = True
    for extreme in (np.minimum, np.maximum):
        hit = py == extreme.reduceat(py, starts)[run]
        first_hit = np.minimum.reduceat(np.where(hit, index, px.size), starts)
        # a run with no hit (a NaN from an overflowing span) keeps its last point
        keep[np.minimum(first_hit, ends)] = True
    px, py = px[keep], py[keep]
    return (" ".join(["%.2f,%.2f"] * px.size)
            % tuple(np.column_stack((px, py)).ravel().tolist()))


def _first_min(a: np.ndarray) -> float:
    # first minimal element, as builtin min() picks it: keeps the sign of a zero
    return float(a[np.argmin(a)])


def _first_max(a: np.ndarray) -> float:
    return float(a[np.argmax(a)])


def _svg_document(series: Iterable[Tuple[str, Sequence[float], Sequence[float]]],
                  x_label: str, y_label: str, title: str) -> str:
    series = [(name, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for name, xs, ys in series]
    x_lo = min(_first_min(xs) for _, xs, _ in series)
    x_hi = max(_first_max(xs) for _, xs, _ in series)
    y_lo = min(_first_min(ys) for _, _, ys in series)
    y_hi = max(_first_max(ys) for _, _, ys in series)
    y_lo = min(y_lo, 0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    ax = (f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
          f'y2="{_H - _MARGIN}" stroke="black"/>'
          f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
          f'y2="{_H - _MARGIN}" stroke="black"/>')
    parts.append(ax)
    for label, x, anchor in ((fmt_label(x_lo), _MARGIN, "middle"),
                             (fmt_label(x_hi), _W - _MARGIN, "middle")):
        parts.append(f'<text x="{x}" y="{_H - _MARGIN + 20}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for label, y in ((fmt_label(y_lo), _H - _MARGIN),
                     (fmt_label(y_hi), _MARGIN + 4)):
        parts.append(f'<text x="{_MARGIN - 6}" y="{y}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{x_label}</text>')
    parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_H // 2})">{y_label}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = _svg_points(xs, ys, (x_lo, x_hi), (y_lo, y_hi))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ly = _MARGIN + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MARGIN - 150}" y1="{ly - 4}" '
                     f'x2="{_W - _MARGIN - 126}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MARGIN - 120}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def profile_svg(profiles: Iterable[Tuple[str, CrossSectionProfile]],
                title: str) -> str:
    series = [(name, p.thetas, p.sigma) for name, p in profiles]
    return _svg_document(series, "theta (rad)", "cross section", title)


def sweep_svg(thetas: Sequence[float], k_values: Sequence[float],
              columns: Sequence[Sequence[float]], title: str) -> str:
    series = [(f"k={fmt_label(k)}", thetas, col)
              for k, col in zip(k_values, columns)]
    return _svg_document(series, "theta (rad)", "cross section", title)
