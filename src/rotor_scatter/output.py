"""Deterministic emission: CSV, JSON, and minimal SVG.

Every number is printed with 17 significant digits so a 64-bit float
round-trips losslessly and repeated runs produce byte-identical files.
The JSON writer is hand-rolled for the same reason: dict keys are sorted
and float formatting is pinned rather than left to the stdlib default.

Numbers are formatted an array at a time: ``fmt_table`` checks a whole
array for finiteness once, then fills a template holding one ``%.17g``
per value in a single ``%`` call, which prints exactly what ``fmt_real``
prints per value. The CSV writers format blocks of ``_BLOCK_ROWS`` rows,
so only one block is held as Python floats at a time. ``emit_json``
appends to a single list and joins once; a list of plain floats or a
1-D float64 array is one ``fmt_table`` call. The SVG writers compute
pixel coordinates over arrays, with the same IEEE operations in the same
order as the scalar formula, and format each curve in one call. Every output byte is pinned
by ``tests/output_sha256.json``.
"""

import hashlib
import math
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .model import CrossSectionProfile

__all__ = [
    "fmt_real",
    "fmt_table",
    "emit_json",
    "manifest_hash",
    "profile_csv",
    "sweep_csv",
    "profile_svg",
    "sweep_svg",
    "write_text",
]

# CSV rows formatted per block: bounds the Python floats and templates held at once
_BLOCK_ROWS = 2048


def fmt_real(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


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


def emit_json(value) -> str:
    """Canonical JSON: sorted keys, pinned float format, LF separators."""
    out: List[str] = []
    _emit_json(value, 0, out)
    return "".join(out)


def _emit_json(value, indent: int, out: List[str]) -> None:
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
    vector = isinstance(value, np.ndarray) and value.ndim == 1 \
        and value.dtype == np.float64
    if vector or isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        if vector or all(type(v) is float for v in value):
            out.append("[\n" + inner + fmt_table(value, sep=",\n" + inner))
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
    blob = emit_json(doc).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def channel_label(key: Tuple[int, int]) -> str:
    """Column name (CSV) and key (JSON) of the (l_in, l_out) channel."""
    return f"sigma_{key[0]}_{key[1]}"


def _csv_text(header: List[str], columns: Sequence) -> str:
    """Header plus one row per index of the equal-length columns."""
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("every column must have one value per theta")
    pieces = [",".join(header), "\n"]
    for start in range(0, n, _BLOCK_ROWS):
        block = np.column_stack([np.asarray(col[start:start + _BLOCK_ROWS], dtype=float)
                                 for col in columns])
        pieces.append(fmt_table(block))
        pieces.append("\n")
    return "".join(pieces)


def profile_csv(profile: CrossSectionProfile) -> str:
    channels = sorted(profile.per_channel) if profile.per_channel else []
    header = ["theta", "sigma"] + [channel_label(c) for c in channels]
    columns = [profile.thetas, profile.sigma]
    columns.extend(profile.per_channel[c] for c in channels)
    return _csv_text(header, columns)


def sweep_csv(thetas: Sequence[float], k_values: Sequence[float],
              columns: Sequence[Sequence[float]]) -> str:
    """Matrix CSV: one row per theta, one sigma column per wavenumber."""
    if len(columns) != len(k_values):
        raise ValueError("one sigma column required per k value")
    header = ["theta"] + [f"k={fmt_real(k)}" for k in k_values]
    return _csv_text(header, [thetas, *columns])


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# fixed canvas for the optional plots; CSV remains the authoritative output
_W, _H, _MARGIN = 640, 420, 54
_COLORS = ("#1f6feb", "#d1242f", "#2da44e", "#bf8700", "#8250df", "#57606a")


def _svg_points(xs: np.ndarray, ys: np.ndarray, x_range, y_range) -> str:
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    # the scalar formula's operations in its order, so every point rounds alike
    px = _MARGIN + (xs - x_lo) / x_span * (_W - 2 * _MARGIN)
    py = _H - _MARGIN - (ys - y_lo) / y_span * (_H - 2 * _MARGIN)
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
    for label, x, anchor in ((fmt_real(x_lo)[:10], _MARGIN, "middle"),
                             (fmt_real(x_hi)[:10], _W - _MARGIN, "middle")):
        parts.append(f'<text x="{x}" y="{_H - _MARGIN + 20}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for label, y in ((fmt_real(y_lo)[:10], _H - _MARGIN),
                     (fmt_real(y_hi)[:10], _MARGIN + 4)):
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
    series = [(f"k={fmt_real(k)[:8]}", thetas, col)
              for k, col in zip(k_values, columns)]
    return _svg_document(series, "theta (rad)", "cross section", title)
