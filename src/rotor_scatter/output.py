"""Deterministic emission: CSV, JSON, and minimal SVG.

Every number is printed with 17 significant digits so a 64-bit float
round-trips losslessly and repeated runs produce byte-identical files.
Every JSON leaf that is not a float, and every dict key, is the text of
one stdlib encoder (``ensure_ascii=False``). Three things stay
hand-written, because that encoder cannot do them:

- floats print as ``%.17g``; the encoder prints ``float.__repr__``, the
  shortest round-trip text, and has no hook to change that;
- a ``Column`` streams from its kernel cells ``_CHUNK`` values per piece,
  where the encoder would convert each value in Python;
- the layout (keys sorted by ``str``, two-space indent, LF separators) is
  a list of pieces, built and checked whole before the first is written,
  so a refusal writes nothing and a large document is never joined.

``fmt_real`` is the reference: Python's ``%.17g``, an exact bignum
conversion of one value. ``fmt_table`` prints the same text for a whole
array with a numpy kernel, ``_CHUNK`` values at a time, that scales by a
power of ten held to ~106 bits and certifies the rounding, as Ryu printf
does (Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019):

- E0 = floor(log10 |x|). For E0 in [_E_LO, _E_HI] (|x| from about 1e-230
  to 1e230) the power P = 10**(16 - E0) is held as ph = fl(P) and
  pl = fl(P - ph), built from Python ints on first use. y = yh + yl
  approximates |x|*P: yh = fl(|x|*ph), and yl is |x|*ph - yh (exact, by
  the Dekker product ``specfun`` uses) plus fl(|x|*pl).
- The bound: with u = 2**-53, |P - ph - pl| <= u*u*ph, fl(|x|*pl) is off
  by at most u*u*|x|*ph and the sum that forms yl by 2*u*u*|x|*ph, so
  |y - |x|*P| <= 4*u*u*|x|*ph*(1 + 2u), under 2**-47 for every value
  accepted below (y < 10**17 < 2**57). The margin is d = 2**-46, and 0
  where pl = 0: then P is a double and y is exact.
- D = yh + rint(yl) in int64 (yh is an integer above 2**53) and
  f = yl - rint(yl), so y = D + f exactly. A value is certified when
  |f| < 1/2 - d, so |x|*P rounds to D; 10**16 <= D < 10**17; and D > 10**16
  or f >= d, so |x|*P >= 10**16. The decade is thus settled from yh + yl,
  also where log10 rounds across a power of ten (9.9999999999999997e+98,
  9.9999999999999996e-39). D is then the 17 significant digits and E0
  the exponent X.
- Zeros are laid out directly. Every other value goes to ``fmt_real``:
  out of range, 1e+20 (|x|*P is 10**16 within d), exact ties, and a
  share of about 2d of the rest. So ``fmt_real`` stays: it is the one
  exact conversion, and the kernel prints only what it would print.
- Layout, by %.17g's rules: D's digits (four at a time from a lookup
  table), |X| and the fillers fill a 32-byte source per value, and a key
  of sign, notation and digit count (trailing zeros dropped) selects the
  byte template: fixed notation for -4 <= X < 17, else d.ddde+XX with at
  least two exponent digits, no bare point, "-0" for a negative zero. The
  result is a fixed-width byte cell per value and its length.

Each float vector a file holds is a ``Column``, which keeps its cells
from one formatting pass; the CLI hands the same ``Column`` objects to
both writers, so a value is formatted once for the CSV and the JSON. A
cell is a function of its value's bits alone, so a back-half value with
the bits of its mirror (index n - 1 - i) takes a copy of that value's
cell instead: a sigma column on a symmetric theta grid holds such a
pair at every exact mirror angle of the grid (``kinematics.AngleGrid``).
``_lay_out`` makes every text from cells, with one mask over the cells
and what follows each: ``fmt_table`` a whole table, the CSV writers each
block of ``_BLOCK_ROWS`` rows from the column slices side by side, and
``emit_json`` a column's array ``_CHUNK`` values per piece, the cells
dropped once laid out. Both writers return string pieces for
``write_text``, so neither joins or encodes a whole document, and both
refuse a non-finite value before the first piece is written.
The SVG writers compute pixel coordinates over arrays, with the same IEEE
operations in the same order as the scalar formula, keep per pixel
column the M4 points of each curve (first, lowest, highest, last), which
draw the same polyline, and label axes, legend and titles with 6
significant digits; legend entries past the 22nd wrap into further
columns. The SVG is a view; the CSV and JSON are the authoritative
outputs.
Every output byte is pinned by ``tests/output_sha256.json``.
"""

import functools
import hashlib
import json
import math
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import specfun
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

# rows per CSV row block: bounds the bytes a block is laid out in (a
# 101-column k*alpha = 100 profile lays out 512 x 101 cells at a time)
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


# the formatting kernel (see the module docstring): values per chunk and
# the widest text; the decimal exponents it handles, where every split
# part and partial product of the Dekker product is a normal double far
# from overflow; the certification margin d
_CHUNK = 4096
_NUMBER = 24  # len("-2.2250738585072014e-308")
_E_LO, _E_HI = -230, 229
_ROUND_MARGIN = 2.0 ** -46
_CELL = np.dtype((np.void, _NUMBER))  # a cell as one item, which copies faster

# a value's character source, _SOURCE bytes: the sign and the "0", "."
# and "e" fillers, the 17 digits at 3..19 (four-digit groups from byte 4
# on), the exponent's sign, and |X| as four digits at 24..27
_SOURCE = 32
_MINUS, _ZERO, _POINT, _DIGIT, _EXP, _EXP_SIGN, _EXP_DIGITS = 0, 1, 2, 3, 20, 21, 24
# layout classes: fixed notation for X = -4..16, then 2- and 3-digit exponents
_CLASSES = 23
_NEGATIVE_KEYS = _CLASSES * 17


class _Tables(NamedTuple):
    power: np.ndarray      # per E0: ph, pl, the split of ph, the margin
    exp_word: np.ndarray   # per E0: |X| as four ASCII digits in a uint32
    exp_sign: np.ndarray   # per E0: "-" or "+"
    key_base: np.ndarray   # per E0: the layout key of a positive 1-digit value
    digits4: np.ndarray    # the four ASCII digits of 0..9999 in a uint32
    zeros4: np.ndarray     # trailing zeros of 0..9999 written with four digits
    template: np.ndarray   # per layout key: the source byte of each text byte
    length: np.ndarray     # per layout key: the text length
    rows: np.ndarray       # _SOURCE times the row number, one column


def _layout(negative: bool, cls: int, nsig: int) -> List[int]:
    """Source bytes of the %.17g text of a layout key: fixed notation,
    or d.ddd and an exponent; nsig digits, trailing zeros dropped."""
    digit = [_DIGIT + k for k in range(17)]
    out = [_MINUS] if negative else []
    if cls < 21:
        x = cls - 4
        if x < 0:
            out += [_ZERO, _POINT] + [_ZERO] * (-x - 1) + digit[:nsig]
        else:
            out += digit[:x + 1]
            if nsig > x + 1:
                out += [_POINT] + digit[x + 1:nsig]
    else:
        out += digit[:1]
        if nsig > 1:
            out += [_POINT] + digit[1:nsig]
        width = 2 if cls == 21 else 3
        out += [_EXP, _EXP_SIGN] + list(range(_EXP_DIGITS + 4 - width, _EXP_DIGITS + 4))
    return out


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The kernel's constants, built from Python ints on first use."""
    ph, pl = [], []
    for e0 in range(_E_LO, _E_HI + 1):
        k = 16 - e0  # 10**k scales a value of decade e0 to 17 digits
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            q = 10 ** -k
            hi = 1 / q  # int / int rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (q * den)
        ph.append(hi)
        pl.append(lo)
    ph, pl = np.array(ph), np.array(pl)
    ph_hi, ph_lo, work = np.empty_like(ph), np.empty_like(ph), np.empty_like(ph)
    specfun._split_to(ph, ph_hi, ph_lo, work)
    margin = np.where(pl == 0.0, 0.0, _ROUND_MARGIN)  # pl == 0: y is exact
    digits = (np.indices((10,) * 4).reshape(4, -1).T + ord("0")).astype(np.uint8, order="C")
    digits4 = digits.view(np.uint32).ravel()  # row v: the digits of v, 0 <= v < 10**4
    is_zero = digits[:, ::-1] == ord("0")
    e0 = np.arange(_E_LO, _E_HI + 1)
    cls = np.where((e0 >= -4) & (e0 < 17), e0 + 4, np.where(abs(e0) < 100, 21, 22))
    layouts = [_layout(negative, c, nsig) for negative in (False, True)
               for c in range(_CLASSES) for nsig in range(1, 18)]
    template = np.full((len(layouts), _NUMBER), _SOURCE - 1, dtype=np.uint8)
    for row, layout in zip(template, layouts):
        row[:len(layout)] = layout
    return _Tables(
        power=np.stack([ph, pl, ph_hi, ph_lo, margin], axis=1),
        exp_word=digits4[abs(e0)],
        exp_sign=np.where(e0 < 0, ord("-"), ord("+")).astype(np.uint8),
        key_base=cls * 17,
        digits4=digits4,
        zeros4=np.logical_and.accumulate(is_zero, axis=1).sum(axis=1, dtype=np.uint8),
        template=template,
        length=np.array([len(layout) for layout in layouts], dtype=np.uint8),
        rows=np.arange(0, _CHUNK * _SOURCE, _SOURCE)[:, None])


def _format_cells(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The %.17g text of each finite value of x (at most _CHUNK), left-
    aligned in a row of _NUMBER bytes, and the text lengths."""
    t = _tables()
    m = x.size
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        e0 = np.floor(np.log10(ax))  # -inf for a zero
    clipped = np.clip(e0, _E_LO, _E_HI)
    inside = clipped == e0
    zero = x == 0.0
    clipped[zero] = 0.0
    i = (clipped - _E_LO).astype(np.intp)
    ax[~inside] = 0.0
    ph, pl, ph_hi, ph_lo, margin = t.power[i].T
    # y = yh + yl: |x| * 10**(16 - e0), within 2**-47 (module docstring)
    yh = ax * ph
    ah, al, yl, w = (np.empty_like(ax) for _ in range(4))
    specfun._split_to(ax, ah, al, w)
    specfun._prod_err_to(ah, al, ph_hi, ph_lo, yh, yl, w)  # yh + yl = ax*ph
    yl += ax * pl
    r = np.rint(yl)
    yl -= r  # the fraction: y = d + yl
    d = yh.astype(np.int64) + r.astype(np.int64)
    ok = (inside & (np.abs(yl) < 0.5 - margin) & (d >= 10 ** 16) & (d < 10 ** 17)
          & ((d > 10 ** 16) | (yl >= margin))) | zero
    # the character source: fillers, the 17 digits of d, the exponent
    src = np.empty((m, _SOURCE), dtype=np.uint8)
    src[:, :_DIGIT] = np.frombuffer(b"-0.", dtype=np.uint8)
    src[:, _EXP] = ord("e")
    high, low = np.divmod(d, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    groups = (*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4))
    words = src.view(np.uint32)
    for k, g in enumerate(groups):
        words[:, 1 + k] = t.digits4[g]
    words[:, _EXP_DIGITS // 4] = t.exp_word[i]
    src[:, _DIGIT] = lead + ord("0")
    src[:, _EXP_SIGN] = t.exp_sign[i]
    # trailing zeros of the 16 digits after the lead, a group at a time
    g1, g2, g3, g4 = groups
    zeros = t.zeros4[g4] + (g4 == 0) * (t.zeros4[g3] + (g3 == 0) * (
        t.zeros4[g2] + (g2 == 0) * t.zeros4[g1]))
    key = t.key_base[i] + 16 - zeros.astype(np.intp)
    key[np.signbit(x)] += _NEGATIVE_KEYS
    index = t.rows[:m] + t.template[key]
    cells = np.take(src.ravel(), index)
    length = t.length[key]
    for j in np.flatnonzero(~ok):
        text = fmt_real(x[j]).encode()
        cells[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        length[j] = len(text)
    return cells, length


def _lay_out(cells: np.ndarray, length: np.ndarray, ncols: int,
             sep: str, final: str) -> str:
    """The text of formatted values, ncols to a row: the first length[i]
    bytes of cells[i], then sep within a row, a newline at a row's end
    and final after the last value. Each cell is copied into a row with
    its tail; one mask, whose row per cell is looked up by its length and
    tail, keeps the bytes in use, and the text is decoded once."""
    tails = [np.frombuffer(t.encode("utf-8"), dtype=np.uint8) for t in (sep, "\n", final)]
    sizes = np.array([t.size for t in tails])
    width = _NUMBER + sizes.max()
    n = length.size
    text = np.empty((n, width), dtype=np.uint8)
    text[:, :_NUMBER] = cells.reshape(n, _NUMBER)
    follows = np.zeros(n, dtype=np.intp)  # the index of its tail
    for rows, k in ((slice(None), 0), (slice(ncols - 1, None, ncols), 1), (-1, 2)):
        text[rows, _NUMBER:_NUMBER + sizes[k]] = tails[k]
        follows[rows] = k
    fits = np.empty((_NUMBER + 1, 3, width), dtype=bool)
    fits[..., :_NUMBER] = np.arange(_NUMBER) < np.arange(_NUMBER + 1)[:, None, None]
    fits[..., _NUMBER:] = np.arange(width - _NUMBER) < sizes[:, None]
    keep = np.take(fits.reshape(-1, width), 3 * length.reshape(n) + follows, axis=0)
    return str(text[keep], "utf-8")


def fmt_table(values, sep: str = ",") -> str:
    """``fmt_real`` of every value of a 1-D or 2-D array, joined by sep
    within a row and by newlines between rows.

    One finiteness check covers the array; a non-finite value raises
    ``fmt_real``'s error for the first one in row order. The values are
    formatted once, by the kernel of the module docstring, into a
    ``Column``'s cells, and laid out by ``_lay_out``; sep may be any string.
    """
    arr = np.asarray(values, dtype=float)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    column = Column(rows.ravel())
    _refuse_non_finite([column])
    if rows.size == 0:
        return "\n" * max(rows.shape[0] - 1, 0)
    return _lay_out(*column.cells(), rows.shape[1], sep, "")


class Column:
    """A float vector of an output file, formatted at most once.

    ``cells()`` is its ``fmt_real`` text as the kernel writes it: an
    (n, _NUMBER) uint8 array of left-aligned cells and their uint8
    lengths. It is kept until ``drop()``, so every writer handed the
    same column lays out the same cells; the caller has refused
    non-finite values first. A value of the back half whose bits (as
    int64, so -0.0 and +0.0 differ) are those of its mirror, index
    n - 1 - i, is not formatted but takes a copy of its mirror's cell.
    Every other value is formatted in order, ``_CHUNK`` at a time, each
    chunk written straight into the kept arrays.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self._cells: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.values)

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._cells is None:
            values, n = self.values, len(self)
            half = n // 2
            cells = np.empty((n, _NUMBER), dtype=np.uint8)
            length = np.empty(n, dtype=np.uint8)
            items = cells.view(_CELL).reshape(n)
            back = slice(n - half, n)
            repeats = values[back].view(np.int64) == values[:half][::-1].view(np.int64)
            todo = np.flatnonzero(np.concatenate([np.ones(n - half, dtype=bool), ~repeats]))
            for s in range(0, todo.size, _CHUNK):
                part = todo[s:s + _CHUNK]
                if part[-1] - part[0] == part.size - 1:  # a run: slices copy faster
                    part = slice(part[0], part[-1] + 1)
                text, length[part] = _format_cells(values[part])
                items[part] = text.view(_CELL).reshape(-1)
            np.copyto(items[back], items[:half][::-1], where=repeats)
            np.copyto(length[back], length[:half][::-1], where=repeats)
            self._cells = cells, length
        return self._cells

    def drop(self) -> None:
        self._cells = None


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


# the text of a JSON leaf other than a float, and of a key; one encoder,
# since json.dumps builds a new one per call
_encode = json.JSONEncoder(ensure_ascii=False).encode


def emit_json(value) -> Iterator[str]:
    """Canonical JSON as string pieces: sorted keys, pinned float format,
    LF separators.

    The document is laid out and every value checked before this returns,
    so a refusal writes nothing. A float vector (a ``Column``, a 1-D
    float64 array, or a list of plain floats) is laid out from its
    column's cells ``_CHUNK`` values per piece when it is reached; the
    cells are dropped before the first piece is handed out.
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
        cells, length = column.cells()
        column.drop()
        for s in range(0, length.size, _CHUNK):
            yield _lay_out(cells[s:s + _CHUNK], length[s:s + _CHUNK], _CHUNK, sep,
                           sep if s + _CHUNK < length.size else "")


def _emit_json(value, indent: int, out: List) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n"
        for k in sorted(value, key=str):
            out.append(f"{sep}{inner}{_encode(str(k))}: ")
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
    out.append(fmt_real(value) if isinstance(value, float) else _encode(value))


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
    blocks are laid out from the column cells as the pieces are taken.
    """
    columns = [_column(col) for col in columns]
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("every column must have one value per theta")
    _refuse_non_finite(columns)
    cells = [col.cells() for col in columns]
    blocks = (slice(s, s + _BLOCK_ROWS) for s in range(0, n, _BLOCK_ROWS))
    return chain([",".join(header) + "\n"],
                 (_lay_out(np.stack([c[rows] for c, _ in cells], axis=1),
                           np.stack([length[rows] for _, length in cells], axis=1),
                           len(cells), ",", "\n") for rows in blocks))


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
_LEGEND_ROWS = 22  # legend baselines at 70, 86, ..., 406 px
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
                  title: str) -> str:
    """A plot of sigma against theta for each (name, thetas, sigma) of
    ``series``."""
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
                 f'font-family="sans-serif" font-size="13">theta (rad)</text>')
    parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_H // 2})">cross section</text>')
    # legend columns of _LEGEND_ROWS entries, the later ones further left
    columns = -(-len(series) // _LEGEND_ROWS)
    step = min(150, (_W - 2 * _MARGIN - 150) // max(columns - 1, 1))
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = _svg_points(xs, ys, (x_lo, x_hi), (y_lo, y_hi))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        lx = _W - _MARGIN - 150 - step * (i // _LEGEND_ROWS)
        ly = _MARGIN + 16 + 16 * (i % _LEGEND_ROWS)
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def profile_svg(profiles: Iterable[Tuple[str, CrossSectionProfile]],
                title: str) -> str:
    series = [(name, p.thetas, p.sigma) for name, p in profiles]
    return _svg_document(series, title)


def sweep_svg(thetas: Sequence[float], k_values: Sequence[float],
              columns: Sequence[Sequence[float]], title: str) -> str:
    series = [(f"k={fmt_label(k)}", thetas, col)
              for k, col in zip(k_values, columns)]
    return _svg_document(series, title)
