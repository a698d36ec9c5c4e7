"""Span tracer over the package's modules, installed from outside.

Each layer is one module of ``rotor_scatter``. The tracer wraps the
public functions a caller looks up, at the place it looks them up
(``cli.profile_general``, ``born.ft_total_grid``, ``born.specfun``...),
records a span around every call and keeps self time per layer: a span's
duration minus the part its child spans cover. The root span is one CLI
invocation, so ``cli`` self time is what the CLI does outside every
other layer (dispatch, ``.tolist()``, the manifest hash). Nothing inside
the package is changed; ``installed`` restores every attribute on exit.
"""

import contextlib
import time
import types
from collections import defaultdict

LAYERS = ("specfun", "kinematics", "potentials", "born", "analysis",
          "output", "model", "cli")
# the exact work counts the wrappers keep (output.bytes is added per pass)
COUNTS = ("specfun.calls", "specfun.elements", "kinematics.channels",
          "potentials.peak_evals", "born.profiles", "born.channel_evals",
          "analysis.samples", "output.bytes", "cli.invocations")

# output writer -> the per-format time it is charged to
_OUTPUT_PARTS = {
    "profile_csv": "output.csv_s",
    "sweep_csv": "output.csv_s",
    "emit_json": "output.json_s",
    "profile_svg": "output.svg_s",
    "sweep_svg": "output.svg_s",
    "write_text": None,
}


class Tracer:
    """Self time per layer, inclusive time per output format, and counts.

    With ``timing=False`` only the counts are kept: one extra Python call
    per wrapped call, which is how untraced runs get their work counts.
    """

    def __init__(self, timing=True):
        self.timing = timing
        self.self_s = defaultdict(float)
        self.part_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = []  # child time of each open span, innermost last

    def wrap(self, layer, fn, count=None, part=None):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                if part is not None:
                    self.part_s[part] += elapsed
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced if self.timing else counted

    def snapshot(self):
        """Plain dicts of everything recorded so far."""
        return {"self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
                "part_s": {part: self.part_s.get(part, 0.0)
                           for part in sorted(set(_OUTPUT_PARTS.values()) - {None})},
                "counts": dict(sorted(self.counts.items()))}


def _count_channels(counts, args, result):
    counts["kinematics.channels"] += len(result)


def _count_open(counts, args, result):
    counts["kinematics.channels"] += result is not None


def _count_bessel(counts, args, result):
    counts["specfun.calls"] += 1
    counts["specfun.elements"] += int(result.size)


def _count_peaks(counts, args, result):
    spec, q_x = args[0], args[1]
    counts["potentials.peak_evals"] += len(spec.peaks) * int(q_x.size)


def _count_profile(counts, args, result):
    counts["born.profiles"] += 1
    counts["born.channel_evals"] += (len(result.per_channel or ()) or 1) * result.sigma.size


def _count_analysis(counts, args, result):
    counts["analysis.samples"] += sum(int(a.sigma.size) for a in args
                                      if hasattr(a, "sigma"))


def _proxy(module, overrides):
    """Stand-in module: the wrapped functions, everything else passed through."""
    proxy = types.SimpleNamespace(**vars(module))
    for name, fn in overrides.items():
        setattr(proxy, name, fn)
    return proxy


# (module attribute of the caller, function name, layer, counter)
_CLI_CALLS = (
    ("validate_config", "model", None),
    ("serialize_config", "model", None),
    ("profile_general", "born", _count_profile),
    ("profile_structureless", "born", _count_profile),
    ("profile_closed", "born", _count_profile),
    ("structureless_counterpart", "born", None),
    ("fringe_window", "analysis", _count_analysis),
    ("visibility", "analysis", _count_analysis),
    ("suppression_ratio", "analysis", _count_analysis),
)
_BORN_CALLS = (
    ("open_channels", "kinematics", _count_channels),
    ("outgoing_wavenumber", "kinematics", _count_open),
    ("geometry_grid", "kinematics", None),
    ("ft_total_grid", "potentials", _count_peaks),
    ("dirichlet_amplitude_grid", "potentials", None),
)


@contextlib.contextmanager
def installed(tracer, cli):
    """Wrap the layer boundaries the CLI reaches; restore them on exit.

    ``cli`` is the imported ``rotor_scatter.cli`` module. Modules whose
    functions call each other by global name (``output.emit_json`` is
    recursive) are replaced at the caller by a proxy, so only the outer
    call is a span. A function the package no longer has is skipped, and
    its time stays with the layer that called it.
    """
    from rotor_scatter import born, specfun

    w = tracer.wrap
    patches = [(owner, name, w(layer, getattr(owner, name), count))
               for owner, table in ((cli, _CLI_CALLS), (born, _BORN_CALLS))
               for name, layer, count in table if hasattr(owner, name)]
    output = cli.output
    patches.append((cli, "output", _proxy(output, {
        name: w("output", getattr(output, name), part=part)
        for name, part in _OUTPUT_PARTS.items() if hasattr(output, name)})))
    if hasattr(specfun, "bessel_j_grid"):
        patches.append((born, "specfun", _proxy(specfun, {
            "bessel_j_grid": w("specfun", specfun.bessel_j_grid, _count_bessel)})))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield tracer
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
