"""Correctness gate, applied to the files one pass wrote.

``figures`` is held to ``tests/goldens.json``: the sha256 of the five
sweep matrices and the fig4 compare report (exact suppression ratio and
with-structure visibility, the rest within GOLDEN_TOL), as acceptance
criterion 9 does. Every run whose config a closed form covers (all
generated ones, and the fig2/fig3 runs) is held to it: the sigma values
read back from the written CSVs must match the matching ``closed_*``
engine to MAX_REL_TOL relative to the curve's maximum, the tolerance of
criterion 3. The pointwise worst relative deviation is
reported alongside, ungated: it peaks at interference minima, where
sigma/max is tiny. Only pure l = 0 beams are covered, so coherence
between +l and -l beam components is outside this gate.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

MAX_REL_TOL = 1e-12
GOLDEN_TOL = 1e-10
# peak strength the structureless engine needs, per unit of the closed
# structureless form's v0, in the equiv-structureless-* self-checks: 2 for
# the pair, but 4 for the grating, whose closed form is 4x the compare
# twin's convention (see README.md)
STRENGTH_FACTOR = {"two_gaussian": 2.0, "grating": 4.0}


def digest(run_dir):
    """sha256 over the names and bytes of every file in a run directory."""
    h = hashlib.sha256()
    for path in sorted(Path(run_dir).iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_files(subcommand):
    return {"profile": ("profile.csv",), "sweep": ("sweep.csv",),
            "compare": ("compare_with.csv", "compare_without.csv")}[subcommand]


def _closed_forms(doc, subcommand):
    """[(csv name, closed variant, kwargs without k)] matching a config.

    Covers the general and structureless engines on a pure l = 0 beam
    with Gaussian peaks in a symmetric pair or a grating, with the mass
    and strength mapping of the ``equiv-*`` self-checks: the general
    engine matches the internal closed form at the configured (m, v0);
    the structureless engine at (M, V) matches the structureless closed
    form at (M/2, V/STRENGTH_FACTOR), which the compare twin (2m, 2v0)
    meets at (m, 2v0/STRENGTH_FACTOR). Returns [] for anything else.
    """
    engine = doc["engine"]["variant"]
    amps = doc["beam"]["amplitudes"]
    if engine not in ("general", "structureless") or [a["l"] for a in amps] != [0]:
        return []
    pot = doc["potential"]
    if pot["kind"] == "grating":
        shape = pot["grating"]["shape"]
        suffix = "grating"
        geometry = {"d": pot["grating"]["d"], "half_count": pot["grating"]["n"]}
    else:
        peaks = pot["peaks"]
        if (len(peaks) != 2 or peaks[0]["shape"] != peaks[1]["shape"]
                or peaks[0]["center"] != -peaks[1]["center"]
                or peaks[0]["center"] <= 0):
            return []
        shape = peaks[0]["shape"]
        suffix = "two_gaussian"
        geometry = {"d": peaks[0]["center"]}
    if shape["variant"] != "gaussian":
        return []
    mass, v0 = doc["molecule"]["mass"], shape["v0"]
    common = dict(geometry, delta=shape["delta"])
    point = "closed_structureless_" + suffix
    factor = STRENGTH_FACTOR[suffix]
    if engine == "structureless":
        return [(_csv_files(subcommand)[0], point,
                 dict(common, mass=0.5 * mass, v0=v0 / factor))]
    internal = ("closed_" + suffix,
                dict(common, mass=mass, v0=v0, alpha=doc["molecule"]["alpha"]))
    if subcommand == "compare":
        twin = (point, dict(common, mass=mass, v0=2.0 * v0 / factor))
        return [("compare_with.csv",) + internal, ("compare_without.csv",) + twin]
    return [(_csv_files(subcommand)[0],) + internal]


def _k_values(doc, subcommand):
    if subcommand == "profile":
        return [doc["beam"]["k"]]
    return doc["scan"]["k"] or [doc["beam"]["k"]]


def closed_form_check(doc, subcommand, run_dir):
    """(problems, worst max-relative, worst pointwise) against closed forms."""
    from rotor_scatter.born import profile_closed

    forms = _closed_forms(doc, subcommand)
    if not forms:
        return ["no closed form covers this config"], None, None
    steps = doc["scan"]["theta"]["steps"]
    ks = _k_values(doc, subcommand)
    problems, worst_max, worst_point = [], 0.0, 0.0
    for name, variant, kwargs in forms:
        table = np.loadtxt(Path(run_dir) / name, delimiter=",", skiprows=1, ndmin=2)
        columns = table[:, 1:2] if subcommand == "profile" else table[:, 1:]
        if table.shape[0] != steps or columns.shape[1] != len(ks):
            problems.append(f"{name}: {table.shape} does not hold "
                            f"{steps} angles x {len(ks)} k")
            continue
        missed = []
        for k, got in zip(ks, columns.T):
            want = profile_closed(variant, table[:, 0], k=k, **kwargs).sigma
            diff = np.abs(got - want)
            max_rel = float(diff.max() / np.abs(want).max())
            scale = np.maximum(np.abs(got), np.abs(want))
            point = float((diff[scale > 0] / scale[scale > 0]).max(initial=0.0))
            worst_max = max(worst_max, max_rel)
            worst_point = max(worst_point, point)
            if not max_rel <= MAX_REL_TOL:
                missed.append((max_rel, k))
        if missed:
            rel, k = max(missed)
            problems.append(f"{name}: {len(missed)} of {len(ks)} curves miss "
                            f"{variant} by > {MAX_REL_TOL:.0e} of max "
                            f"(worst {rel:.3e} at k={k})")
    return problems, worst_max, worst_point


def _golden_check(label, run_dir, goldens):
    subcommand, stem = label.split(":")
    if subcommand == "sweep":
        want = goldens["sweep_sha256"].get(stem)
        got = hashlib.sha256((Path(run_dir) / "sweep.csv").read_bytes()).hexdigest()
        return [] if got == want else [f"sweep.csv sha256 {got[:12]} != golden"]
    if stem == "fig4":
        doc = json.loads((Path(run_dir) / "compare.json").read_text(encoding="utf-8"))
        got, want = doc["reports"][0], goldens["fig4"]
        problems = [f"{key} {got[key]!r} != golden {want[key]!r}"
                    for key in ("k", "suppression_ratio", "visibility_with")
                    if got[key] != want[key]]
        pairs = [(got["visibility_without"], want["visibility_without"])]
        pairs += list(zip(got["window"], want["window"]))
        worst = max(abs(a - b) for a, b in pairs)
        if not worst <= GOLDEN_TOL:
            problems.append(f"fig4 report off golden by {worst:.3e}")
        return problems
    return []


def check(workload, invocations, run_dirs, root):
    """One verdict per invocation: {label, problems, max_rel, pointwise_rel}.

    ``figures`` runs are held to the goldens and, where a closed form
    covers their config, to the closed form as well.
    """
    goldens = None
    if workload == "figures":
        goldens = json.loads((Path(root) / "tests" / "goldens.json")
                             .read_text(encoding="utf-8"))
    verdicts = []
    for inv, run_dir in zip(invocations, run_dirs):
        if run_dir is None:  # the invocation failed; nothing to check
            verdicts.append({"label": inv["label"], "problems": [],
                             "max_rel": None, "pointwise_rel": None})
            continue
        doc = json.loads(Path(inv["config"]).read_text(encoding="utf-8"))
        try:
            problems, max_rel, point = closed_form_check(doc, inv["subcommand"],
                                                         run_dir)
            if goldens is not None:
                if max_rel is None:  # no closed form: the goldens alone decide
                    problems = []
                problems += _golden_check(inv["label"], run_dir, goldens)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, max_rel, point = [f"unreadable output: {exc!r}"], None, None
        verdicts.append({"label": inv["label"], "problems": problems,
                         "max_rel": max_rel, "pointwise_rel": point})
    return verdicts
