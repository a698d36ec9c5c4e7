"""Workload definitions: which CLI invocations one pass makes.

A workload is a list of invocations of ``rotor_scatter.cli.main``. The
``figures`` workload uses the shipped configs verbatim; the three
generated workloads build their configs from a seed, which jitters only
the peak strength v0, the peak width delta and the peak spacing d, each
by at most JITTER. Channel count, angle count, the k list and the number
of invocations do not depend on the seed.

Standard library only: the parent process imports this module without
paying for numpy.
"""

import json
import math
import random
from pathlib import Path

JITTER = 0.03
FORMATS = "csv,json,svg"
HALF_PI = math.pi / 2

# the eight runs of scripts/regenerate_figures.py, in its order
FIGURE_RUNS = (
    ("fig2_d2", "sweep"),
    ("fig2_d6", "sweep"),
    ("fig2_d6", "compare"),
    ("fig3_n1", "sweep"),
    ("fig3_n2", "sweep"),
    ("fig3_n10", "sweep"),
    ("fig4", "compare"),
    ("minimal", "profile"),
)
FIGURE_SWEEPS = tuple(stem for stem, sub in FIGURE_RUNS if sub == "sweep")

LADDER_KS = (1.0, 10.0, 25.0, 100.0)
SWEEP_KS = tuple(0.25 * i for i in range(1, 41))
COMPARE_KS = tuple(0.5 * i for i in range(1, 17))
DENSE_STEPS = 20001

WHY = {  # the same lines as in BENCHMARK.json
    "figures": (
        "the eight shipped figure runs on the shipped configs, pinned by "
        "the sha256 goldens; the Bessel recurrence dominates"
    ),
    "ladder": (
        "profile scale ladder at k*alpha = 1, 10, 25, 100 (1 to 99 "
        "channels); channel count and Bessel work dominate, output is small"
    ),
    "dense_sweep": (
        "structureless 21-peak sweep, 20,001 angles x 40 k; no Bessel "
        "calls, so writers and the potential transform dominate"
    ),
    "dense_compare": (
        "near-pointlike rotor compare, 20,001 angles x 16 k; the only "
        "workload where fringe analysis is a real share"
    ),
}
NAMES = tuple(WHY)


def _gauss(v0, delta):
    return {"variant": "gaussian", "v0": v0, "delta": delta}


def _doc(alpha, k_beam, potential, engine, steps, ks):
    return {
        "molecule": {"mass": 1.0, "alpha": alpha},
        "beam": {"k": k_beam, "amplitudes": [{"l": 0, "re": 1.0, "im": 0.0}]},
        "potential": potential,
        "engine": {"variant": engine},
        "scan": {"theta": {"min": -HALF_PI, "max": HALF_PI, "steps": steps},
                 "k": list(ks)},
    }


def _jittered(rng, **base):
    return {key: value * (1.0 + rng.uniform(-JITTER, JITTER))
            for key, value in sorted(base.items())}


def _generated(name, seed):
    """(params, [(label, subcommand, config doc)]) for a generated workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        p = _jittered(rng, v0=1.0, delta=0.1, d=2.0)
        peaks = {"kind": "peaks", "peaks": [
            {"center": p["d"], "shape": _gauss(p["v0"], p["delta"])},
            {"center": -p["d"], "shape": _gauss(p["v0"], p["delta"])}]}
        runs = [(f"k{k:g}", "profile", _doc(1.0, k, peaks, "general", 2001, [k]))
                for k in LADDER_KS]
    elif name == "dense_sweep":
        p = _jittered(rng, v0=1.0, delta=0.5, d=3.0)
        grating = {"kind": "grating", "grating": {
            "n": 10, "d": p["d"], "shape": _gauss(p["v0"], p["delta"])}}
        runs = [("sweep", "sweep", _doc(1.0, 1.0, grating, "structureless",
                                        DENSE_STEPS, SWEEP_KS))]
    elif name == "dense_compare":
        p = _jittered(rng, v0=1.0, delta=0.5, d=3.0)
        grating = {"kind": "grating", "grating": {
            "n": 2, "d": p["d"], "shape": _gauss(p["v0"], p["delta"])}}
        runs = [("compare", "compare", _doc(0.05, 1.0, grating, "general",
                                            DENSE_STEPS, COMPARE_KS))]
    else:
        raise KeyError(name)
    return p, runs


def build(name, seed, root, work):
    """Write the workload's configs under ``work`` and describe the pass.

    Returns a JSON-ready dict: ``invocations`` (label, subcommand, config
    path), ``params`` (the seeded values, empty for figures) and
    ``shape`` (the seed-independent sizes the run prints).
    """
    root, work = Path(root), Path(work)
    if name == "figures":
        params = {}
        runs = [(f"{sub}:{stem}", sub, root / "configs" / f"{stem}.json")
                for stem, sub in FIGURE_RUNS]
        docs = [json.loads(path.read_text(encoding="utf-8"))
                for _, _, path in runs]
    else:
        params, generated = _generated(name, seed)
        runs, docs = [], []
        for label, sub, doc in generated:
            path = work / f"{label}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            runs.append((label, sub, path))
            docs.append(doc)
    invocations = [{"label": label, "subcommand": sub, "config": str(path)}
                   for label, sub, path in runs]
    return {"name": name, "seed": seed, "params": params,
            "invocations": invocations, "shape": _shape(runs, docs)}


def _shape(runs, docs):
    """Seed-independent sizes: invocations, angles, k values, sigma samples.

    A compare writes two curves per k (with and without structure), so
    it counts twice.
    """
    angles, ks, samples = [], [], 0
    for (_, sub, _), doc in zip(runs, docs):
        steps = doc["scan"]["theta"]["steps"]
        k_list = [doc["beam"]["k"]] if sub == "profile" else doc["scan"]["k"]
        curves = 2 if sub == "compare" else 1
        angles.append(steps)
        ks.append(k_list)
        samples += curves * steps * len(k_list)
    return {"invocations": len(runs), "angles": angles, "k": ks,
            "sigma_samples": samples}
