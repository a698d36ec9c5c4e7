#!/usr/bin/env python3
"""Freeze the pinned outputs into tests/output_sha256.json and
tests/goldens.json.

Runs the eight figure runs of scripts/regenerate_figures.py, one
general-engine profile with per-channel columns (alpha = 1, k = 10, a
Gaussian pair, 201 angles) and one profile per closed variant at k = 5
(the internal ones open 5 to 13 channels there), all with --format
csv,json,svg, and records the digest of every file they write: CSV,
JSON, SVG and manifest. Keys are "<run dir>/<file name>", so the
manifest hash in each run directory name is pinned too. The writers and
engines can then be rewritten and held to the same bytes.

The same runs give tests/goldens.json, which the acceptance tests and
the benchmark gate read: the fig4 comparison report (window,
visibilities, suppression ratio) and the digest of each figure sweep's
sweep.csv. Run once on a trusted build, from the repository root:

    PYTHONPATH=src python scripts/freeze_output_bytes.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from typing import Tuple

from regenerate_figures import CONFIG_DIR, RUNS
from rotor_scatter.cli import main as cli_main
from rotor_scatter.model import CLOSED_TWINS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = ROOT / "tests" / "output_sha256.json"
GOLDENS = ROOT / "tests" / "goldens.json"
FORMATS = "csv,json,svg"

CHANNEL_PROFILE = {
    "molecule": {"mass": 1.0, "alpha": 1.0},
    "beam": {"k": 10.0, "amplitudes": [{"l": 0, "re": 1.0, "im": 0.0}]},
    "potential": {"kind": "peaks", "peaks": [
        {"center": 2.0, "shape": {"variant": "gaussian", "v0": 1.0, "delta": 0.5}},
        {"center": -2.0, "shape": {"variant": "gaussian", "v0": 1.0, "delta": 0.5}}]},
    "engine": {"variant": "general"},
    "scan": {"theta": {"min": -1.5707963267948966, "max": 1.5707963267948966,
                       "steps": 201},
             "k": [10.0]},
}

# shipped config whose potential each closed variant's profile runs on
CLOSED_POTENTIALS = {"two_gaussian": "fig2_d6", "grating": "fig3_n2",
                     "mixed": "fig4"}
CLOSED_K = 5.0


def closed_profile_configs():
    """{variant: config} for one profile per closed variant at CLOSED_K."""
    configs = {}
    for internal, twin in CLOSED_TWINS.items():
        stem = CLOSED_POTENTIALS[internal.removeprefix("closed_")]
        doc = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        doc["beam"]["k"] = CLOSED_K
        for variant in (internal, twin):
            configs[variant] = dict(doc, engine={"variant": variant})
    return configs


def _run(config: pathlib.Path, subcommand: str,
         runs_root: pathlib.Path) -> pathlib.Path:
    """One CLI run writing every format; the run directory it prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_main([subcommand, "--config", str(config),
                         "--out", str(runs_root), "--format", FORMATS])
    if code != 0:
        raise RuntimeError(f"{subcommand} {config.name}: exit {code}")
    return pathlib.Path(printed.getvalue().splitlines()[-1])


def output_digests(out_root: pathlib.Path) -> Tuple[dict, dict]:
    """Run every pinned invocation under out_root; (digests, goldens).

    digests holds the sha256 of each written file. goldens holds
    tests/goldens.json's entries, read from the same runs: "fig4", the
    first report of fig4's compare.json, and "sweep_sha256", each figure
    sweep's sweep.csv digest by config stem.
    """
    out_root = pathlib.Path(out_root)
    runs_root = out_root / "runs"
    figures = {run: _run(CONFIG_DIR / f"{run[0]}.json", run[1], runs_root)
               for run in RUNS}
    profile_config = out_root / "channel_profile.json"
    profile_config.write_text(json.dumps(CHANNEL_PROFILE), encoding="utf-8")
    _run(profile_config, "profile", runs_root)
    for variant, doc in closed_profile_configs().items():
        config = out_root / f"{variant}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        _run(config, "profile", runs_root)
    digests = {path.relative_to(runs_root).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(runs_root.glob("*/*"))}
    compare = figures["fig4", "compare"] / "compare.json"
    goldens = {
        "fig4": json.loads(compare.read_text(encoding="utf-8"))["reports"][0],
        "sweep_sha256": {stem: digests[f"{run_dir.name}/sweep.csv"]
                         for (stem, sub), run_dir in figures.items()
                         if sub == "sweep"}}
    return digests, goldens


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        digests, goldens = output_digests(pathlib.Path(scratch))
    for target, doc in ((TARGET, digests), (GOLDENS, goldens)):
        target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {TARGET} ({len(digests)} files) and {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
