#!/usr/bin/env python3
"""Freeze the sha256 of every output file into tests/output_sha256.json.

Runs the eight figure runs of scripts/regenerate_figures.py, one
general-engine profile with per-channel columns (alpha = 1, k = 10, a
Gaussian pair, 201 angles) and one profile per closed variant at k = 5
(the internal ones open 5 to 13 channels there), all with --format
csv,json,svg, and records the digest of every file they write: CSV,
JSON, SVG and manifest. Keys are "<run dir>/<file name>", so the
manifest hash in each run directory name is pinned too. The writers and
engines can then be rewritten and held to the same bytes. Run once on a
trusted build, from the repository root:

    PYTHONPATH=src python scripts/freeze_output_bytes.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile

from regenerate_figures import CONFIG_DIR, RUNS
from rotor_scatter.cli import main as cli_main
from rotor_scatter.model import CLOSED_TWINS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = ROOT / "tests" / "output_sha256.json"
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


def output_digests(out_root: pathlib.Path) -> dict:
    """Run every pinned invocation under out_root; sha256 per written file."""
    out_root = pathlib.Path(out_root)
    profile_config = out_root / "channel_profile.json"
    profile_config.write_text(json.dumps(CHANNEL_PROFILE), encoding="utf-8")
    runs = [(CONFIG_DIR / f"{stem}.json", sub) for stem, sub in RUNS]
    runs.append((profile_config, "profile"))
    for variant, doc in closed_profile_configs().items():
        config = out_root / f"{variant}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        runs.append((config, "profile"))
    runs_root = out_root / "runs"
    for config, subcommand in runs:
        code = cli_main([subcommand, "--config", str(config),
                         "--out", str(runs_root), "--format", FORMATS])
        if code != 0:
            raise RuntimeError(f"{subcommand} {config.name}: exit {code}")
    return {path.relative_to(runs_root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(runs_root.glob("*/*"))}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        digests = output_digests(pathlib.Path(scratch))
    TARGET.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {TARGET} ({len(digests)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
