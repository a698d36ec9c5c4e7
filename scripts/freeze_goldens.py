#!/usr/bin/env python3
"""Freeze regression values for the figure configs into tests/goldens.json.

Captures the fig4 comparison report (window, visibilities, suppression
ratio) and a sha256 of each sweep matrix CSV.  Run once on a validated
build; the acceptance tests then hold future builds to these numbers.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

from regenerate_figures import CONFIG_DIR, RUNS
from rotor_scatter.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP_STEMS = [stem for stem, sub in RUNS if sub == "sweep"]


def run_dir_of(out_root: pathlib.Path, subcommand: str) -> pathlib.Path:
    dirs = sorted(out_root.glob(f"{subcommand}_*"))
    if len(dirs) != 1:
        raise RuntimeError(f"expected one {subcommand} run dir, saw {dirs}")
    return dirs[0]


def main() -> int:
    goldens = {"fig4": None, "sweep_sha256": {}}
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "fig4"
        code = cli_main(["compare", "--config", str(CONFIG_DIR / "fig4.json"),
                         "--out", str(out), "--format", "json"])
        if code != 0:
            return code
        doc = json.loads((run_dir_of(out, "compare") / "compare.json").read_text())
        goldens["fig4"] = doc["reports"][0]

        for stem in SWEEP_STEMS:
            out = pathlib.Path(scratch) / stem
            code = cli_main(["sweep", "--config",
                             str(CONFIG_DIR / f"{stem}.json"),
                             "--out", str(out), "--format", "csv"])
            if code != 0:
                return code
            payload = (run_dir_of(out, "sweep") / "sweep.csv").read_bytes()
            goldens["sweep_sha256"][stem] = hashlib.sha256(payload).hexdigest()

    target = ROOT / "tests" / "goldens.json"
    target.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
