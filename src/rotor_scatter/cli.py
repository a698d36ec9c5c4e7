"""Command-line front end.

Subcommands: profile, sweep, compare, validate, bessel-table. Every run
writes into a directory named from the hash of its manifest, so repeating
a run reproduces the same files byte for byte.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical or
validation failure.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import output, specfun
from .analysis import (
    AnalysisError,
    fringe_window,
    require_samples,
    visibility,
    visibility_ratio,
)
from .born import (
    UnsupportedVariantError,
    profile_closed,
    profile_general,
    profile_structureless,
    structureless_counterpart,
)
from .kinematics import open_channels
from .model import (
    CLOSED_TWINS,
    GAUSSIAN,
    POLYNOMIAL_GAUSSIAN,
    Config,
    ConfigError,
    CrossSectionProfile,
    IncidentBeam,
    serialize_config,
    validate_config,
)

_FORMATS = ("csv", "json", "svg")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2 for usage problems; bad flags are
    # configuration errors here and must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}", 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="rotor-scatter",
                     description="Born-approximation scattering of a rigid "
                                 "planar rotor off multi-peak potentials")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory root")
        p.add_argument("--format", default="csv,json",
                       help="comma-separated subset of csv,json,svg")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep columns")

    common(sub.add_parser("profile", help="single-k cross-section profile"))
    common(sub.add_parser("sweep", help="sigma(theta, k) matrix over scan.k"))
    common(sub.add_parser("compare",
                          help="internal-structure profile vs point-particle twin"))

    pv = sub.add_parser("validate", help="run the numerical self-checks")
    pv.add_argument("--out", required=True)
    pv.add_argument("--format", default="json")
    pv.add_argument("--only", default=None,
                    help="run only checks whose name starts with this prefix")

    pb = sub.add_parser("bessel-table", help="dump J_n(x) for n = 0..n-max")
    pb.add_argument("--n-max", type=int, required=True)
    pb.add_argument("--x", type=float, required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--format", default="csv")
    return parser


def _parse_formats(raw: str) -> Tuple[str, ...]:
    parts = tuple(p for p in raw.split(",") if p)
    for p in parts:
        if p not in _FORMATS:
            raise CliError(f"unknown format {p!r}, expected subset of "
                           f"{','.join(_FORMATS)}", 1)
    if not parts:
        raise CliError("at least one output format is required", 1)
    return tuple(sorted(set(parts)))


def _load_config(path: str) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", 1)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}", 1)
    return validate_config(doc)


def _beam_for_k(cfg: Config, k: float) -> IncidentBeam:
    return IncidentBeam(wavenumber=k,
                        amplitudes={l: a for l, a in cfg.beam.sorted_states()})


def _closed_params(cfg: Config) -> Dict[str, float]:
    """Map the configured potential onto a closed-form parameter bag."""
    variant = cfg.engine_variant
    states = [l for l, _ in cfg.beam.sorted_states()]
    if states != [0]:
        raise ConfigError([("beam.amplitudes",
                            "closed engines require a pure l = 0 beam")])
    peaks = cfg.potential.peaks
    if variant.endswith("grating"):
        if cfg.grating is None:
            raise ConfigError([("potential.kind", "closed grating engines "
                                "need potential.kind = 'grating'")])
        shape = peaks[0].shape
        if shape.variant != GAUSSIAN:
            raise ConfigError([("potential.grating.shape.variant",
                                "closed grating engines support Gaussian "
                                "peaks only")])
        half_count, spacing = cfg.grating
        return {"v0": shape.strength, "delta": shape.width,
                "d": spacing, "half_count": half_count}
    if len(peaks) != 2 or peaks[0].center_x != -peaks[1].center_x \
            or peaks[0].center_x <= 0:
        # a grating has 1 or >= 3 peaks: its kind is what is wrong
        path = "potential.peaks" if cfg.grating is None else "potential.kind"
        raise ConfigError([(path, "closed two-peak engines need exactly two "
                            "peaks at +d and -d with d > 0")])
    a, b = peaks[0].shape, peaks[1].shape
    if a.strength != b.strength or a.width != b.width:
        raise ConfigError([("potential.peaks", "closed two-peak engines need "
                            "equal strength and width on both peaks")])
    if variant.endswith("mixed"):
        want = (POLYNOMIAL_GAUSSIAN, GAUSSIAN)
    else:
        want = (GAUSSIAN, GAUSSIAN)
    if (a.variant, b.variant) != want:
        i = 0 if a.variant != want[0] else 1
        raise ConfigError([(f"potential.peaks[{i}].shape", f"engine {variant} "
                            f"needs peak shapes {want[0]} at +d and {want[1]} "
                            "at -d")])
    return {"v0": a.strength, "delta": a.width, "d": peaks[0].center_x}


# Overflow or invalid arithmetic in an engine leaves a non-finite sigma,
# which CrossSectionProfile refuses (exit 2, one message line); numpy's
# RuntimeWarning lines would only repeat that on stderr. errstate is per
# thread, so each column task sets it itself.

def _profile_for_k(cfg: Config, thetas: np.ndarray, k: float) -> CrossSectionProfile:
    variant = cfg.engine_variant
    with np.errstate(all="ignore"):
        if variant == "general":
            return profile_general(thetas, cfg.molecule, _beam_for_k(cfg, k),
                                   cfg.potential)
        if variant == "structureless":
            return profile_structureless(thetas, cfg.molecule.atom_mass, k,
                                         cfg.potential)
        return profile_closed(variant, thetas, mass=cfg.molecule.atom_mass,
                              k=k, alpha=cfg.molecule.half_separation,
                              **_closed_params(cfg))


def _counterpart_for_k(cfg: Config, thetas: np.ndarray, k: float) -> CrossSectionProfile:
    variant = cfg.engine_variant
    with np.errstate(all="ignore"):
        if variant == "general":
            mass2, spec2 = structureless_counterpart(cfg.molecule, cfg.potential)
            return profile_structureless(thetas, mass2, k, spec2)
        return profile_closed(CLOSED_TWINS[variant], thetas,
                              mass=cfg.molecule.atom_mass, k=k,
                              **_closed_params(cfg))


def _scan_or_fail(cfg: Config):
    if cfg.scan is None:
        raise ConfigError([("scan", "this subcommand needs a scan block "
                            "with a theta grid")])
    return cfg.scan


def _write_json(path: Path, doc) -> None:
    output.write_text(path, chain(output.emit_json(doc), ["\n"]))


def _run_dir(out_root: str, subcommand: str, manifest: dict) -> Path:
    run_dir = Path(out_root) / f"{subcommand}_{output.manifest_hash(manifest)}"
    _write_json(run_dir / "manifest.json", manifest)
    return run_dir


def _columns_parallel(tasks, threads: int) -> List:
    if threads <= 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def cmd_profile(args) -> int:
    cfg = _load_config(args.config)
    formats = _parse_formats(args.format)
    scan = _scan_or_fail(cfg)
    profile = _profile_for_k(cfg, scan.thetas(), cfg.beam.wavenumber)
    manifest = {"subcommand": "profile", "config": serialize_config(cfg),
                "formats": list(formats)}
    run_dir = _run_dir(args.out, "profile", manifest)
    # one Column per array: the CSV and the JSON share its cells
    theta, sigma = output.Column(profile.thetas), output.Column(profile.sigma)
    channels = {key: output.Column(arr)
                for key, arr in (profile.per_channel or {}).items()}
    if "csv" in formats:
        output.write_text(run_dir / "profile.csv",
                          output.profile_csv(theta, sigma, channels))
    if "json" in formats:
        doc = {"theta": theta, "sigma": sigma, "metadata": dict(profile.metadata)}
        if channels:
            doc["channels"] = {output.channel_label(key): col
                               for key, col in channels.items()}
        _write_json(run_dir / "profile.json", doc)
    if "svg" in formats:
        title = f"{cfg.engine_variant}, k={output.fmt_label(cfg.beam.wavenumber)}"
        output.write_text(run_dir / "profile.svg",
                          [output.profile_svg([(cfg.engine_variant, profile)], title)])
    print(run_dir)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    formats = _parse_formats(args.format)
    scan = _scan_or_fail(cfg)
    if not scan.k_values:
        raise ConfigError([("scan.k", "sweep needs a non-empty list")])
    thetas = scan.thetas()
    tasks = [lambda k=k: _profile_for_k(cfg, thetas, k).sigma
             for k in scan.k_values]
    columns = _columns_parallel(tasks, args.threads)
    manifest = {"subcommand": "sweep", "config": serialize_config(cfg),
                "formats": list(formats)}
    run_dir = _run_dir(args.out, "sweep", manifest)
    theta = output.Column(thetas)
    sigma = [output.Column(col) for col in columns]
    if "csv" in formats:
        output.write_text(run_dir / "sweep.csv",
                          output.sweep_csv(theta, scan.k_values, sigma))
    if "json" in formats:
        _write_json(run_dir / "sweep.json",
                    {"theta": theta, "k": list(scan.k_values),
                     "sigma_columns": sigma, "engine": cfg.engine_variant})
    if "svg" in formats:
        output.write_text(run_dir / "sweep.svg",
                          [output.sweep_svg(thetas, scan.k_values, columns,
                                            f"sweep: {cfg.engine_variant}")])
    print(run_dir)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    formats = _parse_formats(args.format)
    scan = _scan_or_fail(cfg)
    if cfg.engine_variant not in ("general", *CLOSED_TWINS):
        raise ConfigError([("engine.variant", "compare needs an "
                            "internal-structure engine (general or a closed "
                            "internal variant)")])
    if cfg.engine_variant != "general":
        _closed_params(cfg)  # a config error exits 1 before the grid check
    k_values = scan.k_values or (cfg.beam.wavenumber,)
    thetas = scan.thetas()
    # sigma oscillates in theta no faster than kappa_max * (span of the peak
    # centres + 2 alpha): the pair phases q_x * (c - c') and J^2(alpha |q|)
    centres = [p.center_x for p in cfg.potential.peaks]
    kappa_max = max(ch.kappa for k in k_values
                    for ch in open_channels(_beam_for_k(cfg, k), cfg.molecule))
    require_samples(thetas, kappa_max * (max(centres) - min(centres)
                                         + 2.0 * cfg.molecule.half_separation))
    tasks = [lambda k=k: _profile_for_k(cfg, thetas, k) for k in k_values]
    tasks += [lambda k=k: _counterpart_for_k(cfg, thetas, k) for k in k_values]
    profiles = _columns_parallel(tasks, args.threads)
    with_profiles = profiles[:len(k_values)]
    without_profiles = profiles[len(k_values):]

    reports = []
    for k, pw, po in zip(k_values, with_profiles, without_profiles):
        # the comparison window is where the point-particle twin interferes
        window = fringe_window(po)
        vis_with = visibility(pw, window)
        vis_without = visibility(po, window)
        reports.append({
            "k": k,
            "window": [window[0], window[1]],
            "visibility_with": vis_with,
            "visibility_without": vis_without,
            "suppression_ratio": visibility_ratio(vis_with, vis_without),
        })

    manifest = {"subcommand": "compare", "config": serialize_config(cfg),
                "formats": list(formats)}
    run_dir = _run_dir(args.out, "compare", manifest)
    theta = output.Column(thetas)
    sigma_with = [output.Column(p.sigma) for p in with_profiles]
    sigma_without = [output.Column(p.sigma) for p in without_profiles]
    if "csv" in formats:
        output.write_text(run_dir / "compare_with.csv",
                          output.sweep_csv(theta, k_values, sigma_with))
        output.write_text(run_dir / "compare_without.csv",
                          output.sweep_csv(theta, k_values, sigma_without))
    if "json" in formats:
        _write_json(run_dir / "compare.json",
                    {"theta": theta, "k": list(k_values), "with": sigma_with,
                     "without": sigma_without, "engine": cfg.engine_variant,
                     "reports": reports})
    if "svg" in formats:
        for i, (k, pw, po) in enumerate(zip(k_values, with_profiles,
                                            without_profiles)):
            title = f"k={output.fmt_label(k)}"
            output.write_text(run_dir / f"compare_{i}.svg",
                              [output.profile_svg([("internal", pw),
                                                   ("structureless", po)], title)])
    print(run_dir)
    return 0


def cmd_validate(args) -> int:
    # imported here, so that only this subcommand loads mpmath
    from .oracle import OracleConvergenceError
    from .validate import run_checks

    formats = _parse_formats(args.format)
    try:
        results = run_checks(only=args.only)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    except OracleConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest = {"subcommand": "validate", "only": args.only,
                "formats": list(formats)}
    run_dir = _run_dir(args.out, "validate", manifest)
    doc = {"checks": [r.as_dict() for r in results],
           "all_passed": all(r.passed for r in results)}
    if "json" in formats:
        _write_json(run_dir / "validate.json", doc)
    if "csv" in formats:
        lines = ["name,worst,tol,passed"]
        lines += [f"{r.name},{output.fmt_real(r.worst)},"
                  f"{output.fmt_real(r.tol)},{str(r.passed).lower()}"
                  for r in results]
        output.write_text(run_dir / "validate.csv", ["\n".join(lines) + "\n"])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: worst {r.worst:.3e} vs tol {r.tol:.1e}")
    print(run_dir)
    return 0 if doc["all_passed"] else 2


def cmd_bessel_table(args) -> int:
    formats = _parse_formats(args.format)
    if args.n_max < 0 or args.n_max > specfun.ORDER_CAP:
        raise CliError(f"--n-max must be in [0, {specfun.ORDER_CAP}]", 1)
    if not 0.0 <= args.x <= specfun.ARGUMENT_CAP:  # NaN fails too
        raise CliError(f"--x must be in [0, {specfun.ARGUMENT_CAP:g}]", 1)
    values = output.Column(specfun.bessel_j_batch(args.n_max, args.x))
    manifest = {"subcommand": "bessel-table", "n_max": args.n_max,
                "x": args.x, "formats": list(formats)}
    run_dir = _run_dir(args.out, "bessel-table", manifest)
    if "csv" in formats:
        # each order n < 2**53 prints as its integer through %.17g
        orders = np.arange(args.n_max + 1, dtype=float)
        output.write_text(run_dir / "bessel_table.csv",
                          output.table_csv(["n", "J_n"], [orders, values]))
    if "json" in formats:
        _write_json(run_dir / "bessel_table.json", {"x": args.x, "values": values})
    print(run_dir)
    return 0


_DISPATCH = {
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "bessel-table": cmd_bessel_table,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 1
        return _DISPATCH[args.subcommand](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error: {path}: {message}", file=sys.stderr)
        return 1
    except (AnalysisError, UnsupportedVariantError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("numerical failure: a value overflowed the double range",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
