"""Command-line front end.

Subcommands: profile, sweep, compare, validate, bessel-table. Every run
writes into a directory named from the hash of its manifest, so repeating
a run reproduces the same files byte for byte.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical or
validation failure.
"""

import argparse
import contextlib
import functools
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import output, specfun
from .analysis import fringe_window, require_samples, visibility, visibility_ratio
from .born import (bessel_groups, closed_rotor, profile_closed, profile_general,
                   profile_structureless, structureless_counterpart)
from .kinematics import AngleGrid, angle_grid, open_channels
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

# the formats each kind of subcommand writes
_FORMATS = ("csv", "json", "svg")
_TABLE_FORMATS = ("csv", "json")  # validate and bessel-table draw no plot


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
    pv.add_argument("--format", default="json",
                    help="comma-separated subset of csv,json")
    pv.add_argument("--only", default=None,
                    help="run only checks whose name starts with this prefix")

    pb = sub.add_parser("bessel-table", help="dump J_n(x) for n = 0..n-max")
    pb.add_argument("--n-max", type=int, required=True)
    pb.add_argument("--x", type=float, required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--format", default="csv",
                    help="comma-separated subset of csv,json")
    return parser


def _parse_formats(raw: str, writable: Tuple[str, ...]) -> Tuple[str, ...]:
    """The sorted distinct formats of a --format value, each of which the
    subcommand can write."""
    parts = tuple(p for p in raw.split(",") if p)
    for p in parts:
        if p not in writable:
            raise CliError(f"cannot write format {p!r}, expected subset of "
                           f"{','.join(writable)}", 1)
    if not parts:
        raise CliError("at least one output format is required", 1)
    return tuple(sorted(set(parts)))


def _load_config(path: str) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", 1)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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


def _engines(cfg: Config, grid: AngleGrid, compare: bool) -> List[tuple]:
    """The configured engine on ``grid``, then for ``compare`` its
    structureless twin, each as a pair (rotor, run): rotor(k) is the
    (beam, molecule) whose channels the engine sums at k, or None for an
    engine without channels; run(k, rows) the profile at k from the
    ChannelRows of that rotor (None for None).

    A closed engine's template is checked here, once per run.
    """
    variant, molecule, spec = cfg.engine_variant, cfg.molecule, cfg.potential
    if compare and variant not in ("general", *CLOSED_TWINS):
        raise ConfigError([("engine.variant", "compare needs an "
                            "internal-structure engine (general or a closed "
                            "internal variant)")])
    if variant == "general":
        def twin(k, rows):
            mass2, spec2 = structureless_counterpart(molecule, spec)
            return profile_structureless(grid, mass2, k, spec2)
        engines = [(lambda k: (_beam_for_k(cfg, k), molecule),
                    lambda k, rows: profile_general(grid, molecule,
                                                    _beam_for_k(cfg, k), spec,
                                                    rows=rows)),
                   (None, twin)]
    elif variant == "structureless":
        engines = [(None, lambda k, rows: profile_structureless(
            grid, molecule.atom_mass, k, spec))]
    else:
        params = _closed_params(cfg)
        alpha = molecule.half_separation
        engines = [(lambda k, v=v: closed_rotor(v, k, alpha),
                    lambda k, rows, v=v: profile_closed(
                        v, grid, mass=molecule.atom_mass, k=k, alpha=alpha,
                        rows=rows, **params))
                   for v in ((variant, CLOSED_TWINS[variant]) if compare
                             else (variant,))]
    return engines[:1 + compare]


def _profiles(engines: List[tuple], grid: AngleGrid,
              k_values: Tuple[float, ...],
              threads: int) -> List[List[CrossSectionProfile]]:
    """Each engine's profile at each k, one Bessel group at a time (see
    born.bessel_groups), each group's profiles on a pool of ``threads``
    workers.

    Overflow or invalid arithmetic in an engine leaves a non-finite sigma,
    which CrossSectionProfile refuses (exit 2, one message line); numpy's
    RuntimeWarning lines would only repeat that on stderr. errstate is per
    thread, so each task sets it itself, and so does the group pass. A
    sigma of 0.0 at every angle is refused too: an all-zero file would
    look like a result.
    """
    def run(task):
        (engine, k), rows = task
        with np.errstate(all="ignore"):
            profile = engine(k, rows)
        if not profile.sigma.any():
            raise ValueError(f"sigma is 0 at every angle at k={k!r}: it is "
                             "below the double range, or v0 = 0 on every peak")
        return profile

    tasks = [(engine, k) for _, engine in engines for k in k_values]
    rotors = [rotor and rotor(k) for rotor, _ in engines for k in k_values]
    profiles = []
    pool = None
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        pool = ThreadPoolExecutor(max_workers=threads)
    with np.errstate(all="ignore"), pool or contextlib.nullcontext():
        for rows in bessel_groups(grid, rotors):
            batch = tasks[len(profiles):len(profiles) + len(rows)]
            profiles += (pool.map if pool else map)(run, zip(batch, rows))
            del rows  # free this group's rows before the next is made
    n = len(k_values)
    return [profiles[i:i + n] for i in range(0, len(profiles), n)]


def _run_engines(args) -> Tuple[Config, np.ndarray, Tuple[float, ...], dict,
                                List[List[CrossSectionProfile]]]:
    """Config, theta grid, wavenumbers, manifest and profiles of a profile,
    sweep or compare run: the engine's at each k, then for compare the
    twin's. Every refusal comes before the first profile."""
    cfg = _load_config(args.config)
    manifest = {"subcommand": args.subcommand, "config": serialize_config(cfg),
                "formats": list(_parse_formats(args.format, _FORMATS))}
    scan, compare = cfg.scan, args.subcommand == "compare"
    if scan is None:
        raise ConfigError([("scan", "this subcommand needs a scan block "
                            "with a theta grid")])
    if args.subcommand == "sweep" and not scan.k_values:
        raise ConfigError([("scan.k", "sweep needs a non-empty list")])
    k_values = ((cfg.beam.wavenumber,) if args.subcommand == "profile"
                else scan.k_values or (cfg.beam.wavenumber,))
    # the run's one trig pass over the grid and its mirror map
    grid = angle_grid(scan.thetas())
    thetas = grid.thetas
    engines = _engines(cfg, grid, compare)
    if compare:
        # sigma oscillates in theta no faster than kappa_max * (span of the peak
        # centres + 2 alpha): the pair phases q_x * (c - c') and J^2(alpha |q|)
        centres = [p.center_x for p in cfg.potential.peaks]
        kappa_max = max(ch.kappa for k in k_values
                        for ch in open_channels(_beam_for_k(cfg, k), cfg.molecule))
        require_samples(thetas, kappa_max * (max(centres) - min(centres)
                                             + 2.0 * cfg.molecule.half_separation))
    profiles = _profiles(engines, grid, k_values, args.threads)
    return cfg, thetas, k_values, manifest, profiles


def _json(doc) -> Iterable[str]:
    return chain(output.emit_json(doc), ["\n"])


def _write_run(out_root: str, manifest: dict,
               entries: List[Tuple[str, str, Callable[[], Iterable[str]]]]) -> int:
    """Write a run directory and print its path.

    The directory is named from the manifest's hash. It holds
    ``manifest.json`` and, for each (format, file name, pieces) entry whose
    format the manifest lists, the file; ``pieces`` is called only then.
    """
    run_dir = Path(out_root) / f"{manifest['subcommand']}_{output.manifest_hash(manifest)}"
    try:
        output.write_text(run_dir / "manifest.json", _json(manifest))
        for fmt, name, pieces in entries:
            if fmt in manifest["formats"]:
                output.write_text(run_dir / name, pieces())
    except OSError as exc:
        raise CliError(f"cannot write {run_dir}: {exc}", 1)
    print(run_dir)
    return 0


def cmd_profile(args) -> int:
    cfg, _, (k,), manifest, [[profile]] = _run_engines(args)
    # one Column per array: the CSV and the JSON share its cells
    theta, sigma = output.Column(profile.thetas), output.Column(profile.sigma)
    channels = {key: output.Column(arr)
                for key, arr in (profile.per_channel or {}).items()}
    doc = {"theta": theta, "sigma": sigma, "metadata": dict(profile.metadata)}
    if channels:
        doc["channels"] = {output.channel_label(key): col
                           for key, col in channels.items()}
    return _write_run(args.out, manifest, [
        ("csv", "profile.csv", lambda: output.profile_csv(theta, sigma, channels)),
        ("json", "profile.json", lambda: _json(doc)),
        ("svg", "profile.svg", lambda: [output.profile_svg(
            [(cfg.engine_variant, profile)],
            f"{cfg.engine_variant}, k={output.fmt_label(k)}")])])


def cmd_sweep(args) -> int:
    cfg, thetas, k_values, manifest, [profiles] = _run_engines(args)
    theta = output.Column(thetas)
    sigma = [output.Column(p.sigma) for p in profiles]
    doc = {"theta": theta, "k": list(k_values), "sigma_columns": sigma,
           "engine": cfg.engine_variant}
    return _write_run(args.out, manifest, [
        ("csv", "sweep.csv", lambda: output.sweep_csv(theta, k_values, sigma)),
        ("json", "sweep.json", lambda: _json(doc)),
        ("svg", "sweep.svg",
         lambda: [output.sweep_svg(thetas, k_values, [p.sigma for p in profiles],
                                   f"sweep: {cfg.engine_variant}")])])


def cmd_compare(args) -> int:
    cfg, thetas, k_values, manifest, (rotor, twin) = _run_engines(args)
    reports = []
    for k, pw, po in zip(k_values, rotor, twin):
        # the comparison window is where the point-particle twin interferes
        window = fringe_window(po)
        vis_with, vis_without = visibility(pw, window), visibility(po, window)
        reports.append({"k": k, "window": [window[0], window[1]],
                        "visibility_with": vis_with,
                        "visibility_without": vis_without,
                        "suppression_ratio": visibility_ratio(vis_with, vis_without)})
    theta = output.Column(thetas)
    sigma_with = [output.Column(p.sigma) for p in rotor]
    sigma_without = [output.Column(p.sigma) for p in twin]
    doc = {"theta": theta, "k": list(k_values), "with": sigma_with,
           "without": sigma_without, "engine": cfg.engine_variant,
           "reports": reports}
    return _write_run(args.out, manifest, [
        ("csv", "compare_with.csv",
         lambda: output.sweep_csv(theta, k_values, sigma_with)),
        ("csv", "compare_without.csv",
         lambda: output.sweep_csv(theta, k_values, sigma_without)),
        ("json", "compare.json", lambda: _json(doc)),
        *(("svg", f"compare_{i}.svg",
           lambda k=k, pw=pw, po=po: [output.profile_svg(
               [("internal", pw), ("structureless", po)], f"k={output.fmt_label(k)}")])
          for i, (k, pw, po) in enumerate(zip(k_values, rotor, twin)))])


def cmd_validate(args) -> int:
    # imported here, so that only this subcommand loads mpmath
    from .oracle import OracleConvergenceError
    from .validate import run_checks

    formats = _parse_formats(args.format, _TABLE_FORMATS)
    try:
        results = run_checks(only=args.only)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    except OracleConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest = {"subcommand": "validate", "only": args.only,
                "formats": list(formats)}
    doc = {"checks": [r.as_dict() for r in results],
           "all_passed": all(r.passed for r in results)}
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: worst {r.worst:.3e} vs tol {r.tol:.1e}")
    _write_run(args.out, manifest, [
        ("json", "validate.json", lambda: _json(doc)),
        ("csv", "validate.csv",
         lambda: ["name,worst,tol,passed\n"]
         + [f"{r.name},{output.fmt_real(r.worst)},{output.fmt_real(r.tol)},"
            f"{str(r.passed).lower()}\n" for r in results])])
    return 0 if doc["all_passed"] else 2


def cmd_bessel_table(args) -> int:
    formats = _parse_formats(args.format, _TABLE_FORMATS)
    if args.n_max < 0 or args.n_max > specfun.ORDER_CAP:
        raise CliError(f"--n-max must be in [0, {specfun.ORDER_CAP}]", 1)
    if not 0.0 <= args.x <= specfun.ARGUMENT_CAP:  # NaN fails too
        raise CliError(f"--x must be in [0, {specfun.ARGUMENT_CAP:g}]", 1)
    values = output.Column(specfun.bessel_j_batch(args.n_max, args.x))
    manifest = {"subcommand": "bessel-table", "n_max": args.n_max,
                "x": args.x, "formats": list(formats)}
    # each order n < 2**53 prints as its integer through %.17g
    return _write_run(args.out, manifest, [
        ("csv", "bessel_table.csv", lambda: output.table_csv(
            ["n", "J_n"], [np.arange(args.n_max + 1, dtype=float), values])),
        ("json", "bessel_table.json", lambda: _json({"x": args.x, "values": values}))])


_DISPATCH = {
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "bessel-table": cmd_bessel_table,
}


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built on first use and reused by every call
    of main in the process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
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
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("numerical failure: a value overflowed the double range",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
