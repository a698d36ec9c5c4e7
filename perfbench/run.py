#!/usr/bin/env python3
"""Benchmark of the rotor-scatter CLI: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``.
Each run starts fresh worker processes (``worker.py``): SETUP_PROBES
that only import and validate, for ``setup_s``, and one that runs the
workload's passes back to back (closed loop, one client, --threads 1).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median set-up) and ``peak_rss_mb``. ``--trace 1`` reports
the per-layer metrics from traced passes (see README.md). Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the
workload's shape, the spread of every timing, the work counts and the
correctness gate. The full record goes to
``.perfbench_out/results/<workload>_seed<N>_trace<T>.json``, written with
sorted keys so two runs can be compared with ``diff``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"


def _missing_sources(root):
    needed = [root / "BENCHMARK.json", root / "src" / "rotor_scatter" / "cli.py",
              root / "tests" / "goldens.json"]
    needed += [root / "configs" / f"{stem}.json"
               for stem in dict.fromkeys(stem for stem, _ in workloads.FIGURE_RUNS)]
    return [str(p.relative_to(root)) for p in needed if not p.is_file()]


def _spawn(spec_path, mode, timeout):
    """Start a worker, wait for it, return its JSON line."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           mode, repr(t0)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values):
    """(median, first quartile, third quartile) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _end_to_end(result, setups):
    return {"wall_s": statistics.median(result["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"]}


def _per_layer(result):
    traced = result["traced"]
    counts = result["counts"]
    metrics = {f"{layer}.self_s": statistics.median(t["self_s"][layer] for t in traced)
               for layer in layers.LAYERS}
    for part in traced[0]["part_s"]:
        metrics[part] = statistics.median(t["part_s"][part] for t in traced)
    metrics.update({name: counts.get(name, 0) for name in layers.COUNTS})
    elements = metrics["specfun.elements"]
    metrics["specfun.ns_per_element"] = (
        metrics["specfun.self_s"] / elements * 1e9 if elements else 0.0)
    traced_wall = statistics.median(t["wall"] for t in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(result["wall_s"])
    metrics["trace.coverage"] = statistics.median(
        sum(t["self_s"].values()) / t["wall"] for t in traced)
    threads = result["threads_s"]
    if threads is not None:
        metrics["cli.threads2_speedup"] = (statistics.median(threads["1"])
                                           / statistics.median(threads["2"]))
    metrics["check.pointwise_rel"] = max(
        (v["pointwise_rel"] for v in result["gate"] if v["pointwise_rel"] is not None),
        default=0.0)
    return metrics


def _declared(root, trace):
    """{metric name: unit} that BENCHMARK.json declares for this mode."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _report(args, spec, result, setups, metrics, failed):
    """Human-readable lines before the final JSON line."""
    shape = spec["shape"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {workloads.WHY[args.workload]}")
    print(f"  invocations {shape['invocations']}  angles {shape['angles']}  "
          f"sigma samples {shape['sigma_samples']}")
    print("  k per invocation " + "  ".join(
        f"[{ks[0]:g}]" if len(ks) == 1 else f"[{ks[0]:g}..{ks[-1]:g}, {len(ks)}]"
        for ks in shape["k"]))
    if spec["params"]:
        print("  seeded params " + "  ".join(f"{k}={v:.6g}"
                                             for k, v in spec["params"].items()))
    for label, values in (("wall_s", result["wall_s"]), ("setup_s", setups)):
        med, q1, q3 = _spread(values)
        print(f"  {label:<12} median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={len(values)}")
    for name in layers.COUNTS:
        print(f"  count {name} {result['counts'].get(name, 0)}")
    for verdict in result["gate"]:
        rel = verdict["max_rel"]
        rel = "n/a" if rel is None else f"{rel:.3e}"
        point = verdict["pointwise_rel"]
        point = "n/a" if point is None else f"{point:.3e}"
        status = "ok" if not verdict["problems"] else "; ".join(verdict["problems"])
        print(f"  gate {verdict['label']}: {status}  closed-form max-rel {rel}  "
              f"pointwise-rel {point} (ungated)")
    if result["count_mismatch"]:
        print(f"  counts differ between passes: {result['count_mismatch']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(f"  fail_ratio {failed}/{result['attempted']} = "
          f"{failed / result['attempted']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    missing = _missing_sources(root)
    if missing:
        print(f"error: run from the rotor-scatter repository root; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    work = root / OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = workloads.build(args.workload, args.seed, root, work)
        spec.update(root=str(root), work=str(work), seconds=args.seconds,
                    trace=bool(args.trace), formats=workloads.FORMATS)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
        setups = [_spawn(spec_path, "setup", 60)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _spawn(spec_path, "run", DEADLINE_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    failed = len(result["failures"])
    measured = _per_layer(result) if args.trace else _end_to_end(result, setups)
    metrics = {name: (measured[name], unit)
               for name, unit in _declared(root, args.trace).items() if name in measured}
    _report(args, spec, result, setups, metrics, failed)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "params": spec["params"], "shape": spec["shape"],
              **result, "setup_s": setups, "metrics": measured, "failed": failed,
              "run_s": time.monotonic() - start}
    results = (root / OUT / "results" /
               f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"  record written to {results}")

    correct = failed == 0 and not result["count_mismatch"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
