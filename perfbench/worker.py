"""Run one workload in this fresh process and print one JSON line.

    python3 perfbench/worker.py SPEC.json setup|run T0

T0 is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes), so ``setup_s`` runs from
process start to ``rotor_scatter.cli`` imported and every config of the
workload validated. In ``setup`` mode the worker stops there.

In ``run`` mode it then makes timed passes until SPEC's ``seconds`` are
used up, at least one. The first pass carries counters only (no timers);
its counts are the run's work counts and its files are what the gate
checks once timing is over. With tracing on, untraced and traced passes
alternate, and the thread probe follows. Every pass writes into a fresh
directory; each invocation's run directory must hash the same as in the
first pass.
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gate
import layers
import workloads


def _setup(spec):
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from rotor_scatter import cli
    from rotor_scatter.model import validate_config

    for inv in spec["invocations"]:
        validate_config(json.loads(Path(inv["config"]).read_text(encoding="utf-8")))
    return cli


def _count_invocation(counts, args, result):
    counts["cli.invocations"] += 1


class Runner:
    """Runs passes of one workload and records every invocation's outcome."""

    def __init__(self, cli, spec):
        self.cli = cli
        self.spec = spec
        self.work = Path(spec["work"])
        self.passes = 0
        self.outcomes = {}  # (pass, label) -> None, or why it failed
        self.reference = None  # run-dir digests of the first pass

    def invoke(self, main, argv, key):
        """One CLI call; returns its run directory, or None if it failed."""
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = main(argv)
        except Exception:  # a traceback is a failed invocation, not a crash
            traceback.print_exc()
            code = "traceback"
        self.outcomes[key] = None if code == 0 else f"exit {code}"
        return printed.getvalue().strip().splitlines()[-1] if code == 0 else None

    def fail(self, key, why):
        if self.outcomes.get(key) is None:
            self.outcomes[key] = why

    def run_pass(self, tracer=None, keep=False):
        """Time one pass; returns (wall, run dirs, layer snapshot or None)."""
        index = self.passes
        self.passes += 1
        out = self.work / f"pass{index}"
        main = self.cli.main
        patch = contextlib.nullcontext()
        if tracer is not None:
            main = tracer.wrap("cli", main, _count_invocation)
            patch = layers.installed(tracer, self.cli)
        invocations = self.spec["invocations"]
        start = time.perf_counter()
        with patch:
            run_dirs = [self.invoke(main, [inv["subcommand"], "--config", inv["config"],
                                           "--out", str(out),
                                           "--format", self.spec["formats"]],
                                    (index, inv["label"]))
                        for inv in invocations]
        wall = time.perf_counter() - start
        digests = [gate.digest(d) if d else None for d in run_dirs]
        if self.reference is None:
            self.reference = digests
        for inv, got, want in zip(invocations, digests, self.reference):
            if got != want:
                self.fail((index, inv["label"]), "bytes differ from the first pass")
        snapshot = None
        if tracer is not None:
            snapshot = tracer.snapshot()
            snapshot["counts"]["output.bytes"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return wall, run_dirs, snapshot

    def thread_probe(self):
        """Seconds for the five figure sweeps at --threads 1 and 2, three times each.

        None when the CLI no longer takes --threads. Each sweep's files
        must hash the same at both thread counts.
        """
        probe = ["sweep", "--config", "c.json", "--out", "o", "--threads", "2"]
        try:
            self.cli.build_parser().parse_args(probe)
        except Exception:  # any refusal of the flag means it is gone
            return None
        configs = Path(self.spec["root"]) / "configs"
        seconds = {"1": [], "2": []}
        reference = {}
        for rep, threads in enumerate(("1", "2", "2", "1", "1", "2")):
            out = self.work / f"threads{rep}"
            start = time.perf_counter()
            run_dirs = [self.invoke(self.cli.main,
                                    ["sweep", "--config", str(configs / f"{stem}.json"),
                                     "--out", str(out), "--format", "csv",
                                     "--threads", threads],
                                    (f"threads{rep}", stem))
                        for stem in workloads.FIGURE_SWEEPS]
            seconds[threads].append(time.perf_counter() - start)
            for stem, run_dir in zip(workloads.FIGURE_SWEEPS, run_dirs):
                got = gate.digest(run_dir) if run_dir else None
                if got != reference.setdefault(stem, got):
                    self.fail((f"threads{rep}", stem), "bytes differ across --threads")
            shutil.rmtree(out, ignore_errors=True)
        return seconds


def run(cli, spec, setup_s):
    runner = Runner(cli, spec)
    tracing = spec["trace"]
    start = time.perf_counter()
    wall, first_dirs, first = runner.run_pass(layers.Tracer(timing=False), keep=True)
    untraced, traced = [wall], []
    while True:
        cycle = untraced[-1]
        if tracing:
            wall, _, snapshot = runner.run_pass(layers.Tracer())
            traced.append({"wall": wall, **snapshot})
            cycle += wall
        if time.perf_counter() - start + cycle > spec["seconds"]:
            break
        untraced.append(runner.run_pass()[0])
    threads = runner.thread_probe() if tracing else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatched = {name for t in traced for name, value in t["counts"].items()
                  if first["counts"].get(name) != value}
    verdicts = gate.check(spec["name"], spec["invocations"], first_dirs, spec["root"])
    for verdict, run_dir in zip(verdicts, first_dirs):
        if run_dir is not None and verdict["problems"]:
            # every pass repeated the first pass's bytes, so each missed the gate
            for index in range(runner.passes):
                runner.fail((index, verdict["label"]), "; ".join(verdict["problems"]))
    shutil.rmtree(runner.work / "pass0", ignore_errors=True)
    failures = sorted(f"{key[0]}:{key[1]}: {why}"
                      for key, why in runner.outcomes.items() if why is not None)
    return {
        "setup_s": setup_s,
        "wall_s": untraced,
        "traced": traced,
        "counts": first["counts"],
        "count_mismatch": sorted(mismatched),
        "threads_s": threads,
        "peak_rss_mb": peak_rss_mb,
        "gate": verdicts,
        "attempted": len(runner.outcomes),
        "failures": failures,
    }


def main():
    spec_path, mode, t0 = sys.argv[1], sys.argv[2], float(sys.argv[3])
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = _setup(spec)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s} if mode == "setup" else run(cli, spec, setup_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
