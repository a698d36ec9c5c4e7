"""The benchmark harness still runs against the package and prints the
metrics BENCHMARK.json declares.

perfbench/run.py dies before its final JSON line when the package loses a
name or keyword the harness calls, or raises outside the harness's
guards. The smallest workload runs once per mode, both modes at the same
time, and the Bessel-bound ladder once untraced, from the repository
root; the runs rewrite the ignored
.perfbench_out/results/{figures_seed0_trace0,figures_seed0_trace1,ladder_seed0_trace0}.json
records.

The benchmark validates every config before it times anything, so each
document its workloads generate must keep validating to the same
normalised config.
"""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

from rotor_scatter.model import serialize_config, validate_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
# sha256 of the normalised configs of every benchmark document below
BENCH_CONFIGS_SHA256 = "387e93d0440fdf25d9124450225a0cf6b987e206229a39cb0498fcc2f057b9e9"


def _start(workload, trace):
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _check(proc, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, out
    want = declared["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in want)


def test_figures_workload_prints_declared_metrics():
    runs = {trace: _start("figures", trace) for trace in (0, 1)}
    for trace, proc in runs.items():
        _check(proc, trace)


def test_ladder_workload_prints_declared_metrics():
    _check(_start("ladder", 0), 0)


def test_benchmark_configs_validate_to_pinned_documents(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    echoes = []
    for name in workloads.NAMES:
        for seed in (0,) if name == "figures" else (0, 1, 2):
            work = tmp_path / f"{name}_{seed}"
            work.mkdir()
            for inv in workloads.build(name, seed, ROOT, work)["invocations"]:
                doc = json.loads(pathlib.Path(inv["config"]).read_text(encoding="utf-8"))
                echoes.append(serialize_config(validate_config(doc)))
    text = json.dumps(echoes, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BENCH_CONFIGS_SHA256
