#!/usr/bin/env python3
"""Benchmark of the levosc command line, end to end and layer by layer.

Each workload drives ``levosc.cli.main`` in process from one thread, one
call after another (a closed loop with one caller), with ``--threads``
at its default. The program is imported from ``src/`` beside this
directory. See NOTES.md for the workloads, metrics and known defects.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload oracle-sweep --seed 3 \\
        --seconds 15 --trace 0

With ``--workload`` the run measures that workload in this process and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without it, each workload runs in its own process and a table follows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS, Call, CheckFailed, check_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
COMMANDS = ("damping_curve", "damping_curve_svg", "fit_he3",
            "detection_sweep", "sensitivity", "ringdown_simulate",
            "ringdown_analyze")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# ROADMAP open item 1: (label, baseline seconds, traced numerator,
# denominator); no denominator means the longest single call
BASELINES = (
    ("damping_curve, 10k points", 0.174, "damping.damping_curve", None),
    ("mutual_inductance, per call", 1.8e-3,
     "detection.mutual_inductance.self_s",
     "detection.mutual_inductance.calls"),
    ("oracle 128x128, per solve", 0.73,
     "axisym.axisymmetric_oracle.self_s", "axisym.axisymmetric_oracle.calls"),
    ("synthesis, 120 blocks", 0.085,
     "ringdown.synthesize_ringdown.self_s",
     "ringdown.synthesize_ringdown.calls"),
    ("block amplitudes, 120 blocks", 0.066,
     "ringdown.block_amplitude.self_s", "ringdown.analyze_ringdown.calls"),
    ("decay fit", 1e-4,
     "ringdown.fit_decay.self_s", "ringdown.fit_decay.calls"),
)


def per_layer_units() -> dict[str, str]:
    units = tracing.metric_units()
    for label in COMMANDS:
        units[f"cli.{label}_s"] = "s"
    units.update({"trace.run_s_traced": "s", "trace.run_s_untraced": "s",
                  "trace.overhead_s": "s"})
    return units


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def machine_note() -> str:
    import numpy
    import scipy
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc {os.cpu_count()}, shared with other "
            f"containers; python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}; load "
            f"average at start {load}")


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing ``levosc.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import levosc.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        samples.append(perf_counter() - start)
    return samples


class Runner:
    """Makes CLI calls, times them and counts the ones that fail."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, call: Call) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            # looked up on each call, so a traced pass runs the wrapper
            code = self.cli.main(list(call.argv))
        except Exception as exc:                       # noqa: BLE001
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}")
            check_manifest(call.out)
            call.check(call.out)
        except CheckFailed as exc:
            self.failures.append(f"{call.label} {' '.join(call.argv)}: "
                                 f"{exc}")
        return elapsed

    def ok(self, call: Call) -> bool:
        before = len(self.failures)
        self.run(call)
        return len(self.failures) == before


def run_pass(runner: Runner, calls: list[Call], times: dict) -> float:
    total = 0.0
    for call in calls:
        elapsed = runner.run(call)
        times.setdefault(call.label, []).append(elapsed)
        total += elapsed
    return total


def run_one(args, spec: dict) -> int:
    names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    if names != set(END_TO_END) or layer_names != set(per_layer_units()):
        print("BENCHMARK.json does not list the metrics run.py reports",
              file=sys.stderr)
        return 2
    note(machine_note())
    note(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
         f"trace {args.trace}")
    setup = measure_setup()

    sys.path.insert(0, str(SRC))
    import levosc.cli
    if Path(levosc.cli.__file__).resolve().parent != SRC / "levosc":
        print(f"imported levosc from {levosc.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return measure(args, setup, levosc.cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass            # another run still uses it


def measure(args, setup: list[float], cli_module, work: Path) -> int:
    runner = Runner(cli_module)
    workload = WORKLOADS[args.workload](work, random.Random(args.seed))
    workload.setup(runner.ok)
    run_pass(runner, workload.warmup(work / "warmup"), {})
    shutil.rmtree(work / "warmup", ignore_errors=True)

    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_samples: list[dict] = []
    longest: dict[str, float] = {}
    times: dict[str, list[float]] = {}
    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        pass_dir = work / f"pass{index}"
        calls = workload.calls(pass_dir)
        if args.trace and index % 2 == 1:
            tracer.reset()
            with tracer:
                traced.append(run_pass(runner, calls, {}))
            layer_samples.append(tracer.metrics())
            for key, stat in tracer.stats.items():
                longest[key] = max(longest.get(key, 0.0), stat.longest)
        else:
            untraced.append(run_pass(runner, calls, times))
        shutil.rmtree(pass_dir, ignore_errors=True)
        index += 1
        if perf_counter() >= deadline and (traced or not args.trace):
            break

    failed = len(runner.failures)
    note(f"setup_s: median of {len(setup)} fresh-interpreter imports of "
         f"levosc.cli")
    note(f"run_s: median of {len(untraced)} untraced passes")
    for label, samples in times.items():
        note(f"  {label}: median {statistics.median(samples):.4f} s over "
             f"{len(samples)} calls")
    note(f"operations: attempted {runner.attempted}, failed {failed}")
    for failure in runner.failures[:10]:
        note(f"  failed: {failure}")

    if args.trace:
        metrics = layer_metrics(tracer, layer_samples, times, untraced,
                                traced, longest)
        units = per_layer_units()
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": statistics.median(setup),
                   "run_s": statistics.median(untraced),
                   "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END
        for name, value in metrics.items():
            note(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def layer_metrics(tracer, samples: list[dict], times: dict,
                  untraced: list[float], traced: list[float],
                  longest: dict) -> dict[str, float]:
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in tracing.metric_units()}
    for label in COMMANDS:
        metrics[f"cli.{label}_s"] = statistics.median(times.get(label, [0.0]))
    metrics["trace.run_s_traced"] = statistics.median(traced)
    metrics["trace.run_s_untraced"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.run_s_traced"]
                                   - metrics["trace.run_s_untraced"])

    note(f"per layer: median of {len(samples)} traced passes, per pass; "
         f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass "
         f"({len(traced)} traced, {len(untraced)} untraced passes)")
    if tracer.absent:
        note(f"absent, reported as 0: {', '.join(tracer.absent)}")
    if tracer.broken_counters:
        note("counters that could not be read: "
             + ", ".join(sorted(tracer.broken_counters)))
    for module, func, has_children in tracing.TRACED:
        key = f"{module}.{func}"
        if metrics[f"{key}.calls"]:
            total = (f", total {metrics[f'{key}.total_s']:.4f} s"
                     if has_children else "")
            note(f"  {key}: {metrics[f'{key}.calls']:g} calls, self "
                 f"{metrics[f'{key}.self_s']:.4f} s{total}")
    note("against the ROADMAP item 1 baselines (flag: off by over 2x):")
    for label, baseline, num, den in BASELINES:
        if den is None:
            value = longest.get(num)
        else:
            value = metrics[num] / metrics[den] if metrics[den] else None
        if not value:
            note(f"  {label}: baseline {baseline:.4g} s, not run here")
            continue
        ratio = value / baseline
        flag = "  FLAG" if not 0.5 <= ratio <= 2.0 else ""
        note(f"  {label}: {value:.4g} s traced, baseline {baseline:.4g} s, "
             f"ratio {ratio:.2f}{flag}")
    return metrics


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own process, then one table."""
    note(machine_note())
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])

    note(f"{'workload':<16} {'metric':<44} {'value':>12} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            note(f"{name:<16} {metric:<44} {entry['value']:>12.6g} "
                 f"{entry['unit']}")
        note(f"{name:<16} operations attempted {result['attempted']}, "
             f"failed {result['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry
                    for name, result in results.items()
                    for metric, entry in result["metrics"].items()}}))
    return 0


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "levosc" / "cli.py").is_file():
        print(f"no levosc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload here (default: all, each "
                             "in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
