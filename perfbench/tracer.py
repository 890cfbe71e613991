"""Outside-in tracer for the levosc layers.

The tracer wraps each listed function of ``src/levosc/`` from the
benchmark's side: it replaces the function in every ``levosc.*`` module
namespace that binds it (``fitting`` imports ``damping_curve`` by name,
``cli`` imports ``line_plot_svg`` by name, ``damping`` imports two
``media`` functions by name), keeps a span stack to split each call's
duration into self time and time in traced children, counts exceptions
that leave a layer, takes counters from return values, and puts the
originals back when it is uninstalled. A function that no longer exists
is reported as absent and reads as zero.

One span stack is shared by all threads. That is right only while one
thread runs levosc code at a time, which holds because the benchmark
leaves ``--threads`` at its default of 1: the oracle's single worker
thread runs while the calling thread waits for it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("cli", "media", "damping", "fitting", "detection", "axisym",
          "ringdown", "svgplot")

# (module, function, has traced children)
TRACED = (
    ("cli", "main", True),
    ("media", "viscosity_normal", False),
    ("media", "thermal_velocity_he3", False),
    ("damping", "damping_curve", True),
    ("damping", "tau_phonon", False),
    ("damping", "tau_total", False),
    ("damping", "write_damping_csv", False),
    ("fitting", "fit_he3_concentration", True),
    ("fitting", "model_residuals", True),
    ("fitting", "model_tau", True),
    ("fitting", "predict_contamination", True),
    ("detection", "position_sweep", True),
    ("detection", "mutual_inductance", False),
    ("detection", "effective_inductance", True),
    ("detection", "induced_voltage", True),
    ("detection", "coil_field", False),
    ("detection", "write_sweep_csv", False),
    ("axisym", "axisymmetric_oracle", False),
    ("axisym", "_build_axes", False),
    ("ringdown", "synthesize_ringdown", False),
    ("ringdown", "write_block_bin", False),
    ("ringdown", "read_block_bin", False),
    ("ringdown", "block_amplitude", False),
    ("ringdown", "fit_decay", False),
    ("ringdown", "analyze_ringdown", True),
    ("ringdown", "write_series_csv", False),
    ("svgplot", "line_plot_svg", False),
)


def _count_sweep(counters: dict, result) -> None:
    counters["detection.poses"] += len(result.rows)
    counters["detection.sweep_failed_rows"] += len(result.errors)


def _count_oracle(counters: dict, result) -> None:
    counters["axisym.sor_sweeps"] += int(result.iterations)


def _count_analysis(counters: dict, result) -> None:
    series, _ = result
    counters["ringdown.blocks_flagged"] += sum(
        1 for row in series.rows if row.flagged)


# counters read from the return value of one traced function
COUNTERS = {
    "detection.position_sweep": _count_sweep,
    "axisym.axisymmetric_oracle": _count_oracle,
    "ringdown.analyze_ringdown": _count_analysis,
}
COUNTER_NAMES = ("detection.poses", "detection.sweep_failed_rows",
                 "axisym.sor_sweeps", "ringdown.blocks_flagged")

# ratio name -> (numerator, denominator), both metric names below
RATIOS = {
    "fitting.model_tau.calls_per_objective":
        ("fitting.model_tau.calls", "fitting.model_residuals.calls"),
    "detection.mutual_inductance.calls_per_pose":
        ("detection.mutual_inductance.calls", "detection.poses"),
    "axisym.sweeps_per_solve":
        ("axisym.sor_sweeps", "axisym.axisymmetric_oracle.calls"),
}


def metric_units() -> dict[str, str]:
    """Every metric :meth:`Tracer.metrics` reports, with its unit."""
    units = {}
    for module, func, has_children in TRACED:
        key = f"{module}.{func}"
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        if has_children:
            units[f"{key}.total_s"] = "s"
    for name in COUNTER_NAMES:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


class _Stat:
    __slots__ = ("calls", "total", "self", "longest")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.longest = 0.0


class Tracer:
    """Wraps the :data:`TRACED` functions while installed.

    Use as a context manager around the code to trace; :meth:`reset`
    clears the statistics between passes.
    """

    def __init__(self):
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._stack: list[list] = []     # [child seconds, layer] per span
        self._patched: list[tuple[object, str, object]] = []
        self.stats = {f"{m}.{f}": _Stat() for m, f, _ in TRACED}
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = 0
            stat.total = stat.self = stat.longest = 0.0
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.errors = dict.fromkeys(LAYERS, 0)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "levosc" or name.startswith("levosc."))]
        self.absent = []
        for module, func, _ in TRACED:
            key = f"{module}.{func}"
            home = sys.modules.get(f"levosc.{module}")
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(original, key, module)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        self._stack.clear()

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats[key]
        stack = self._stack
        count = COUNTERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            left_by_exception = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                left_by_exception = False
            finally:
                duration = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self += duration - frame[0]
                if duration > stat.longest:
                    stat.longest = duration
                if stack:
                    stack[-1][0] += duration
                if left_by_exception and (not stack
                                          or stack[-1][1] != layer):
                    tracer.errors[layer] += 1
            if count is not None:
                try:
                    count(tracer.counters, result)
                except (AttributeError, TypeError, ValueError):
                    tracer.broken_counters.add(key)
            if key == "cli.main" and result != 0:
                tracer.errors["cli"] += 1
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics for the statistics since :meth:`reset`."""
        out: dict[str, float] = {}
        for module, func, has_children in TRACED:
            key = f"{module}.{func}"
            stat = self.stats[key]
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.self_s"] = stat.self
            if has_children:
                out[f"{key}.total_s"] = stat.total
        out.update(self.counters)
        for name, (num, den) in RATIOS.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out
