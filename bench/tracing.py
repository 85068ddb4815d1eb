"""Spans at chanopt's layer boundaries, recorded from the benchmark's side.

The tracer replaces each traced public function, in every chanopt module
that holds a reference to it, by a wrapper that records a span (name,
start, end, parent span, operation id). Internal calls between modules go
through those module attributes, so they are counted too. Spans stay in
memory until the run ends; self time is a span's duration minus the time
its child spans cover.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from functools import wraps

# (module, function): the boundaries the per-layer metrics are read from
TRACED = (
    ("numerics", "trace_norm"),
    ("numerics", "is_density"),
    ("comparison", "gap_curve"),
    ("comparison", "dominance_check"),
    ("comparison", "cptp_feasible"),
    ("channels", "make_family"),
    ("channels", "validate_cptp"),
    ("channels", "apply_extended"),
    ("repetition", "repeated_output"),
    ("repetition", "adaptive_vs_identical"),
    ("repetition", "identical_matches_sequential"),
    ("optimal_inputs", "group_correction_simulator"),
    ("optimal_inputs", "unital_qubit_protocol"),
    ("optimal_inputs", "measurement_input_certify"),
    ("entanglement", "separable_suffices"),
    ("entanglement", "meas_separable_check"),
    ("geometry", "ang_sample"),
)

SETUP = "setup"


def _suffix(name: str, args, kwargs, result) -> tuple[str, int]:
    """Split spans whose cost depends on the case: solver outcome, strategy."""
    if name == "comparison.cptp_feasible":
        return f"{name}.{'feasible' if result.feasible else 'infeasible'}", 0
    if name == "repetition.repeated_output":
        strat = args[1] if len(args) > 1 else kwargs["strat"]
        return f"{name}.{strat.mode}", 0
    if name == "comparison.dominance_check":
        m = len(args[0]) if args else len(kwargs["candidate_outputs"])
        return name, m * (m - 1) // 2
    return name, 0


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, extra count]
        self.spans: list[list] = []
        self.op = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn):
        """Run fn() inside a span of the given name (used for operations)."""
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[0], span[5] = _suffix(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "chanopt" or n.startswith("chanopt."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"chanopt.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Counts and times are per operation (totals over the traced operations
    divided by their number). The channels layer also does its work while
    the inputs are built, so its metrics add the traced set-up build to the
    per-operation figure. Solver latencies are medians per call.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    calls: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    setup_calls: dict[str, float] = defaultdict(float)
    setup_total: dict[str, float] = defaultdict(float)
    durations: dict[str, list] = defaultdict(list)
    certify_calls = certify_feasible = 0
    for idx, (name, start, end, parent, op, count) in enumerate(spans):
        dur = end - start
        if op == SETUP:
            setup_calls[name] += 1
            setup_total[name] += dur
            continue
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - covered[idx]
        extra[name] += count
        durations[name].append(dur)
        if name.startswith("comparison.cptp_feasible"):
            p = parent
            while p >= 0 and spans[p][0] != "comparison.dominance_check":
                p = spans[p][3]
            if p >= 0:
                certify_calls += 1
                certify_feasible += name.endswith(".feasible")

    n = max(n_ops, 1)
    out: dict[str, float] = {}

    def per_op(key, name):
        out[f"{key}.calls"] = calls[name] / n
        out[f"{key}.ms"] = _ms(total[name]) / n

    per_op("numerics.trace_norm", "numerics.trace_norm")
    per_op("numerics.is_density", "numerics.is_density")
    per_op("comparison.gap_curve", "comparison.gap_curve")
    out["comparison.pairs"] = extra["comparison.dominance_check"] / n
    out["comparison.dominance_check.self_ms"] = _ms(self_t["comparison.dominance_check"]) / n
    for outcome in ("feasible", "infeasible"):
        name = f"comparison.cptp_feasible.{outcome}"
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.p50_ms"] = _ms(statistics.median(durations[name])) if durations[name] else 0.0
    out["comparison.certify.solver_calls"] = certify_calls / n
    out["comparison.certify.feasible"] = certify_feasible / n
    out["comparison.certify.useful_ratio"] = certify_feasible / certify_calls if certify_calls else 0.0

    def with_setup(name):
        return setup_calls[name] + calls[name] / n, _ms(setup_total[name] + total[name] / n)

    out["channels.make_family.ms"] = with_setup("channels.make_family")[1]
    out["channels.validate_cptp.calls"] = with_setup("channels.validate_cptp")[0]
    out["channels.apply_extended.calls"], out["channels.apply_extended.ms"] = with_setup(
        "channels.apply_extended")

    for mode in ("identical", "parallel", "sequential"):
        name = f"repetition.repeated_output.{mode}"
        out[f"{name}.ms"] = _ms(total[name]) / n
    for name in ("repetition.adaptive_vs_identical", "repetition.identical_matches_sequential",
                 "optimal_inputs.group_correction_simulator", "optimal_inputs.unital_qubit_protocol",
                 "optimal_inputs.measurement_input_certify", "entanglement.separable_suffices",
                 "geometry.ang_sample"):
        out[f"{name}.ms"] = _ms(total[name]) / n
    out["entanglement.meas_separable_check.calls"] = calls["entanglement.meas_separable_check"] / n
    return out


def op_medians_ms(spans: list[list], prefix: str) -> dict[str, float]:
    """Median duration of the operation spans named prefix + label, by label."""
    by_label: dict[str, list] = defaultdict(list)
    for name, start, end, *_ in spans:
        if name.startswith(prefix):
            by_label[name[len(prefix):]].append(end - start)
    return {label: _ms(statistics.median(d)) for label, d in by_label.items()}
