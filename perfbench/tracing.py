"""Span tracing of banditstop's public functions, from outside the package.

The package imports functions by name (``from .estimators import
ivw_combine``), so each call site looks the name up in its own module's
globals.  Rebinding that name in the calling module routes the call through a
wrapper without any source edit; `Tracer.installed` restores every original on
exit.  Spans (id, name, start, end, parent, note) stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from banditstop.errors import EstimatorUnavailable


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    note: Optional[dict]


def _bytes_under(paths: Iterable[str]) -> int:
    total = 0
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        else:
            total += os.path.getsize(path)
    return total


# What a span keeps from its call besides its interval.  `result` is None
# when the call raised.
def _note_ivw(args, result):
    return {"t": len(args[0])}


def _note_fit(args, result):
    if result is None:
        return {}
    return {"singular": int(result.arm0.beta is None) + int(result.arm1.beta is None)}


def _note_trajectory(args, result):
    return {} if result is None else {"batches": result.stop_time}


def _note_evaluate(args, result):
    return {} if result is None else {"cap_hit": int(result.cap_hit)}


def _note_sampler(args, result):
    if result is None:
        return {}
    return {"attempts": result.attempts, "kept": int(result.arm0.shape[0])}


def _note_emit(args, result):
    return {} if result is None else {"bytes": _bytes_under(result.values())}


# (calling module, public name, span name, note).  A function called from
# several modules is rebound in each of them.
_PIPELINE = ("banditstop.simulate", "banditstop.bounds")
SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    *((m, "sample_batch_contexts", "model.sample_batch_contexts", None) for m in _PIPELINE),
    *((m, "select_actions", "policies.select_actions", None) for m in _PIPELINE),
    *((m, "realize_rewards", "model.realize_rewards", None) for m in _PIPELINE),
    *((m, "update_state", "policies.update_state", None) for m in _PIPELINE),
    ("banditstop.simulate", "fit_batch_ols", "estimators.fit_batch_ols", _note_fit),
    ("banditstop.simulate", "ivw_combine", "estimators.ivw_combine", _note_ivw),
    ("banditstop.simulate", "evaluate", "stopping.evaluate", _note_evaluate),
    ("banditstop.harness", "simulate_trajectory", "simulate.simulate_trajectory", _note_trajectory),
    ("banditstop.inference", "simulate_trajectory", "simulate.simulate_trajectory", _note_trajectory),
    ("banditstop.harness", "estimate_policy_regret", "model.estimate_policy_regret", None),
    ("banditstop.harness", "run_inference", "inference.run_inference", None),
    ("banditstop.inference", "sample_conditional", "inference.sample_conditional", _note_sampler),
    ("banditstop.bounds", "calibrate_tail_constant", "bounds.calibrate_tail_constant", None),
    ("banditstop.harness", "prepare", "harness.prepare", None),
    ("banditstop.harness", "run_experiment", "harness.run_experiment", None),
    ("banditstop.harness", "aggregate", "harness.aggregate", None),
    ("banditstop.cli", "run_replications", "harness.run_replications", None),
    ("banditstop.cli", "emit_reports", "harness.emit_reports", _note_emit),
)

# Calls too small and too many for a span each: counted only.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("banditstop.estimators", "is_invertible_gram", "linalg.gram_checks"),
    ("banditstop.policies", "is_invertible_gram", "linalg.gram_checks"),
    ("banditstop.estimators", "solve_spd", "linalg.spd_solves"),
    ("banditstop.estimators", "inverse_spd", "linalg.spd_solves"),
    ("banditstop.policies", "solve_spd", "linalg.spd_solves"),
    ("banditstop.policies", "inverse_spd", "linalg.spd_solves"),
)


class Tracer:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []  # in order of completion; ids in order of start
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                extra = note(args, None) if note is not None else {}
                if isinstance(exc, EstimatorUnavailable):
                    extra["unavailable"] = 1
                self._close(Span(span_id, name, start, end, parent, extra or None))
                raise
            end = perf_counter()
            self._close(Span(span_id, name, start, end, parent, note(args, result) if note else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span: Span) -> None:
        self._stack.pop()
        self.spans.append(span)

    def counter(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced and counted name; restore them on exit."""
        saved = []
        try:
            for module_name, attr, span_name, note in SPANS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span_name, getattr(module, attr), note))
            for module_name, attr, count_name in COUNTS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counter(count_name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def ivw_growth(spans: Sequence[Span]) -> float:
    """Mean `ivw_combine` call time in the last quarter of each trajectory's
    batches over the mean in its first quarter."""
    by_parent: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        if s.name == "estimators.ivw_combine":
            by_parent.setdefault(s.parent, []).append(s)
    first: List[float] = []
    last: List[float] = []
    for calls in by_parent.values():
        horizon = max(c.note["t"] for c in calls)
        for c in calls:
            if c.note["t"] <= horizon / 4:
                first.append(c.end - c.start)
            elif c.note["t"] > 3 * horizon / 4:
                last.append(c.end - c.start)
    if not first or not last:
        return float("nan")
    return (sum(last) / len(last)) / (sum(first) / len(first))


LAYERS = ("model", "policies", "estimators", "stopping", "simulate", "bounds", "inference", "harness", "cli")


def layer_metrics(
    spans: Sequence[Span], counts: Counter, pass_start: float, pass_end: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over [pass_start, pass_end]."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def secs(name: str) -> float:
        return sum((s.end - s.start for s in by_name.get(name, ())), 0.0)

    def notes(name: str, key: str) -> int:
        return sum((s.note or {}).get(key, 0) for s in by_name.get(name, ()))

    selfs = self_times(spans)
    attempts = notes("inference.sample_conditional", "attempts")
    out = {
        "estimators.ivw_combine.s": secs("estimators.ivw_combine"),
        "estimators.ivw_combine.calls": len(by_name.get("estimators.ivw_combine", ())),
        "estimators.ivw_combine.growth": ivw_growth(spans),
        "estimators.ivw_combine.unavailable": notes("estimators.ivw_combine", "unavailable"),
        "estimators.fit_batch_ols.s": secs("estimators.fit_batch_ols"),
        "estimators.fit_batch_ols.singular_arms": notes("estimators.fit_batch_ols", "singular"),
        "linalg.gram_checks": counts["linalg.gram_checks"],
        "linalg.spd_solves": counts["linalg.spd_solves"],
        "simulate.simulate_trajectory.s": secs("simulate.simulate_trajectory"),
        "simulate.self_s": sum(selfs[s.id] for s in by_name.get("simulate.simulate_trajectory", ())),
        "simulate.batches": notes("simulate.simulate_trajectory", "batches"),
        "policies.select_actions.s": secs("policies.select_actions"),
        "policies.update_state.s": secs("policies.update_state"),
        "model.sample_batch_contexts.s": secs("model.sample_batch_contexts"),
        "model.realize_rewards.s": secs("model.realize_rewards"),
        "model.estimate_policy_regret.s": secs("model.estimate_policy_regret"),
        "stopping.evaluate.s": secs("stopping.evaluate"),
        "stopping.evaluate.calls": len(by_name.get("stopping.evaluate", ())),
        "stopping.cap_hits": notes("stopping.evaluate", "cap_hit"),
        "bounds.calibrate_tail_constant.s": secs("bounds.calibrate_tail_constant"),
        "inference.sample_conditional.s": secs("inference.sample_conditional"),
        "inference.attempts": attempts,
        "inference.acceptance_rate": (
            notes("inference.sample_conditional", "kept") / attempts if attempts else 0.0
        ),
        "inference.run_inference.s": secs("inference.run_inference"),
        "harness.prepare.s": secs("harness.prepare"),
        "harness.aggregate.s": secs("harness.aggregate"),
        "harness.emit_reports.s": secs("harness.emit_reports"),
        "harness.bytes_written": notes("harness.emit_reports", "bytes"),
        "cli.main.s": secs("cli.main"),
    }
    for layer in LAYERS:
        # Share of the pass covered by the layer's calls; a call nested in
        # another call of the same layer is not counted twice.
        mine = [(s.start, s.end) for s in spans if s.name.split(".", 1)[0] == layer]
        out[f"{layer}.share"] = covered_length(mine, pass_start, pass_end) / (pass_end - pass_start)
    return out
