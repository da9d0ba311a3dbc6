"""Layer tracing from outside the library.

The wrappers installed here replace the names that callers resolve at call
time (for example ``unionbounds.unions.per_event_moments``, which the union
bounds look up in their own module, or ``IndependentSequence.window_moments``)
so that no file of the library changes. A wrapper records one span per call:
its self time is its duration minus the time of the wrapped calls nested in
it. Spans are kept as per-name totals in memory and read out at the end.

Recording happens only while ``Tracer.active`` is true, so the benchmark's
own checks and set-up never count as library work.
"""

from __future__ import annotations

import functools
import importlib
from fractions import Fraction
from time import perf_counter_ns

# (module whose global is replaced, global name, span name)
FUNCTION_PATCHES = (
    ("unionbounds.unions", "per_event_moments", "events.per_event_moments"),
    ("unionbounds.unions", "occupancy_profile", "events.occupancy_profile"),
    ("unionbounds.unions", "power_moments", "events.power_moments"),
    ("unionbounds.unions", "exact_union_probability", "events.exact_union_probability"),
    ("unionbounds.cli", "build_system", "events.build_system"),
    ("unionbounds.unions", "compare_bounds", "unions.compare_bounds"),
    ("unionbounds.cli", "compare_bounds", "unions.compare_bounds"),
    ("unionbounds.unions", "occupancy_moment_vector", "unions.occupancy_moment_vector"),
    ("unionbounds.unions", "lower_bound_two_moments", "bounds.lower_bound_two_moments"),
    ("unionbounds.unions", "upper_bound_two_moments", "bounds.upper_bound_two_moments"),
    ("unionbounds.unions", "lower_bound_three_moments", "bounds.lower_bound_three_moments"),
    ("unionbounds.unions", "upper_bound_three_moments", "bounds.upper_bound_three_moments"),
    ("unionbounds.bounds", "lower_bound_two_moments", "bounds.lower_bound_two_moments"),
    ("unionbounds.bounds", "upper_bound_two_moments", "bounds.upper_bound_two_moments"),
    ("unionbounds.bounds", "lower_bound_two_moments_simple", "bounds.lower_bound_two_moments_simple"),
    ("unionbounds.bounds", "lower_bound_three_moments", "bounds.lower_bound_three_moments"),
    ("unionbounds.bounds", "upper_bound_three_moments", "bounds.upper_bound_three_moments"),
    ("unionbounds.bounds", "rpow", "numeric.rpow"),
    ("unionbounds.events", "rpow", "numeric.rpow"),
    ("unionbounds.unions", "rpow", "numeric.rpow"),
    ("unionbounds.borel_cantelli", "bc_lower_estimate", "borel_cantelli.estimators"),
    ("unionbounds.borel_cantelli", "bc_upper_estimate", "borel_cantelli.estimators"),
    ("unionbounds.borel_cantelli", "kochen_stone_ratio", "borel_cantelli.estimators"),
    ("unionbounds.cli", "bc_lower_estimate", "borel_cantelli.estimators"),
    ("unionbounds.cli", "bc_upper_estimate", "borel_cantelli.estimators"),
    ("unionbounds.cli", "kochen_stone_ratio", "borel_cantelli.estimators"),
    ("unionbounds.cli", "load_system", "cli.load_system"),
    ("unionbounds.cli", "run_bounds", "cli.emit"),
)

MODEL_CLASSES = ("IndependentSequence", "IdenticalSequence", "ExplicitSequence")
MODEL_METHODS = (
    ("window_moments", "borel_cantelli.window_moments"),
    ("alpha_moments", "borel_cantelli.alpha_moments"),
)

# Span-name prefix -> layer; the layer is the library module doing the work.
LAYERS = ("events", "unions", "bounds", "numeric", "borel_cantelli", "cli")


def denominator_bits(value: object) -> int:
    return value.denominator.bit_length() if isinstance(value, Fraction) else 0


class Tracer:
    """Per-name span totals and counters, filled only while active."""

    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []  # child ns accumulated per open span

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(self, span, fn, observe=None):
        """Return fn recording a span under ``span`` and calling
        ``observe(args, result)`` after each traced call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = self.spans.setdefault(span, [0, 0])
                totals[0] += 1
                totals[1] += elapsed - children
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def merge(self, other: dict) -> None:
        """Add the totals another process dumped with ``snapshot``."""
        for name, (calls, ns) in other["spans"].items():
            totals = self.spans.setdefault(name, [0, 0])
            totals[0] += calls
            totals[1] += ns
        for name, amount in other["counters"].items():
            self.count(name, amount)
        for name, value in other["maxima"].items():
            self.peak(name, value)

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "maxima": self.maxima}

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0))[0]

    def self_ns(self, span: str) -> int:
        return self.spans.get(span, (0, 0))[1]

    def layer_totals(self, layer: str) -> tuple[int, int]:
        calls = ns = 0
        for name, (c, t) in self.spans.items():
            if name.split(".", 1)[0] == layer:
                calls += c
                ns += t
        return calls, ns


def _observers(tracer: Tracer) -> dict:
    def incidences(args, result):
        tracer.count("events.incidences", sum(len(e) for e in args[0].events))

    def report(args, result):
        tracer.count("unions.entries", len(result.entries))
        tracer.count(
            "unions.entries_failed",
            sum(1 for e in result.entries if e.error is not None or not e.passed),
        )

    def bound(args, result):
        tracer.count("bounds.results")
        if isinstance(result, (int, Fraction)):
            tracer.count("bounds.exact_results")
        tracer.peak("bounds.max_denominator_bits", denominator_bits(result))

    def estimate(args, result):
        values = (
            (result.value, result.window_bound, result.condition_value)
            if hasattr(result, "window_bound")
            else (result,)
        )
        for value in values:
            tracer.peak("borel_cantelli.max_denominator_bits", denominator_bits(value))

    def rows(args, result):
        tracer.count("borel_cantelli.window_rows", len(result))

    def written(args, result):
        tracer.count("cli.output_bytes", len(args[1].encode("utf-8")))

    return {
        "events.per_event_moments": incidences,
        "unions.compare_bounds": report,
        "bounds": bound,
        "borel_cantelli.estimators": estimate,
        "borel_cantelli.window_moments": rows,
        "cli.write_text": written,
    }


def install(tracer: Tracer) -> None:
    """Replace the traced names in the imported library modules."""
    observers = _observers(tracer)
    for module_name, attr, span in FUNCTION_PATCHES:
        module = importlib.import_module(module_name)
        observe = observers.get(span) or observers.get(span.split(".", 1)[0])
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), observe))
    cli = importlib.import_module("unionbounds.cli")
    # Counted but not timed as its own span: writing is part of cli.emit.
    write_text = cli.write_text

    def counted_write(path, text):
        if tracer.active:
            observers["cli.write_text"]((path, text), None)
        return write_text(path, text)

    cli.write_text = counted_write
    bc = importlib.import_module("unionbounds.borel_cantelli")
    for class_name in MODEL_CLASSES:
        cls = getattr(bc, class_name)
        for method, span in MODEL_METHODS:
            setattr(cls, method, tracer.wrap(span, getattr(cls, method), observers.get(span)))
