"""Bounds on the probability of a union of events.

Every reported bound is a row of ``BOUNDS``: a scalar moment bound summed
over the moment vectors of one statistic of the system. The classic
second-moment comparators are rows at fixed exponents a = rho = 1:
Chung-Erdos is the window-free bound on the occupancy moments, de Caen's
bound is the same form summed per event, and the fractional-window bound
``kat`` is the refined per-event two-moment sum. ``compare_bounds`` runs a
selection against the exact union probability and reports each as pass or
fail; a bound that fails with one of the library's errors becomes a failed
entry instead of aborting the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Iterable

from ._numeric import Number, is_exact
from .bounds import (
    ExponentParams,
    MomentVector,
    _FLOAT_SLACK,
    _ScaledMoments,
    _require_finite,
    holder_lower_bound,
    lower_bound_three_moments,
    lower_bound_two_moments,
    lower_bound_two_moments_simple,
    upper_bound_three_moments,
    upper_bound_two_moments,
)
from .events import (
    EventSystem,
    _level_sums,
    exact_union_probability,
    per_event_moments,
    power_moments,
)

# Uncalled here; bench/layers.py traces both by name on this module.
from ._numeric import rpow  # noqa: F401
from .events import occupancy_profile  # noqa: F401

# The paper's three-moment per-event form: the "rho_ge_1_simple" variant at
# a = rho = 1 and the "refined" variant at every other exponent pair.
PAPER_FORM = "paper"

# name -> (kind, statistic, ell, variant, fixed (a, rho) or None). The
# statistic is the occupancy vector P(xi = i) or the per-event vectors whose
# bounds add up. Two-moment variants: "refined" (lower_bound_two_moments,
# upper_bound_two_moments) or "simple" (lower_bound_two_moments_simple);
# three-moment variants are bounds.VARIANTS or PAPER_FORM.
BOUNDS: dict[str, tuple[str, str, int, str, tuple[int, int] | None]] = {
    "chung_erdos": ("lower", "occupancy", 2, "simple", (1, 1)),
    "de_caen": ("lower", "per_event", 2, "simple", (1, 1)),
    "kat": ("lower", "per_event", 2, "refined", (1, 1)),
    "per_event_lower_two": ("lower", "per_event", 2, "refined", None),
    "per_event_lower_three": ("lower", "per_event", 3, PAPER_FORM, None),
    "per_event_upper_three": ("upper", "per_event", 3, PAPER_FORM, None),
    "occupancy_lower_two": ("lower", "occupancy", 2, "refined", None),
    "occupancy_lower_three": ("lower", "occupancy", 3, "refined", None),
    "occupancy_upper_two": ("upper", "occupancy", 2, "refined", None),
    "occupancy_upper_three": ("upper", "occupancy", 3, "refined", None),
}
BOUND_NAMES = tuple(BOUNDS)

RowKey = tuple[str, str, int, str, Number, Number]


def holder_union_bound(system: EventSystem, p: Number) -> float:
    """Holder lower bound from the occupancy moments alpha_1 and alpha_p.

    A non-integral p evaluates E xi**p in floating point.
    """
    return holder_lower_bound(power_moments(system, 1), power_moments(system, p), p)


def occupancy_moment_vector(
    system: EventSystem, a: Number = 1, rho: Number = 1, ell: int = 2
) -> MomentVector:
    """Moments of the occupancy profile seen as the vector r_i = P(xi = i).

    sum(r) over levels 1..N is exactly the union probability, so the scalar
    bounds applied to this vector bound the union directly.
    """
    if system.n_events == 0:
        raise ValueError("the system has no events")
    params = ExponentParams(a, rho, ell, system.n_events)
    sbar = tuple(power_moments(system, e) for e in params.exponents)
    return MomentVector(sbar, params)


def _row_key(name: str, a: Number, rho: Number) -> RowKey:
    """(kind, statistic, ell, variant, a, rho) computed by row ``name``."""
    kind, statistic, ell, variant, fixed = BOUNDS[name]
    if fixed is not None:
        a, rho = fixed
    if variant == PAPER_FORM:
        variant = "rho_ge_1_simple" if a == 1 and rho == 1 else "refined"
    return kind, statistic, ell, variant, a, rho


@lru_cache(maxsize=256, typed=True)
def _exponent_params(a: Number, rho: Number, ell: int, n: int) -> ExponentParams:
    """One shared ExponentParams per distinct (a, rho, ell, n), which keeps
    its integral pair; invalid exponents raise on every call."""
    return ExponentParams(a, rho, ell, n)


def _check_exponents(a: Number, rho: Number) -> None:
    """Reject bool exponents, which every row would otherwise read as 1 or 0."""
    if isinstance(a, bool) or isinstance(rho, bool):
        raise ValueError(f"a and rho must be numbers, not bools (got {a!r}, {rho!r})")


def _moment_vectors(
    system: EventSystem,
    statistic: str,
    a: Number,
    rho: Number,
    ell: int,
    cache: dict,
) -> tuple[list, dict, Number]:
    """(keys in order, key -> moment vector, D) for the statistic's vectors.

    The occupancy statistic has one vector, under the key None. The
    per-event statistic has one key per event of positive probability, its
    moments (S1, S2, S3), so events with equal moments share one vector and
    one scalar-bound call even when their joint rows differ. Each row's
    arithmetic is fixed here, once: a vector reaches the bounds as
    (S1, ..., S_ell, D), the integer sums over the joint table's
    denominator D at integral a and rho, else floats over D = 1.0, checked
    for finiteness once per row. The ell = 3 moments are computed once per
    (statistic, a, rho) and kept in ``cache``; ell = 2 takes their prefix.
    """
    key = (statistic, a, rho, ell)
    if key not in cache:
        params = _exponent_params(a, rho, ell, system.n_events)
        moments = cache.get((statistic, a, rho))
        if moments is None:
            if statistic == "per_event":
                stat = per_event_moments(system, a, rho, ell=3)
                order = [m for m in zip(*stat._sums) if m[0] != 0]
                moments = order, {m: m for m in order}, stat._denominator or 1.0
            elif params.is_integral:
                i, j = params._integral
                *sums, d = _level_sums(system, (i, i + j, i + 2 * j))
                moments = [None], {None: tuple(sums)}, d
            else:  # the public vector, checked on construction
                sbar = occupancy_moment_vector(system, a, rho, 3).sbar
                moments = [None], {None: tuple(map(float, sbar))}, 1.0
            cache[(statistic, a, rho)] = moments
        order, distinct, d = moments
        vectors = {
            k: _ScaledMoments(m[:ell] + (d,), params) for k, m in distinct.items()
        }
        if type(d) is float:  # integer sums are finite
            _require_finite(chain.from_iterable(v._values for v in vectors.values()))
        cache[key] = order, vectors, d
    return cache[key]


def _evaluate(system: EventSystem, key: RowKey, cache: dict) -> Number:
    """The row's scalar bound, looked up at call time, summed over the
    statistic's moment vectors: once per distinct vector, and once per
    system object for each row key. Integer rows add up as integers over the
    lcm of the values' denominators, float rows as floats from 0.0, left to
    right in event order; a row with no vector is Fraction(0)."""
    memo = system.row_values
    if key in memo:
        return memo[key]
    kind, statistic, ell, variant, a, rho = key
    if ell == 3:
        three = (
            lower_bound_three_moments if kind == "lower" else upper_bound_three_moments
        )
        bound = partial(three, variant=variant)
    elif kind == "upper":
        bound = upper_bound_two_moments
    elif variant == "simple":
        bound = lower_bound_two_moments_simple
    else:
        bound = lower_bound_two_moments
    order, vectors, d = _moment_vectors(system, statistic, a, rho, ell, cache)
    values = {k: bound(m) for k, m in vectors.items()}
    total: Number
    if statistic == "occupancy":
        total = values[None]
    elif type(d) is int:  # exact values: one Fraction over their lcm
        # a list, not a generator: see the note in events.per_event_moments
        scale = math.lcm(*[v.denominator for v in values.values()])
        scaled = {k: v.numerator * (scale // v.denominator) for k, v in values.items()}
        total = Fraction(sum(map(scaled.__getitem__, order)), scale)
    elif order:  # float values add up from 0.0, in event order
        total = 0.0
        for k in order:
            total += values[k]
    else:
        total = Fraction(0)
    memo[key] = total
    return total


def union_bound(
    system: EventSystem,
    name: str,
    a: Number = 1,
    rho: Number = 1,
) -> Number:
    """Value of the bound ``name`` (a key of BOUNDS) on ``system``.

    Rows with fixed exponents ignore ``a`` and ``rho``.
    """
    if name not in BOUNDS:
        raise ValueError(f"unknown bound name {name!r}; expected one of {BOUND_NAMES}")
    if system.n_events == 0:
        raise ValueError("the system has no events")
    _check_exponents(a, rho)
    return _evaluate(system, _row_key(name, a, rho), {})


@dataclass(frozen=True)
class BoundEntry:
    """One bound evaluation within a report."""

    name: str
    kind: str  # "lower" or "upper"
    value: Number | None
    clamped: Number | None  # value pushed into [0, 1], None when errored
    arithmetic: str  # "rational", "float" or "none"
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class BoundReport:
    """Bounds evaluated against the exact union probability."""

    exact: Fraction
    a: Number
    rho: Number
    entries: tuple[BoundEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def entry(self, name: str) -> BoundEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


def _sandwich_ok(kind: str, value: Number, exact: Fraction) -> bool:
    if is_exact(value):  # cross products: denominators are positive
        v, e = value.numerator * exact.denominator, exact.numerator * value.denominator
        return v <= e if kind == "lower" else v >= e
    v, e = float(value), float(exact)
    scale = max(1.0, abs(v), abs(e))
    if kind == "lower":
        return v <= e + _FLOAT_SLACK * scale
    return v >= e - _FLOAT_SLACK * scale


def _clamp(value: Number) -> Number:
    """value pushed into [0, 1] in its own arithmetic; an exact value
    compares its numerator with 0 and with its positive denominator."""
    if is_exact(value):
        if 0 <= value.numerator <= value.denominator:
            return value
        return Fraction(0) if value.numerator < 0 else Fraction(1)
    if value < 0:
        return 0.0
    if value > 1:
        return 1.0
    return value


def compare_bounds(
    system: EventSystem,
    a: Number = 1,
    rho: Number = 1,
    include: Iterable[str] | None = None,
) -> BoundReport:
    """Evaluate the selected bounds and check each against the exact value.

    A bound that raises ValueError or ArithmeticError (the library's moment,
    certificate and arithmetic errors) becomes a failed entry carrying the
    error text; any other exception propagates. ``include`` filters by name
    (see BOUND_NAMES); rows with fixed exponents in BOUNDS evaluate there
    regardless of the requested ones. Rows that compute the same thing are
    evaluated once per system object, so the fixed-exponent
    rows serve every later report on the same object.
    """
    if system.n_events == 0:
        raise ValueError("the system has no events")
    wanted = set(BOUND_NAMES if include is None else include)
    unknown = wanted.difference(BOUND_NAMES)
    if unknown:
        raise ValueError(f"unknown bound names: {sorted(unknown)}")
    _check_exponents(a, rho)
    exact = exact_union_probability(system)
    cache: dict = {}
    entries = []
    for name in BOUND_NAMES:
        if name not in wanted:
            continue
        key = _row_key(name, a, rho)
        kind = key[0]
        try:
            value = _evaluate(system, key, cache)
        except (ValueError, ArithmeticError) as exc:  # the library's own errors
            entries.append(
                BoundEntry(
                    name,
                    kind,
                    None,
                    None,
                    "none",
                    False,
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        entries.append(
            BoundEntry(
                name,
                kind,
                value,
                _clamp(value),
                "rational" if is_exact(value) else "float",
                _sandwich_ok(kind, value, exact),
            )
        )
    return BoundReport(exact, a, rho, tuple(entries))
