"""Bounds on the probability of a union of events.

Every reported bound is a row of ``BOUNDS``: a scalar moment bound summed
over the moment vectors of one statistic of the system. The classic
second-moment comparators are rows at fixed exponents a = rho = 1:
Chung-Erdos is the window-free bound on the occupancy moments, de Caen's
bound is the same form summed per event, and the fractional-window bound
``kat`` is the refined per-event two-moment sum. Holder's bound, not a row,
is the window-free bound on the occupancy vector at (1, p - 1) for any
p > 1 (``holder_union_bound``). ``compare_bounds`` runs a
selection against the exact union probability and reports each as pass or
fail; a bound that fails with one of the library's errors becomes a failed
entry instead of aborting the report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from numbers import Real
from typing import Iterable

from ._numeric import DataclassFields, Number, Record, is_exact
from .bounds import (  # the scalar bounds: BOUNDS names them, _evaluate finds them
    MomentVector,
    VARIANTS,
    _FLOAT_SLACK,
    _ScaledMoments,
    _exponent_params,
    _require_finite,
    lower_bound_three_moments,  # noqa: F401
    lower_bound_two_moments,  # noqa: F401
    lower_bound_two_moments_simple,
    upper_bound_three_moments,  # noqa: F401
    upper_bound_two_moments,  # noqa: F401
)
from .events import (
    EventSystem,
    _table_sums,
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

# name -> (statistic, scalar bound, variant, fixed (a, rho) or None). The
# statistic is the occupancy vector P(xi = i) or the per-event vectors whose
# bounds add up. The scalar bound is named by its global in this module,
# looked up when the row runs; the first word of its name is the row's kind,
# "lower" or "upper". The three-moment bounds take a variant, one of
# bounds.VARIANTS or PAPER_FORM; the two-moment bounds take none.
BOUNDS: dict[str, tuple[str, str, str | None, tuple[int, int] | None]] = {
    "chung_erdos": ("occupancy", "lower_bound_two_moments_simple", None, (1, 1)),
    "de_caen": ("per_event", "lower_bound_two_moments_simple", None, (1, 1)),
    "kat": ("per_event", "lower_bound_two_moments", None, (1, 1)),
    "per_event_lower_two": ("per_event", "lower_bound_two_moments", None, None),
    "per_event_lower_three": (
        "per_event", "lower_bound_three_moments", PAPER_FORM, None
    ),
    "per_event_upper_three": (
        "per_event", "upper_bound_three_moments", PAPER_FORM, None
    ),
    "occupancy_lower_two": ("occupancy", "lower_bound_two_moments", None, None),
    "occupancy_lower_three": (
        "occupancy", "lower_bound_three_moments", "refined", None
    ),
    "occupancy_upper_two": ("occupancy", "upper_bound_two_moments", None, None),
    "occupancy_upper_three": (
        "occupancy", "upper_bound_three_moments", "refined", None
    ),
}
BOUND_NAMES = tuple(BOUNDS)

RowKey = tuple[str, str, int, str | None, Number, Number]


def holder_union_bound(system: EventSystem, p: Number) -> float:
    """Holder lower bound ((E xi)**p / E xi**p)**(1/(p-1)), as a float: the
    window-free two-moment bound on the occupancy vector at (1, p - 1).

    0.0 on a system with no events. A non-integral p evaluates E xi**p in
    floating point.
    """
    if isinstance(p, bool) or not isinstance(p, Real) or not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p!r}")
    if system.n_events == 0:
        return 0.0
    vector = occupancy_moment_vector(system, 1, p - 1)
    return float(lower_bound_two_moments_simple(vector))


def occupancy_moment_vector(
    system: EventSystem, a: Number = 1, rho: Number = 1, ell: int = 2
) -> MomentVector:
    """Moments of the occupancy profile seen as the vector r_i = P(xi = i).

    sum(r) over levels 1..N is exactly the union probability, so the scalar
    bounds applied to this vector bound the union directly.
    """
    if system.n_events == 0:
        raise ValueError("the system has no events")
    params = _exponent_params(a, rho, ell, system.n_events)
    sbar = tuple([power_moments(system, e) for e in params.exponents])
    return MomentVector(sbar, params)


def _row_key(name: str, a: Number, rho: Number) -> RowKey:
    """(statistic, scalar bound, ell, variant, a, rho) computed by row
    ``name``: the bound reads ell moments; a two-moment bound has no variant."""
    statistic, bound, variant, fixed = BOUNDS[name]
    if fixed is not None:
        a, rho = fixed
    if variant is None:
        return statistic, bound, 2, None, a, rho
    if variant == PAPER_FORM:
        variant = "rho_ge_1_simple" if a == 1 and rho == 1 else "refined"
    return statistic, bound, 3, variant, a, rho


# variant -> the keyword arguments that pass it to a scalar bound
_OPTIONS = {None: {}, **{variant: {"variant": variant} for variant in VARIANTS}}


def _check_exponents(a: Number, rho: Number) -> None:
    """Reject bool exponents, which every row would otherwise read as 1 or 0."""
    if isinstance(a, bool) or isinstance(rho, bool):
        raise ValueError(f"a and rho must be numbers, not bools (got {a!r}, {rho!r})")


def _per_event_source(system: EventSystem, a: Number, rho: Number) -> tuple:
    """One key (S1, S2, S3) per event of positive probability, in event
    order, from ``per_event_moments``, and their denominator D."""
    stat = per_event_moments(system, a, rho, ell=3)
    return [m for m in zip(*stat._sums) if m[0] != 0], stat._denominator or 1.0


def _occupancy_source(system: EventSystem, a: Number, rho: Number) -> tuple:
    """The one key (S1, S2, S3) of the occupancy vector and D: integer level
    sums at integral a and rho, else the floats of the checked public vector."""
    if _exponent_params(a, rho, 3, system.n_events).is_integral:
        denominator, levels, _ = system.joint_table
        occupied = [(i, v) for i, v in enumerate(levels) if i and v]
        sums, d = _table_sums([occupied], system.n_events, a, rho, 3, 0, denominator)
        return [*zip(*sums)], d
    sbar = occupancy_moment_vector(system, a, rho, 3).sbar
    return [tuple([*map(float, sbar)])], 1.0


# statistic -> source: (system, a, rho) -> (keys in event order, D), a key
# the moments (S1, S2, S3) of one vector over D (1.0 for floats).
_SOURCES = {"per_event": _per_event_source, "occupancy": _occupancy_source}


def _moment_vectors(
    system: EventSystem, statistic: str, a: Number, rho: Number, ell: int, cache: dict
) -> tuple[list, dict, Number]:
    """(keys in order, key -> moment vector, D) for the statistic's vectors.

    The source runs once per (statistic, a, rho), kept in ``cache``. Equal
    keys share one vector and one scalar-bound call. Each row's arithmetic is
    fixed here, once: a vector reaches the bounds as (S1, ..., S_ell, D), and
    a float row is checked for finiteness once."""
    key = (statistic, a, rho, ell)
    if key not in cache:
        params = _exponent_params(a, rho, ell, system.n_events)
        moments = cache.get((statistic, a, rho))
        if moments is None:
            order, d = _SOURCES[statistic](system, a, rho)
            moments = cache[(statistic, a, rho)] = order, dict.fromkeys(order), d
        order, distinct, d = moments
        vectors = {m: _ScaledMoments(m[:ell] + (d,), params) for m in distinct}
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
    statistic, bound, ell, variant, a, rho = key
    order, vectors, d = _moment_vectors(system, statistic, a, rho, ell, cache)
    bound, kwargs = globals()[bound], _OPTIONS[variant]
    values = {k: bound(m, **kwargs) for k, m in vectors.items()}
    total: Number
    if type(d) is float and order:  # float values add up from 0.0, in event order
        total = 0.0
        for k in order:
            total += values[k]
    elif len(order) == 1:  # one exact value, already a Fraction in lowest terms
        total = values[order[0]]
    else:  # exact values, or none: one Fraction over their lcm, whose
        # arguments come from a list: a generator would leave a shrunk tuple
        scale = math.lcm(*[v.denominator for v in values.values()])
        scaled = {k: v.numerator * (scale // v.denominator) for k, v in values.items()}
        total = Fraction(sum(map(scaled.__getitem__, order)), scale)
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


class BoundEntry(Record):
    """One bound evaluation within a report."""

    __dataclass_fields__ = DataclassFields()
    _fields = ("name", "kind", "value", "clamped", "arithmetic", "passed", "error")
    name: str
    kind: str  # "lower" or "upper"
    value: Number | None
    clamped: Number | None  # value pushed into [0, 1], None when errored
    arithmetic: str  # "rational", "float" or "none"
    passed: bool
    error: str | None = None

    def __init__(
        self, name: str, kind: str, value: Number | None, clamped: Number | None,
        arithmetic: str, passed: bool, error: str | None = None,
    ) -> None:
        self.__dict__.update(
            name=name, kind=kind, value=value, clamped=clamped,
            arithmetic=arithmetic, passed=passed, error=error,
        )


class BoundReport(Record):
    """Bounds evaluated against the exact union probability."""

    __dataclass_fields__ = DataclassFields()
    _fields = ("exact", "a", "rho", "entries")
    exact: Fraction
    a: Number
    rho: Number
    entries: tuple[BoundEntry, ...]

    def __init__(
        self, exact: Fraction, a: Number, rho: Number, entries: tuple[BoundEntry, ...]
    ) -> None:
        self.__dict__.update(exact=exact, a=a, rho=rho, entries=entries)

    @property
    def all_pass(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def entry(self, name: str) -> BoundEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


def _sandwich_ok(kind: str, value: Number, exact: tuple[int, int, float]) -> bool:
    """Whether ``value`` lies on its ``kind``'s side of the exact union
    probability, given as (numerator, denominator, float)."""
    numerator, denominator, approx = exact
    if is_exact(value):  # cross products: denominators are positive
        v, e = value.numerator * denominator, numerator * value.denominator
        return v <= e if kind == "lower" else v >= e
    v, e = float(value), approx
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
    if isinstance(include, str):  # its letters are no bound names
        raise ValueError(f"include must be a list of bound names, got {include!r}")
    wanted = set(BOUND_NAMES if include is None else include)
    unknown = wanted.difference(BOUND_NAMES)
    if unknown:
        raise ValueError(f"unknown bound names: {sorted(unknown)}")
    _check_exponents(a, rho)
    exact = exact_union_probability(system)
    split = exact.numerator, exact.denominator, float(exact)  # once per report
    cache: dict = {}
    entries = []
    for name in BOUND_NAMES:
        if name not in wanted:
            continue
        key = _row_key(name, a, rho)
        kind = key[1][:5]  # "lower" or "upper"
        try:
            value = _evaluate(system, key, cache)
        except (ValueError, ArithmeticError) as exc:  # the library's own errors
            error = f"{type(exc).__name__}: {exc}"
            entries.append(BoundEntry(name, kind, None, None, "none", False, error))
            continue
        arithmetic = "rational" if is_exact(value) else "float"
        passed = _sandwich_ok(kind, value, split)
        entries.append(BoundEntry(name, kind, value, _clamp(value), arithmetic, passed))
    return BoundReport(exact, a, rho, tuple(entries))
