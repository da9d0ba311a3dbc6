"""Bounds on the probability of a union of events.

Classic second-moment comparators (Chung-Erdos, de Caen, the fractional-window
refinement, Holder) sit next to per-event and occupancy applications of the
moment bounds. ``compare_bounds`` runs a selection against the exact union
probability and reports each as pass or fail without aborting on errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from ._numeric import Number, is_exact, rpow
from .bounds import (
    ExponentParams,
    MomentVector,
    holder_lower_bound,
    inequality_tolerance,
    lower_bound_three_moments,
    lower_bound_two_moments,
    upper_bound_three_moments,
    upper_bound_two_moments,
)
from .events import (
    EventSystem,
    exact_union_probability,
    occupancy_profile,
    per_event_moments,
    power_moments,
)

BOUND_NAMES = (
    "chung_erdos",
    "de_caen",
    "kat",
    "per_event_lower_two",
    "per_event_lower_three",
    "per_event_upper_three",
    "occupancy_lower_two",
    "occupancy_lower_three",
    "occupancy_upper_two",
    "occupancy_upper_three",
)


def chung_erdos(system: EventSystem) -> Fraction:
    """(E xi)**2 / E xi**2, the classic second-moment lower bound."""
    alpha2 = power_moments(system, 2) if system.n_events else Fraction(0)
    if alpha2 == 0:
        return Fraction(0)
    alpha1 = power_moments(system, 1)
    return alpha1 * alpha1 / alpha2


def de_caen(system: EventSystem) -> Fraction:
    """sum_k s1(k)**2 / s2(k) over events with positive probability."""
    moments = per_event_moments(system, 1, 1, ell=2)
    total = Fraction(0)
    for k in range(system.n_events):
        s1, s2 = moments.sbar[0][k], moments.sbar[1][k]
        if s2 > 0:
            total += s1 * s1 / s2
    return total


def kat_bound(system: EventSystem) -> Fraction:
    """Per-event second-moment bound with fractional window splitting.

    For each event, delta = s2(k)/s1(k) with fractional part theta; the two
    terms of the bound place the mass on floor(delta) and floor(delta) + 1.
    Never below de Caen's bound, and equals union_lower_two at a = rho = 1.
    """
    moments = per_event_moments(system, 1, 1, ell=2)
    total = Fraction(0)
    for k in range(system.n_events):
        s1, s2 = moments.sbar[0][k], moments.sbar[1][k]
        if s1 == 0:
            continue
        delta = s2 / s1
        theta = delta - math.floor(delta)
        term = (1 - theta) * s1 * s1 / (s2 - theta * s1)
        if theta:
            term += theta * s1 * s1 / (s2 + (1 - theta) * s1)
        total += term
    return total


def union_lower_two(
    system: EventSystem,
    a: Number = 1,
    rho: Number = 1,
    *,
    tolerance: float | None = None,
) -> Number:
    """Sum of per-event two-moment lower bounds; (1, 1) recovers kat_bound."""
    moments = per_event_moments(system, a, rho, ell=2)
    params = ExponentParams(a, rho, 2, max(system.n_events, 1))
    total: Number = Fraction(0)
    for k in range(system.n_events):
        if moments.sbar[0][k] == 0:
            continue
        vector = MomentVector((moments.sbar[0][k], moments.sbar[1][k]), params)
        total = total + lower_bound_two_moments(vector, tolerance=tolerance)
    return total


def union_lower_three(
    system: EventSystem,
    a: Number = 1,
    rho: Number = 1,
    *,
    tolerance: float | None = None,
) -> Number:
    """Per-event three-moment lower bound.

    At a = rho = 1 this is the closed form
    (1/N) * sum_k (bar_d1(k)**2 / bar_d2(k) + s1(k)) with 0/0 read as 0;
    otherwise the refined three-moment bound is summed over events.
    """
    n = system.n_events
    if n == 0:
        return Fraction(0)
    moments = per_event_moments(system, a, rho, ell=3)
    if a == 1 and rho == 1:
        total = Fraction(0)
        for k in range(n):
            d1, d2 = moments.bar_delta1[k], moments.bar_delta2[k]
            gain = d1 * d1 / d2 if d2 > 0 else Fraction(0)
            total += gain + moments.sbar[0][k]
        return total / n
    total: Number = Fraction(0)
    for k in range(n):
        if moments.sbar[0][k] == 0:
            continue
        total = total + lower_bound_three_moments(
            moments.vector(k), "refined", tolerance=tolerance
        )
    return total


def union_upper_three(
    system: EventSystem,
    a: Number = 1,
    rho: Number = 1,
    *,
    tolerance: float | None = None,
) -> Number:
    """Per-event three-moment upper bound.

    At a = rho = 1 this is the closed form
    sum_k (s1(k) - hat_d1(k)**2 / hat_d2(k)) with 0/0 read as 0; otherwise
    the refined three-moment bound is summed over events.
    """
    n = system.n_events
    if n == 0:
        return Fraction(0)
    moments = per_event_moments(system, a, rho, ell=3)
    if a == 1 and rho == 1:
        total = Fraction(0)
        for k in range(n):
            d1, d2 = moments.hat_delta1[k], moments.hat_delta2[k]
            drop = d1 * d1 / d2 if d2 > 0 else Fraction(0)
            total += moments.sbar[0][k] - drop
        return total
    total: Number = Fraction(0)
    for k in range(n):
        if moments.sbar[0][k] == 0:
            continue
        total = total + upper_bound_three_moments(
            moments.vector(k), "refined", tolerance=tolerance
        )
    return total


def holder_union_bound(system: EventSystem, p: float) -> float:
    """Holder lower bound from the occupancy moments alpha_1 and alpha_p.

    Non-integer p evaluates E xi**p in floating point over the occupancy
    profile.
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    alpha1 = power_moments(system, 1)
    alphap: Number
    if float(p).is_integer():
        alphap = power_moments(system, int(p))
    else:
        alphap = sum(
            float(weight) * i ** float(p)
            for i, weight in enumerate(occupancy_profile(system).p)
            if i
        )
    return holder_lower_bound(alpha1, alphap, p)


def occupancy_moment_vector(
    system: EventSystem, a: Number = 1, rho: Number = 1, ell: int = 2
) -> MomentVector:
    """Moments of the occupancy profile seen as the vector r_i = P(xi = i).

    sum(r) over levels 1..N is exactly the union probability, so the scalar
    bounds applied to this vector bound the union directly.
    """
    if system.n_events == 0:
        raise ValueError("the system has no events")
    profile = occupancy_profile(system).p
    params = ExponentParams(a, rho, ell, system.n_events)
    sbar = []
    for e in params.exponents:
        total: Number = Fraction(0)
        for i in range(1, system.n_events + 1):
            if profile[i]:
                total = total + rpow(i, e) * profile[i]
        sbar.append(total)
    return MomentVector(tuple(sbar), params)


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


def _sandwich_ok(kind: str, value: Number, exact: Fraction, tol: float) -> bool:
    if is_exact(value):
        return value <= exact if kind == "lower" else value >= exact
    v, e = float(value), float(exact)
    scale = max(1.0, abs(v), abs(e))
    if kind == "lower":
        return v <= e + tol * scale
    return v >= e - tol * scale


def compare_bounds(
    system: EventSystem,
    a: Number = 1,
    rho: Number = 1,
    include: Iterable[str] | None = None,
    *,
    tolerance: float | None = None,
) -> BoundReport:
    """Evaluate the selected bounds and check each against the exact value.

    A bound that raises becomes a failed entry carrying the error text; the
    report itself never aborts. ``include`` filters by name (see
    BOUND_NAMES); the classic comparators always evaluate at a = rho = 1
    regardless of the requested exponents.
    """
    if system.n_events == 0:
        raise ValueError("the system has no events")
    wanted = set(BOUND_NAMES if include is None else include)
    unknown = wanted.difference(BOUND_NAMES)
    if unknown:
        raise ValueError(f"unknown bound names: {sorted(unknown)}")
    exact = exact_union_probability(system)
    tol = inequality_tolerance(tolerance)
    recipes: tuple[tuple[str, str, Callable[[], Number]], ...] = (
        ("chung_erdos", "lower", lambda: chung_erdos(system)),
        ("de_caen", "lower", lambda: de_caen(system)),
        ("kat", "lower", lambda: kat_bound(system)),
        (
            "per_event_lower_two",
            "lower",
            lambda: union_lower_two(system, a, rho, tolerance=tolerance),
        ),
        (
            "per_event_lower_three",
            "lower",
            lambda: union_lower_three(system, a, rho, tolerance=tolerance),
        ),
        (
            "per_event_upper_three",
            "upper",
            lambda: union_upper_three(system, a, rho, tolerance=tolerance),
        ),
        (
            "occupancy_lower_two",
            "lower",
            lambda: lower_bound_two_moments(
                occupancy_moment_vector(system, a, rho, 2), tolerance=tolerance
            ),
        ),
        (
            "occupancy_lower_three",
            "lower",
            lambda: lower_bound_three_moments(
                occupancy_moment_vector(system, a, rho, 3),
                tolerance=tolerance,
            ),
        ),
        (
            "occupancy_upper_two",
            "upper",
            lambda: upper_bound_two_moments(
                occupancy_moment_vector(system, a, rho, 2), tolerance=tolerance
            ),
        ),
        (
            "occupancy_upper_three",
            "upper",
            lambda: upper_bound_three_moments(
                occupancy_moment_vector(system, a, rho, 3),
                tolerance=tolerance,
            ),
        ),
    )
    entries = []
    for name, kind, thunk in recipes:
        if name not in wanted:
            continue
        try:
            value = thunk()
        except Exception as exc:  # report, never abort
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
                min(max(value, 0), 1),
                "rational" if is_exact(value) else "float",
                _sandwich_ok(kind, value, exact, tol),
            )
        )
    return BoundReport(exact, a, rho, tuple(entries))
