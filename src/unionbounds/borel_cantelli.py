"""Finite-horizon estimators for limsup (infinitely often) probabilities.

A sequence model exposes, for any window m..n, the indicator moments
(P(A_k), E X I_k, E X**2 I_k) where X counts occurrences inside the window.
From these the estimators assemble the per-event lower and upper partial
sums whose limits sandwich P(A_n i.o.), together with the vanishing-ratio
diagnostics that drive convergence, and the Kochen-Stone ratio.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction
from itertools import groupby, repeat
from typing import Callable, Iterable, Protocol, Sequence, Union

from ._numeric import DataclassFields, Number, Record, is_exact
from .events import EventSystem, per_event_moments

ProbabilityLike = Union[int, float, Fraction, str]
Row = tuple[Number, Number, Number]  # (P(A_k), E X I_k, E X**2 I_k)
Runs = list[tuple[Row, int]]  # (row, number of consecutive equal rows)


class SequenceModel(Protocol):
    """What the estimators need from an event-sequence model.

    window_moments(m, n) returns the rows (P(A_k), E X I_k, E X**2 I_k) of
    the window m..n as runs of equal consecutive rows, in k order:
    [((p, e1, e2), count), ...], the counts adding up to n - m + 1, or []
    for m > n; an index outside 1..horizon raises ValueError. The estimators
    compute each run's terms once and weight them by its count, so a window
    of one repeated row costs the same at every width. These runs are all a
    model supplies: its alpha_moments(n), (E X, E X**2) for X counting
    A_1..A_n, is the module's _alpha_moments, which sums them.
    """

    horizon: int | None

    def window_moments(self, m: int, n: int) -> Runs: ...

    def alpha_moments(self, n: int) -> tuple[Number, Number]: ...


def _as_probability(value: ProbabilityLike) -> Number:
    if isinstance(value, bool):  # Fraction would read True as 1
        raise ValueError(f"probability must be a number, not {value!r}")
    p: Number = Fraction(value) if isinstance(value, (int, str)) else value
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def _check_indices(horizon: int | None, m: int, n: int) -> None:
    """Raise for the first index of m..n outside 1..horizon, if any."""
    if m < 1 or (horizon is not None and n > horizon):
        first = m if m < 1 else max(m, horizon + 1)
        raise ValueError(f"event index {first} outside the model horizon")


def _runs(values: Iterable) -> list:
    """Runs of equal consecutive values as [(value, count), ...]."""
    return [(value, sum(1 for _ in group)) for value, group in groupby(values)]


def _total(runs: list[tuple[Number, int]]) -> Number:
    """Fraction(0) plus the sum of count * term over the runs, added in a
    tree that halves the list at every level: each addition joins partial
    sums of equal length, give or take one term, so exact sums carry no ever
    growing running denominator and multiply integers of similar size."""
    terms = [term if count == 1 else term * count for term, count in runs]

    def tree(lo: int, hi: int) -> Number:
        if hi - lo == 1:
            return terms[lo]
        mid = (lo + hi) // 2
        return tree(lo, mid) + tree(mid, hi)

    return Fraction(0) + tree(0, len(terms)) if terms else Fraction(0)


def _scaled(row: Row) -> tuple[Number, Number, Number, int]:
    """(P, E1, E2, d): an exact row (p, e1, e2) as the integers P, E1, E2 over
    their least common denominator d; a row holding a float as it is, d = 0."""
    if not all(map(is_exact, row)):
        return (*row, 0)
    d = math.lcm(*[x.denominator for x in row])
    return (*[x.numerator * (d // x.denominator) for x in row], d)


def _window(model: SequenceModel, m: int, n: int) -> list[tuple[Row, tuple, int]]:
    """The runs of model.window_moments(m, n) as (row, _scaled(row), count),
    kept for the rest of its horizon row.

    The model keeps the runs of every window m..n of its latest horizon n, by
    m, and a new n drops them. So the lower estimate, the upper estimate and
    the Kochen-Stone moments of one horizon row build and scale each window
    once, and a grid holds one row's runs. Models are read as fixed once
    made; one that takes no new attributes is served uncached.
    """
    row, windows = getattr(model, "_row_windows", (None, {}))
    if row != n:
        windows = {}
        with suppress(AttributeError):
            model._row_windows = (n, windows)  # type: ignore[attr-defined]
    if m not in windows:
        runs = model.window_moments(m, n)
        windows[m] = [(r, _scaled(r), count) for r, count in runs]
    return windows[m]


def _alpha_moments(model: SequenceModel, n: int) -> tuple[Number, Number]:
    """(E X, E X**2) for X counting A_1..A_n: as X**2 = sum_k X I_k, these
    are the sums of P(A_k) and of E X I_k over the rows of the window 1..n."""
    if n < 1:
        return 0, 0
    runs = _window(model, 1, n)
    p, e1 = (_total([(row[j], count) for row, _, count in runs]) for j in (0, 1))
    return p, e1


class BCEstimate(Record):
    """A finite-horizon estimate over the window m..n.

    value is the partial-sum estimator itself. window_bound is the sharp
    finite-window bound on P(union of A_m..A_n): equal to value for lower
    estimates, and given by the second-factorial-moment form for upper ones.
    condition_value is the ratio sum that must tend to zero along a
    subsequence for the estimator to converge to the limsup probability.
    """

    __dataclass_fields__ = DataclassFields()
    _fields = ("n", "m", "value", "window_bound", "condition_value")
    n: int
    m: int
    value: Number
    window_bound: Number
    condition_value: Number

    def __init__(
        self, n: int, m: int, value: Number, window_bound: Number,
        condition_value: Number,
    ) -> None:
        self.__dict__.update(
            n=n, m=m, value=value, window_bound=window_bound,
            condition_value=condition_value,
        )


class ExplicitSequence:
    """The events of a finite system, taken in their listed order."""

    def __init__(self, system: EventSystem):
        if system.n_events == 0:
            raise ValueError("the system has no events")
        self.system = system
        self.horizon: int | None = system.n_events

    def window_moments(self, m: int, n: int) -> Runs:
        if m > n:
            return []
        _check_indices(self.horizon, m, n)
        window = EventSystem(self.system.weights, self.system.events[m - 1 : n])
        # (p, e1, e2) are the per-event moments sbar_0..sbar_2 at a = rho = 1.
        return _runs(zip(*per_event_moments(window, 1, 1, ell=3).sbar))

    alpha_moments = _alpha_moments


class IndependentSequence:
    """Independent events A_k with P(A_k) = p_k.

    ``probability`` is a constant, a sequence (1-based, fixing the horizon),
    or a callable k -> p_k. Closed forms keep the window moments exact for
    rational probabilities: with T1 and T2 the window sums of p_j and p_j**2
    excluding k, E X I_k = p_k (1 + T1) and
    E X**2 I_k = p_k (1 + 3 T1 + T1**2 - T2).

    A constant probability gives every window one run, from the sums
    width * p and width * p**2. Otherwise each p_k is evaluated and validated
    once, on first use, into a contiguous block of indices that keeps running
    sums of the exact p_k and p_k**2; a window of exact values reads its sums
    as prefix differences, and a window holding a float sums directly, so a
    late window cannot cancel.
    """

    def __init__(
        self,
        probability: ProbabilityLike
        | Sequence[ProbabilityLike]
        | Callable[[int], ProbabilityLike],
        horizon: int | None = None,
    ):
        self.horizon = horizon
        self._constant: Number | None = None
        if callable(probability):
            self._fn: Callable[[int], Number] = lambda k: _as_probability(
                probability(k)
            )
        elif isinstance(probability, (list, tuple)):
            values = [_as_probability(v) for v in probability]
            if not values:
                raise ValueError("the probability sequence is empty")
            if horizon is None or horizon > len(values):
                self.horizon = len(values)
            self._fn = lambda k: values[k - 1]
        else:
            constant = self._constant = _as_probability(probability)
            self._fn = lambda k: constant
        self._restart(1)

    def probability(self, k: int) -> Number:
        _check_indices(self.horizon, k, k)
        return self._fn(k)

    def _restart(self, lo: int) -> None:
        # the evaluated block p_lo, p_lo+1, ... with prefix sums over it: of
        # the exact values, of their squares, and a count of the floats
        self._lo = lo
        self._ps: list[Number] = []
        self._s1: list[Number] = [0]
        self._s2: list[Number] = [0]
        self._floats = [0]

    def _append(self, p: Number) -> None:
        exact = is_exact(p)
        self._ps.append(p)
        self._s1.append(self._s1[-1] + p if exact else self._s1[-1])
        self._s2.append(self._s2[-1] + p * p if exact else self._s2[-1])
        self._floats.append(self._floats[-1] + (not exact))

    def _block(self, m: int, n: int) -> tuple[int, int]:
        """Evaluate p_m..p_n into the block; return their block offsets."""
        if not self._ps:
            self._restart(m)
        elif m < self._lo:
            values = [self.probability(k) for k in range(m, self._lo)] + self._ps
            self._restart(m)
            for p in values:
                self._append(p)
        for k in range(self._lo + len(self._ps), n + 1):
            self._append(self.probability(k))
        return m - self._lo, n - self._lo + 1

    @staticmethod
    def _row(p: Number, s1: Number, s2: Number) -> Row:
        if not is_exact(s1):  # a window holding a float, so float sums
            t1, t2 = s1 - p, s2 - p * p
            return (p, p * (1 + t1), p * (1 + 3 * t1 + t1 * t1 - t2))
        # t1 over d1, t2 over d2, e2 over d = lcm(d1**2, d2): one Fraction each
        u, v = p.numerator, p.denominator
        d1 = math.lcm(s1.denominator, v)
        d2 = math.lcm(s2.denominator, v * v)
        t1 = s1.numerator * (d1 // s1.denominator) - u * (d1 // v)
        t2 = s2.numerator * (d2 // s2.denominator) - u * u * (d2 // (v * v))
        d = math.lcm(d1 * d1, d2)
        e2 = u * (d + 3 * t1 * (d // d1) + t1 * t1 * (d // (d1 * d1)) - t2 * (d // d2))
        return (p, Fraction(u * (d1 + t1), v * d1), Fraction(e2, v * d))

    def window_moments(self, m: int, n: int) -> Runs:
        if m > n:
            return []
        _check_indices(self.horizon, m, n)
        p = self._constant
        if p is not None:
            width = n - m + 1
            if is_exact(p):
                sums = width * p, width * p * p
            else:  # a direct sum
                sums = sum(repeat(p, width)), sum(repeat(p * p, width))
            return [(self._row(p, *sums), width)]
        i, j = self._block(m, n)
        values = self._ps[i:j]
        if self._floats[j] == self._floats[i]:
            sums = self._s1[j] - self._s1[i], self._s2[j] - self._s2[i]
        else:
            sums = sum(values), sum(q * q for q in values)
        return [(self._row(q, *sums), count) for q, count in _runs(values)]

    alpha_moments = _alpha_moments


class IdenticalSequence:
    """Every event is the same template event of probability p.

    The extreme dependent case: X = (n - m + 1) 1_A on the window, so the
    lower estimator returns p exactly at every horizon while the
    second-moment diagnostics stay bounded away from zero.
    """

    def __init__(self, p: ProbabilityLike, horizon: int | None = None):
        self.p = _as_probability(p)
        self.horizon = horizon

    def window_moments(self, m: int, n: int) -> Runs:
        if m > n:
            return []
        _check_indices(self.horizon, m, n)
        width = n - m + 1
        return [((self.p, width * self.p, width * width * self.p), width)]

    alpha_moments = _alpha_moments


def _check_window(model: SequenceModel, m: int, n: int) -> None:
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m = {m}, n = {n}")
    horizon = getattr(model, "horizon", None)
    if horizon is not None and n > horizon:
        raise ValueError(f"n = {n} exceeds the model horizon {horizon}")


def bc_lower_estimate(model: SequenceModel, n: int) -> BCEstimate:
    """Averaged per-event lower estimator over the first n events.

    value = (1/n) sum_k [P(A_k) + (E Y I_k)**2 / (E Y X I_k)] with
    Y = n - X the number of missed events; always a valid lower bound for
    P(A_1 u ... u A_n), hence for sup_m P(union from m) when shifted.
    condition_value = (1/n) sum_k E Y I_k / E Y X I_k; when it tends to zero
    along a subsequence, value tends to P(A_n i.o.). 0/0 terms read as 0.
    """
    _check_window(model, 1, n)
    terms, conditions = [], []
    for row, (p, e1, e2, d), count in _window(model, 1, n):
        miss1 = n * p - e1  # E (n - X) I_k, times d if exact
        missx = n * e1 - e2  # E (n - X) X I_k, times d if exact
        if missx <= 0:
            term = row[0]
        elif d:
            term = Fraction(p * missx + miss1 * miss1, d * missx)
            conditions.append((Fraction(miss1, missx), count))
        else:
            term = p + miss1 * miss1 / missx
            conditions.append((miss1 / missx, count))
        terms.append((term, count))
    value = _total(terms) / n
    return BCEstimate(n, 1, value, value, _total(conditions) / n)


def bc_upper_estimate(model: SequenceModel, m: int, n: int) -> BCEstimate:
    """Per-event upper partial sum over the window m..n.

    value = sum_k [P(A_k) - (E X I_k)**2 / E X**2 I_k]; its limit in n, then
    m, bounds P(A_n i.o.) from above when condition_value =
    sum_k E X I_k / E X**2 I_k stays controlled. window_bound subtracts the
    sharper (E (X-1) I_k)**2 / E X(X-1) I_k instead and is a true upper
    bound for P(union of A_m..A_n) at every finite window. 0/0 reads as 0.
    """
    _check_window(model, m, n)
    terms, windows, conditions = [], [], []
    for row, (p, e1, e2, d), count in _window(model, m, n):
        num = e1 - p  # E (X - 1) I_k, times d if exact
        den = e2 - e1  # E X (X - 1) I_k, times d if exact
        if e2 <= 0:
            term = row[0]
        elif d:
            term = Fraction(p * e2 - e1 * e1, d * e2)
            conditions.append((Fraction(e1, e2), count))
        else:
            term = p - e1 * e1 / e2
            conditions.append((e1 / e2, count))
        if den <= 0:
            sharp = row[0]
        else:
            sharp = Fraction(p * den - num * num, d * den) if d else p - num * num / den
        terms.append((term, count))
        windows.append((sharp, count))
    return BCEstimate(n, m, _total(terms), _total(windows), _total(conditions))


def kochen_stone_ratio(model: SequenceModel, n: int) -> Number:
    """alpha_2(n) / alpha_1(n)**2 for X counting hits among the first n events.

    If L is the liminf of this ratio and alpha_1(n) diverges, then
    P(A_n i.o.) >= 1/L.
    """
    _check_window(model, 1, n)
    alpha1, alpha2 = model.alpha_moments(n)
    if alpha1 == 0:
        raise ValueError("the first moment vanishes; the ratio is undefined")
    return alpha2 / (alpha1 * alpha1)
