"""Finite-horizon estimators for limsup (infinitely often) probabilities.

A sequence model exposes, for any window m..n, the indicator moments
(P(A_k), E X I_k, E X**2 I_k) where X counts occurrences inside the window.
From these the estimators assemble the per-event lower and upper partial
sums whose limits sandwich P(A_n i.o.), together with the vanishing-ratio
diagnostics that drive convergence, and the Kochen-Stone ratio.
"""

from __future__ import annotations

import math
import numbers
import operator
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


def _check_indices(horizon: int | None, m: int, n: int) -> bool:
    """Whether the window m..n holds an event; raise ValueError if m or n is
    not an int (nor a bool), or if the window has an index outside 1..horizon."""
    for index in (m, n):
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValueError(f"event index must be an int, not {index!r}")
    if m > n:
        return False
    if m < 1 or (horizon is not None and n > horizon):
        first = m if m < 1 else max(m, horizon + 1)
        last = "" if horizon is None else horizon
        raise ValueError(f"event index {first} outside the model horizon 1..{last}")
    return True


def _runs(values: Iterable) -> list:
    """Runs of equal consecutive values as [(value, count), ...]."""
    return [(value, sum(1 for _ in group)) for value, group in groupby(values)]


def _halving(items: list, add: Callable = operator.add):
    """The items added in a tree that halves the list at every level, so each
    addition joins partial sums of equal length, give or take one item."""

    def tree(lo: int, hi: int):
        if hi - lo == 1:
            return items[lo]
        mid = (lo + hi) // 2
        return add(tree(lo, mid), tree(mid, hi))

    return tree(0, len(items))


def _total(runs: list[tuple[Number, int]]) -> Number:
    """Fraction(0) plus the sum of count * term over the runs, in _halving's
    tree; 0.0 for no runs. Only the alpha moments sum here: through _sums
    their exact sums took ~60% longer."""
    terms = [term if count == 1 else term * count for term, count in runs]
    return Fraction(0) + _halving(terms) if terms else 0.0


class _Lowest:
    """A fraction already in lowest terms: Fraction(_Lowest(a, q)) copies both
    fields, as Fraction does for every Rational, without a gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_Lowest)


def _reduced(a: int, q: int, support: int) -> Fraction:
    """a/q in lowest terms, q > 0, when every prime of gcd(a, q) divides
    support: t holds the primes still to divide out, squared once found."""
    if not a:
        return Fraction(0)
    t = math.gcd(support, q)
    while (g := math.gcd(a, t)) > 1:
        a, q = a // g, q // g
        t = math.gcd(g * g, q)
    return Fraction(_Lowest(a, q))


def _sums(leaves: list[tuple[Number, ...]]) -> list[Number]:
    """The sums of x/q over the leaves (q, x, ...), q > 0, per numerator
    place. If any q is a float, each sum is the float sum of every x / q.
    Otherwise all are ints and the sums are in lowest terms: each leaf is put
    over its least q, in place, and the unreduced merges share one
    g = gcd(q1, q2). As every prime of a final gcd(x, q) divides a merge's g
    or a leaf's gcd(x, q) (README), gcds with their lcm, the support, reduce
    the sums.
    """
    if any(isinstance(leaf[0], float) for leaf in leaves):
        places = range(1, len(leaves[0]))
        return [_halving([leaf[j] / leaf[0] for leaf in leaves]) for j in places]
    shared = []
    for i, (q, *xs) in enumerate(leaves):
        gs = [math.gcd(x, q) for x in xs]
        g = math.gcd(*gs)
        shared += [h // g for h in gs]
        leaves[i] = (q // g, *[x // g for x in xs])

    def merge(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
        (q1, *xs), (q2, *ys) = left, right
        g = math.gcd(q1, q2)
        shared.append(g)
        u, v = q1 // g, q2 // g
        return (u * q2, *[x * v + y * u for x, y in zip(xs, ys)])

    q, *totals = _halving(leaves, merge)
    support = math.lcm(*shared)
    return [_reduced(x, q, support) for x in totals]


def _scaled(row: Row) -> tuple[Number, Number, Number, Number]:
    """(P, E1, E2, d): an exact row (p, e1, e2) as the integers P, E1, E2 over
    their least common denominator d; a row holding a float as floats over
    d = 1.0, so that the estimators' leaves hold floats and _sums adds floats."""
    if not all(map(is_exact, row)):
        return (*map(float, row), 1.0)
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
        if sum(count for _, count in runs) != n - m + 1:
            raise ValueError(f"window_moments({m}, {n}) must cover {n - m + 1} events")
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
        if not _check_indices(self.horizon, m, n):
            return []
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
        if not _check_indices(self.horizon, m, n):
            return []
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
        if not _check_indices(self.horizon, m, n):
            return []
        width = n - m + 1
        return [((self.p, width * self.p, width * width * self.p), width)]

    alpha_moments = _alpha_moments


def _check_window(model: SequenceModel, m: int, n: int) -> None:
    if not _check_indices(getattr(model, "horizon", None), m, n):
        raise ValueError(f"need 1 <= m <= n, got m = {m}, n = {n}")


def bc_lower_estimate(model: SequenceModel, n: int) -> BCEstimate:
    """Averaged per-event lower estimator over the first n events.

    value = (1/n) sum_k [P(A_k) + (E Y I_k)**2 / (E Y X I_k)] with
    Y = n - X the number of missed events; always a valid lower bound for
    P(A_1 u ... u A_n), hence for sup_m P(union from m) when shifted.
    condition_value = (1/n) sum_k E Y I_k / E Y X I_k; when it tends to zero
    along a subsequence, value tends to P(A_n i.o.). 0/0 terms read as 0.
    """
    _check_window(model, 1, n)
    leaves = []  # (d n MX, value numerator, condition numerator)
    for _, (p, e1, e2, d), c in _window(model, 1, n):
        miss1 = n * p - e1  # E (n - X) I_k, times d
        missx = n * e1 - e2  # E (n - X) X I_k, times d
        leaf = (d * n * missx, c * (p * missx + miss1 * miss1), c * d * miss1)
        leaves.append(leaf if missx > 0 else (d * n, c * p, 0))
    value, condition = _sums(leaves)
    return BCEstimate(n, 1, value, value, condition)


def bc_upper_estimate(model: SequenceModel, m: int, n: int) -> BCEstimate:
    """Per-event upper partial sum over the window m..n.

    value = sum_k [P(A_k) - (E X I_k)**2 / E X**2 I_k]; its limit in n, then
    m, bounds P(A_n i.o.) from above when condition_value =
    sum_k E X I_k / E X**2 I_k stays controlled. window_bound subtracts the
    sharper (E (X-1) I_k)**2 / E X(X-1) I_k instead and is a true upper
    bound for P(union of A_m..A_n) at every finite window. 0/0 reads as 0.
    """
    _check_window(model, m, n)
    pairs, sharps = [], []  # (d E2, value, condition), (d DEN, window)
    for _, (p, e1, e2, d), c in _window(model, m, n):
        num = e1 - p  # E (X - 1) I_k, times d
        den = e2 - e1  # E X (X - 1) I_k, times d
        pair = (d * e2, c * (p * e2 - e1 * e1), c * d * e1)
        pairs.append(pair if e2 > 0 else (d, c * p, 0))
        sharp = (d * den, c * (p * den - num * num))
        sharps.append(sharp if den > 0 else (d, c * p))
    (value, condition), (window,) = _sums(pairs), _sums(sharps)
    return BCEstimate(n, m, value, window, condition)


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
