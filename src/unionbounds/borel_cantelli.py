"""Finite-horizon estimators for limsup (infinitely often) probabilities.

A sequence model exposes, for any window m..n, the indicator moments
(P(A_k), E X I_k, E X**2 I_k) where X counts occurrences inside the window.
From these the estimators assemble the per-event lower and upper partial
sums whose limits sandwich P(A_n i.o.), together with the vanishing-ratio
diagnostics that drive convergence, and the Kochen-Stone ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Protocol, Sequence, Union

from ._numeric import Number
from .events import EventSystem, per_event_moments, power_moments

ProbabilityLike = Union[int, float, Fraction, str]


class SequenceModel(Protocol):
    """What the estimators need from an event-sequence model."""

    horizon: int | None

    def window_moments(
        self, m: int, n: int
    ) -> list[tuple[Number, Number, Number]]: ...

    def alpha_moments(self, n: int) -> tuple[Number, Number]: ...


def _as_probability(value: ProbabilityLike) -> Number:
    p: Number = Fraction(value) if isinstance(value, (int, str)) else value
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class BCEstimate:
    """A finite-horizon estimate over the window m..n.

    value is the partial-sum estimator itself. window_bound is the sharp
    finite-window bound on P(union of A_m..A_n): equal to value for lower
    estimates, and given by the second-factorial-moment form for upper ones.
    condition_value is the ratio sum that must tend to zero along a
    subsequence for the estimator to converge to the limsup probability.
    """

    n: int
    m: int
    value: Number
    window_bound: Number
    condition_value: Number
    per_k_terms: tuple[Number, ...] | None = None


class ExplicitSequence:
    """The events of a finite system, taken in their listed order."""

    def __init__(self, system: EventSystem):
        if system.n_events == 0:
            raise ValueError("the system has no events")
        self.system = system
        self.horizon: int | None = system.n_events

    def prefix_system(self, n: int) -> EventSystem:
        return self.system.prefix(n)

    def window_moments(self, m: int, n: int) -> list[tuple[Number, Number, Number]]:
        # (p, e1, e2) are the per-event moments sbar_0..sbar_2 at a = rho = 1.
        window = EventSystem(self.system.weights, self.system.events[m - 1 : n])
        return list(zip(*per_event_moments(window, 1, 1, ell=3).sbar))

    def alpha_moments(self, n: int) -> tuple[Number, Number]:
        prefix = self.prefix_system(n)
        return power_moments(prefix, 1), power_moments(prefix, 2)


class IndependentSequence:
    """Independent events A_k with P(A_k) = p_k.

    ``probability`` is a constant, a sequence (1-based, fixing the horizon),
    or a callable k -> p_k. Closed forms keep the window moments exact for
    rational probabilities: with T1 and T2 the window sums of p_j and p_j**2
    excluding k, E X I_k = p_k (1 + T1) and
    E X**2 I_k = p_k (1 + 3 T1 + T1**2 - T2).
    """

    def __init__(
        self,
        probability: ProbabilityLike
        | Sequence[ProbabilityLike]
        | Callable[[int], ProbabilityLike],
        horizon: int | None = None,
    ):
        self.horizon = horizon
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
            constant = _as_probability(probability)
            self._fn = lambda k: constant

    def probability(self, k: int) -> Number:
        if k < 1 or (self.horizon is not None and k > self.horizon):
            raise ValueError(f"event index {k} outside the model horizon")
        return self._fn(k)

    def window_moments(self, m: int, n: int) -> list[tuple[Number, Number, Number]]:
        ps = [self.probability(k) for k in range(m, n + 1)]
        s1 = sum(ps)
        s2 = sum(p * p for p in ps)
        rows = []
        for p in ps:
            t1 = s1 - p
            t2 = s2 - p * p
            e1 = p * (1 + t1)
            e2 = p * (1 + 3 * t1 + t1 * t1 - t2)
            rows.append((p, e1, e2))
        return rows

    def alpha_moments(self, n: int) -> tuple[Number, Number]:
        ps = [self.probability(k) for k in range(1, n + 1)]
        s1 = sum(ps)
        s2 = sum(p * p for p in ps)
        return s1, s1 + s1 * s1 - s2


class IdenticalSequence:
    """Every event is the same template event of probability p.

    The extreme dependent case: X = (n - m + 1) 1_A on the window, so the
    lower estimator returns p exactly at every horizon while the
    second-moment diagnostics stay bounded away from zero.
    """

    def __init__(self, p: ProbabilityLike, horizon: int | None = None):
        self.p = _as_probability(p)
        self.horizon = horizon

    def window_moments(self, m: int, n: int) -> list[tuple[Number, Number, Number]]:
        width = n - m + 1
        row = (self.p, width * self.p, width * width * self.p)
        return [row] * width

    def alpha_moments(self, n: int) -> tuple[Number, Number]:
        return n * self.p, n * n * self.p


def _check_window(model: SequenceModel, m: int, n: int) -> None:
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m = {m}, n = {n}")
    horizon = getattr(model, "horizon", None)
    if horizon is not None and n > horizon:
        raise ValueError(f"n = {n} exceeds the model horizon {horizon}")


def bc_lower_estimate(
    model: SequenceModel, n: int, *, keep_terms: bool = False
) -> BCEstimate:
    """Averaged per-event lower estimator over the first n events.

    value = (1/n) sum_k [P(A_k) + (E Y I_k)**2 / (E Y X I_k)] with
    Y = n - X the number of missed events; always a valid lower bound for
    P(A_1 u ... u A_n), hence for sup_m P(union from m) when shifted.
    condition_value = (1/n) sum_k E Y I_k / E Y X I_k; when it tends to zero
    along a subsequence, value tends to P(A_n i.o.). 0/0 terms read as 0.
    """
    _check_window(model, 1, n)
    rows = model.window_moments(1, n)
    total: Number = Fraction(0)
    condition: Number = Fraction(0)
    terms: list[Number] | None = [] if keep_terms else None
    for p, e1, e2 in rows:
        miss1 = n * p - e1  # E (n - X) I_k
        missx = n * e1 - e2  # E (n - X) X I_k
        if missx > 0:
            gain = miss1 * miss1 / missx
            condition = condition + miss1 / missx
        else:
            gain = Fraction(0)
        total = total + p + gain
        if terms is not None:
            terms.append(p + gain)
    value = total / n
    return BCEstimate(
        n,
        1,
        value,
        value,
        condition / n,
        tuple(terms) if terms is not None else None,
    )


def bc_upper_estimate(
    model: SequenceModel, m: int, n: int, *, keep_terms: bool = False
) -> BCEstimate:
    """Per-event upper partial sum over the window m..n.

    value = sum_k [P(A_k) - (E X I_k)**2 / E X**2 I_k]; its limit in n, then
    m, bounds P(A_n i.o.) from above when condition_value =
    sum_k E X I_k / E X**2 I_k stays controlled. window_bound subtracts the
    sharper (E (X-1) I_k)**2 / E X(X-1) I_k instead and is a true upper
    bound for P(union of A_m..A_n) at every finite window. 0/0 reads as 0.
    """
    _check_window(model, m, n)
    rows = model.window_moments(m, n)
    value: Number = Fraction(0)
    window: Number = Fraction(0)
    condition: Number = Fraction(0)
    terms: list[Number] | None = [] if keep_terms else None
    for p, e1, e2 in rows:
        if e2 > 0:
            drop = e1 * e1 / e2
            condition = condition + e1 / e2
        else:
            drop = Fraction(0)
        num = e1 - p  # E (X - 1) I_k
        den = e2 - e1  # E X (X - 1) I_k
        sharp = num * num / den if den > 0 else Fraction(0)
        value = value + p - drop
        window = window + p - sharp
        if terms is not None:
            terms.append(p - drop)
    return BCEstimate(
        n,
        m,
        value,
        window,
        condition,
        tuple(terms) if terms is not None else None,
    )


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
