"""Shared fixtures and brute-force oracles.

The oracles recompute probabilities and moments from raw atom data with
plain set logic and Fraction powers, independently of the package internals,
so agreement between the two is a meaningful check.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

import unionbounds.bounds as bounds_module
from unionbounds import (
    CertificateError,
    EventSystem,
    ExponentParams,
    InfeasibleIndicesError,
    MomentConsistencyError,
    MomentVector,
    general_bound,
    per_event_moments,
    power_moments,
    random_system,
)
from unionbounds._numeric import rpow
from unionbounds.cli import (  # noqa: F401  (re-exported to the test modules)
    S2_EVENTS,
    S2_WEIGHTS,
    S3_EVENTS,
    S3_WEIGHTS,
    reference_system,
)
from unionbounds.unions import _OPTIONS, _row_key


@pytest.fixture
def s2() -> EventSystem:
    return reference_system("s2")


@pytest.fixture
def s3() -> EventSystem:
    return reference_system("s3")


def naive_union_probability(system: EventSystem) -> Fraction:
    covered = set()
    for event in system.events:
        covered.update(event)
    return sum((system.weights[atom] for atom in covered), Fraction(0))


def naive_occupancy_counts(system: EventSystem) -> list[int]:
    return [
        sum(1 for event in system.events if atom in event)
        for atom in range(system.n_atoms)
    ]


def naive_occupancy_profile(system: EventSystem) -> list[Fraction]:
    levels = [Fraction(0)] * (system.n_events + 1)
    for atom, count in enumerate(naive_occupancy_counts(system)):
        levels[count] += system.weights[atom]
    return levels


def naive_power_moment(system: EventSystem, k: int) -> Fraction:
    total = Fraction(0)
    for atom, count in enumerate(naive_occupancy_counts(system)):
        total += system.weights[atom] * Fraction(count) ** k
    return total


def naive_per_event_moment(
    system: EventSystem, k: int, j: int, a: int, rho: int
) -> Fraction:
    """s_j(k) = sum over atoms of A_k of count**(a + (j-1)*rho - 1) * weight."""
    counts = naive_occupancy_counts(system)
    total = Fraction(0)
    for atom in system.events[k]:
        total += Fraction(counts[atom]) ** (a + (j - 1) * rho - 1) * system.weights[
            atom
        ]
    return total


def naive_joint_occupancy(system: EventSystem) -> list[list[Fraction]]:
    """p[i-1][k] = P(xi = i, A_k), summed atom by atom."""
    counts = naive_occupancy_counts(system)
    n = system.n_events
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, event in enumerate(system.events):
        for atom in event:
            rows[counts[atom] - 1][k] += system.weights[atom]
    return rows


def profile_moment_vector(system: EventSystem, a, rho, ell: int) -> tuple:
    """Occupancy moments sum_i i**e * P(xi = i) as a running total over the
    occupancy profile, level by level, in the library's mixed arithmetic:
    exact terms at integral e, float terms otherwise."""
    profile = naive_occupancy_profile(system)
    sbar = []
    for j in range(ell):
        total = Fraction(0)
        for i in range(1, system.n_events + 1):
            if profile[i]:
                total = total + rpow(i, a + j * rho) * profile[i]
        sbar.append(total)
    return tuple(sbar)


def profile_holder_moment(system: EventSystem, p: float) -> float:
    """E xi**p in floats over the occupancy profile, for non-integral p."""
    total = 0.0  # plain additions, whatever sum() does
    for i, weight in enumerate(naive_occupancy_profile(system)):
        if i:
            total += float(weight) * i ** float(p)
    return total


# Independent closed forms of the classic and (1,1) union bounds, built from
# the naive statistics above; the registry rows must reproduce them exactly.


def _naive_event_moments(system: EventSystem) -> list[tuple[Fraction, ...]]:
    """(s1, s2, s3) of every event at a = rho = 1."""
    return [
        tuple(naive_per_event_moment(system, k, j, 1, 1) for j in (1, 2, 3))
        for k in range(system.n_events)
    ]


def naive_chung_erdos(system: EventSystem) -> Fraction:
    """(E xi)**2 / E xi**2, read as 0 when no event has positive mass."""
    alpha2 = naive_power_moment(system, 2)
    if alpha2 == 0:
        return Fraction(0)
    return naive_power_moment(system, 1) ** 2 / alpha2


def naive_de_caen(system: EventSystem) -> Fraction:
    """sum_k s1(k)**2 / s2(k) over events with positive probability."""
    return sum(
        (s1 * s1 / s2 for s1, s2, _ in _naive_event_moments(system) if s2),
        Fraction(0),
    )


def naive_kat(system: EventSystem) -> Fraction:
    """Kuai-Alajaji-Takahara: per event, delta = s2/s1 with fractional part
    theta puts the mass on floor(delta) and floor(delta) + 1."""
    total = Fraction(0)
    for s1, s2, _ in _naive_event_moments(system):
        if s1 == 0:
            continue
        delta = s2 / s1
        theta = delta - (delta.numerator // delta.denominator)
        total += (1 - theta) * s1 * s1 / (s2 - theta * s1)
        if theta:
            total += theta * s1 * s1 / (s2 + (1 - theta) * s1)
    return total


def naive_per_event_lower_three(system: EventSystem) -> Fraction:
    """(1/N) sum_k (d1(k)**2 / d2(k) + s1(k)) with d1 = N*s1 - s2,
    d2 = N*s2 - s3 and 0/0 read as 0."""
    n = system.n_events
    total = Fraction(0)
    for s1, s2, s3 in _naive_event_moments(system):
        d1, d2 = n * s1 - s2, n * s2 - s3
        total += (d1 * d1 / d2 if d2 else 0) + s1
    return total / n


def naive_per_event_upper_three(system: EventSystem) -> Fraction:
    """sum_k (s1(k) - d1(k)**2 / d2(k)) with d1 = s2 - s1, d2 = s3 - s2 and
    0/0 read as 0."""
    total = Fraction(0)
    for s1, s2, s3 in _naive_event_moments(system):
        d1, d2 = s2 - s1, s3 - s2
        total += s1 - (d1 * d1 / d2 if d2 else 0)
    return total


# Per-k oracles of the finite-horizon estimators: the rows of a window one k
# at a time, and the estimators as left-to-right running totals over them.


def expand_runs(runs) -> list:
    """The per-k rows of a window given as runs [(row, count), ...]."""
    return [row for row, count in runs for _ in range(count)]


def naive_independent_rows(probabilities) -> list[tuple]:
    """(p_k, E X I_k, E X**2 I_k) per k for independent events, from plain
    sums over the whole window."""
    s1 = sum(probabilities)
    s2 = sum(p * p for p in probabilities)
    rows = []
    for p in probabilities:
        t1 = s1 - p
        t2 = s2 - p * p
        rows.append((p, p * (1 + t1), p * (1 + 3 * t1 + t1 * t1 - t2)))
    return rows


# Closed forms of the Kochen-Stone moments (E X, E X**2), X counting A_1..A_n.


def naive_independent_alpha(probabilities) -> tuple:
    """Independent events: E X**2 = sum p + (sum p)**2 - sum p**2."""
    s1 = sum(probabilities)
    s2 = sum(p * p for p in probabilities)
    return s1, s1 + s1 * s1 - s2


def naive_identical_alpha(p, n: int) -> tuple:
    """One event repeated n times: X = n 1_A."""
    return n * p, n * n * p


def naive_explicit_alpha(system: EventSystem, n: int) -> tuple:
    """The power moments of the occupancy count of the first n events."""
    prefix = system.prefix(n)
    return naive_power_moment(prefix, 1), naive_power_moment(prefix, 2)


def naive_bc_lower(rows, n: int) -> tuple:
    """(value, condition_value) of the lower estimator."""
    total = condition = Fraction(0)
    for p, e1, e2 in rows:
        miss1 = n * p - e1
        missx = n * e1 - e2
        gain = Fraction(0)
        if missx > 0:
            gain = miss1 * miss1 / missx
            condition = condition + miss1 / missx
        total = total + p + gain
    return total / n, condition / n


def naive_bc_upper(rows) -> tuple:
    """(value, window_bound, condition_value) of the upper estimator."""
    value = window = condition = Fraction(0)
    for p, e1, e2 in rows:
        term = p
        if e2 > 0:  # the library's form: P E2 - E1**2 = P**2 (T1 - T2) >= 0
            term = (p * e2 - e1 * e1) / e2
            condition = condition + e1 / e2
        num, den = e1 - p, e2 - e1
        sharp = num * num / den if den > 0 else Fraction(0)
        value = value + term
        window = window + p - sharp
    return value, window, condition


# Small-support oracles of the scalar layer: the power features of an
# exponent family, and the best certified window over every index set.


def power_feature_matrix(params) -> tuple[tuple, ...]:
    """Feature rows f[k][i-1] = i**(a + (k-1)*rho), i = 1..n_support."""
    return tuple(
        tuple(rpow(i, e) for i in range(1, params.n_support + 1))
        for e in params.exponents
    )


def exhaustive_index_search(features, sbar, direction: str):
    """Best certified window over all C(n, ell) index sets, or None.

    O(n**(ell+1)) general_bound solves, so for small supports only.
    """
    rows = [tuple(row) for row in features]
    best = None
    for combo in itertools.combinations(range(1, len(rows[0]) + 1), len(rows)):
        try:
            outcome = general_bound(rows, sbar, combo, direction)
        except (CertificateError, InfeasibleIndicesError, ValueError):
            continue
        if (
            best is None
            or (direction == "lower" and outcome.bound_value > best.bound_value)
            or (direction == "upper" and outcome.bound_value < best.bound_value)
        ):
            best = outcome
    return best


# The refined two- and three-moment bounds as their closed forms, evaluated
# in Fractions at integral exponents; the library solves for the window
# masses in integers instead and must agree in value, type and error text.


def _floor_root_by_search(value: Fraction, degree: int) -> int:
    b = 0
    while Fraction(b + 1) ** degree <= value:
        b += 1
    return b


def _inconsistent(label: str, detail: str) -> MomentConsistencyError:
    return MomentConsistencyError(f"inconsistent moments: {label} ({detail})")


def _split(d1: Fraction, d2: Fraction, rho: int) -> tuple[int, Fraction]:
    """b = floor((d2/d1)**(1/rho)) and the weight tbar that puts mass
    tbar on b + 1 and 1 - tbar on b."""
    ratio = Fraction(d2) / Fraction(d1)
    b = _floor_root_by_search(ratio, rho)
    return b, (ratio - b**rho) / ((b + 1) ** rho - b**rho)


def _check_two(s1: Fraction, s2: Fraction, rho: int, n: int) -> None:
    """The two-moment cone: s2 = 0 when s1 = 0, else s1 <= s2 <= n**rho s1."""
    if s1 == 0:
        if s2 > 0:
            raise _inconsistent("s2 must vanish when s1 does", f"{s2} > 0")
        return
    if s2 < s1:
        raise _inconsistent("s2 >= s1", f"{s2} < {s1}")
    limit = n**rho * s1
    if s2 > limit:
        raise _inconsistent("s2 <= n_support**rho * s1", f"{s2} > {limit}")


def closed_form_lower_two(moments) -> Fraction:
    """s1 * ((1 - tbar) / b**a + tbar / (b + 1)**a) over the window b, b + 1
    located by the ratio s2/s1."""
    params = moments.params
    a, rho, n = int(params.a), int(params.rho), params.n_support
    s1, s2 = moments.sbar
    _check_two(s1, s2, rho, n)
    if s1 == 0:
        return Fraction(0)
    b, tbar = _split(s1, s2, rho)
    if tbar == 0:
        return s1 / b**a
    return s1 * (tbar / (b + 1) ** a + (1 - tbar) / b**a)


def closed_form_upper_two(moments) -> Fraction:
    """((n**(a+rho) - 1) s1 - (n**a - 1) s2) / (n**(a+rho) - n**a), the mass
    on the window 1, n; s1 itself when n = 1. The checks are the lower
    bound's."""
    params = moments.params
    a, rho, n = int(params.a), int(params.rho), params.n_support
    s1, s2 = moments.sbar
    _check_two(s1, s2, rho, n)
    if n == 1:
        return s1
    return ((n ** (a + rho) - 1) * s1 - (n**a - 1) * s2) / (n ** (a + rho) - n**a)


def closed_form_lower_three(moments) -> Fraction:
    """t1 + t2 + s1/n**a with t_i = d1 * w_i * (n**a - m_i**a) /
    (n**a * m_i**a * (n**rho - m_i**rho)) over the window m_i = b, b + 1,
    w = (1 - tbar, tbar), d1 = n**rho s1 - s2 and d2 = n**rho s2 - s3."""
    params = moments.params
    a, rho, n = int(params.a), int(params.rho), params.n_support
    s1, s2, s3 = moments.sbar
    n_rho, n_a = n**rho, n**a
    d1, d2 = n_rho * s1 - s2, n_rho * s2 - s3
    if d1 < 0:
        raise _inconsistent("n**rho * s1 - s2 must be non-negative", f"got {d1}")
    if d2 < 0:
        raise _inconsistent("n**rho * s2 - s3 must be non-negative", f"got {d2}")
    if d1 == 0:
        return s1 / n_a
    if d2 < d1:
        raise _inconsistent("(n**rho*s2 - s3) >= (n**rho*s1 - s2)", f"{d2} < {d1}")
    limit = (n - 1) ** rho * d1
    if d2 > limit:
        raise _inconsistent(
            "(n**rho*s2 - s3) <= (n-1)**rho * (n**rho*s1 - s2)", f"{d2} > {limit}"
        )
    b, tbar = _split(d1, d2, rho)
    tail = s1 / n_a
    t1 = d1 * (1 - tbar) * (n_a - b**a) / (n_a * b**a * (n_rho - b**rho))
    if tbar == 0:
        return t1 + tail
    c = b + 1
    t2 = d1 * tbar * (n_a - c**a) / (n_a * c**a * (n_rho - c**rho))
    return t1 + t2 + tail


def closed_form_upper_three(moments) -> Fraction:
    """s1 - t1 - t2 with t_i = d1 * w_i * (m_i**a - 1) / (m_i**a *
    (m_i**rho - 1)) over the window m_i = b, b + 1, w = (1 - tbar, tbar),
    d1 = s2 - s1 and d2 = s3 - s2."""
    params = moments.params
    a, rho, n = int(params.a), int(params.rho), params.n_support
    s1, s2, s3 = moments.sbar
    d1, d2 = s2 - s1, s3 - s2
    if d1 < 0:
        raise _inconsistent("s2 - s1 must be non-negative", f"got {d1}")
    if d2 < 0:
        raise _inconsistent("s3 - s2 must be non-negative", f"got {d2}")
    if d1 == 0:
        return s1
    limit = 2**rho * d1
    if d2 < limit:
        raise _inconsistent("(s3 - s2) >= 2**rho * (s2 - s1)", f"{d2} < {limit}")
    limit = n**rho * d1
    if d2 > limit:
        raise _inconsistent("(s3 - s2) <= n**rho * (s2 - s1)", f"{d2} > {limit}")
    b, tbar = _split(d1, d2, rho)
    t1 = d1 * (1 - tbar) * (b**a - 1) / (b**a * (b**rho - 1))
    if tbar == 0:
        return s1 - t1
    c = b + 1
    t2 = d1 * tbar * (c**a - 1) / (c**a * (c**rho - 1))
    return s1 - t1 - t2


# The paper's simplified three-moment forms as weighted sums of its term at
# explicit points read off delta itself (a rational when rho = 1 and the
# moments are), for genuine moments only: no cone checks. The library keeps
# only "rho_ge_1_simple" at a = rho; the refined bounds dominate them all.


def _simplified_terms(variant: str, d1, d2, a, rho) -> list[tuple]:
    """(weight, point x, B) of each term: the variant's window points around
    delta = (d2/d1)**(1/rho), with b = floor(delta) and the refined weight."""
    ratio = d2 / d1
    delta = ratio if rho == 1 else float(ratio) ** (1 / rho)
    b = math.floor(delta)
    tbar = (ratio - b**rho) / ((b + 1) ** rho - b**rho)
    if variant == "a_le_rho":
        return [(1 - tbar, delta, b**a), (tbar, delta + 1, (b + 1) ** a)]
    if variant == "a_ge_rho":
        return [(1 - tbar, delta - 1, b**a), (tbar, delta, (b + 1) ** a)]
    assert variant == "rho_ge_1_simple"
    big_b = ratio if a == rho else delta**a  # delta**rho is d2/d1 exactly
    return [(1, delta if a < rho else delta - 1, big_b)]


def _power_quotient(top, x, a, rho):
    """(top**a - x**a) / (top**rho - x**rho), exactly one at a = rho."""
    return 1 if a == rho else (top**a - x**a) / (top**rho - x**rho)


def closed_form_lower_simple(moments, variant: str):
    """s1/n**a + sum of d1 w (n**a - x**a) / (n**a B (n**rho - x**rho)) over
    the terms, with d1 = n**rho s1 - s2 and d2 = n**rho s2 - s3."""
    params = moments.params
    a, rho, n = params.a, params.rho, params.n_support
    s1, s2, s3 = moments.sbar
    d1, d2 = n**rho * s1 - s2, n**rho * s2 - s3
    total = s1 / n**a
    if d1 == 0:
        return total
    for w, x, big_b in _simplified_terms(variant, d1, d2, a, rho):
        if w:
            total += d1 * w * _power_quotient(n, x, a, rho) / (n**a * big_b)
    return total


def closed_form_upper_simple(moments, variant: str):
    """s1 minus the sum of d1 w (x**a - 1) / (B (x**rho - 1)) over the terms,
    that ratio read at x = 1 as a/rho, with d1 = s2 - s1 and d2 = s3 - s2."""
    params = moments.params
    a, rho = params.a, params.rho
    s1, s2, s3 = moments.sbar
    d1, d2 = s2 - s1, s3 - s2
    total = s1
    if d1 == 0:
        return total
    for w, x, big_b in _simplified_terms(variant, d1, d2, a, rho):
        if w:
            if x == 1:
                ratio = Fraction(a) / Fraction(rho)
            else:
                ratio = _power_quotient(x, 1, a, rho)
            total -= d1 * w * ratio / big_b
    return total


def brute_force_moments(vector, a, rho, ell) -> tuple[Fraction, ...]:
    """Power moments of an explicit vector, all arithmetic over Fractions."""
    return tuple(
        sum(
            (
                Fraction(value) * Fraction(i) ** (a + j * rho)
                for i, value in enumerate(vector, start=1)
            ),
            Fraction(0),
        )
        for j in range(ell)
    )


def sample_systems(
    count: int, *, seed: int = 97, max_events: int = 6, max_atoms: int = 48
) -> list[EventSystem]:
    """A deterministic batch of random systems cycling the three profiles."""
    rng = random.Random(seed)
    profiles = ("dense", "sparse", "disjoint-ish")
    return [
        random_system(
            seed * 7919 + i,
            rng.randint(1, max_events),
            rng.randint(1, max_atoms),
            profiles[i % 3],
        )
        for i in range(count)
    ]


def moment_vector_row(system: EventSystem, name: str, a, rho):
    """Report row ``name`` evaluated on public, checked MomentVectors: the
    row's scalar bound, named in BOUNDS and taken from ``unionbounds.bounds``,
    on the occupancy vector of ``power_moments`` values, or summed in event
    order over the per-event columns of ``per_event_moments(...).sbar`` of
    positive mass."""
    statistic, bound, ell, variant, a, rho = _row_key(name, a, rho)
    bound = partial(getattr(bounds_module, bound), **_OPTIONS[variant])
    params = ExponentParams(a, rho, ell, system.n_events)
    if statistic == "occupancy":
        sbar = tuple(power_moments(system, e) for e in params.exponents)
        return bound(MomentVector(sbar, params))
    total = Fraction(0)
    for column in zip(*per_event_moments(system, a, rho, ell=3).sbar):
        if column[0] != 0:
            total = total + bound(MomentVector(column[:ell], params))
    return total
