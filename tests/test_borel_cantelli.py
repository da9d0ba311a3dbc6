"""Tests for the finite-horizon limsup estimators.

The independent model's closed-form window moments are checked against full
2**n outcome enumeration; the explicit model is checked against the union
bounds it must reproduce."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import sample_systems
from unionbounds import (
    ExplicitSequence,
    IdenticalSequence,
    IndependentSequence,
    bc_lower_estimate,
    bc_upper_estimate,
    build_system,
    exact_union_probability,
    kochen_stone_ratio,
    union_bound,
)


def enumerate_window_moments(probabilities):
    """Brute-force (P(A_k), E X I_k, E X**2 I_k) over all outcomes, where X
    counts how many of the listed independent events occur."""
    w = len(probabilities)
    rows = [[Fraction(0)] * 3 for _ in range(w)]
    for outcome in itertools.product((0, 1), repeat=w):
        prob = Fraction(1)
        for hit, p in zip(outcome, probabilities):
            prob *= p if hit else 1 - p
        count = sum(outcome)
        for k, hit in enumerate(outcome):
            if hit:
                rows[k][0] += prob
                rows[k][1] += count * prob
                rows[k][2] += count * count * prob
    return [tuple(row) for row in rows]


def enumerate_union_probability(probabilities):
    total = Fraction(1)
    for p in probabilities:
        total *= 1 - p
    return 1 - total


def test_independent_window_moments_match_enumeration():
    rng = random.Random(127)
    for _ in range(10):
        w = rng.randint(1, 6)
        probabilities = [Fraction(rng.randint(0, 4), 4) for _ in range(w)]
        model = IndependentSequence(probabilities)
        assert model.window_moments(1, w) == enumerate_window_moments(probabilities)


def test_independent_sub_window_uses_window_occupancy_only():
    probabilities = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]
    model = IndependentSequence(probabilities)
    assert model.window_moments(2, 4) == enumerate_window_moments(probabilities[1:])


def test_half_probability_frozen_values():
    model = IndependentSequence(Fraction(1, 2))
    rows = model.window_moments(1, 200)
    p, e1, e2 = rows[0]
    assert p == Fraction(1, 2)
    assert 200 * p - e1 == Fraction(199, 4)  # E (n - X) I_k = 49.75
    assert 200 * e1 - e2 == 4975  # E (n - X) X I_k
    estimate = bc_lower_estimate(model, 200)
    assert estimate.value == Fraction(399, 400)
    assert estimate.condition_value == Fraction(1, 100)
    assert kochen_stone_ratio(model, 200) == Fraction(201, 200)


def test_lower_estimate_bounds_window_union():
    rng = random.Random(131)
    for _ in range(8):
        w = rng.randint(1, 6)
        probabilities = [Fraction(rng.randint(0, 3), 4) for _ in range(w)]
        model = IndependentSequence(probabilities)
        union = enumerate_union_probability(probabilities)
        estimate = bc_lower_estimate(model, w)
        assert estimate.value <= union
        assert estimate.value <= 1
        upper = bc_upper_estimate(model, 1, w)
        assert upper.window_bound >= union


def test_lower_estimate_keep_terms():
    model = IndependentSequence(Fraction(1, 2))
    estimate = bc_lower_estimate(model, 5, keep_terms=True)
    assert len(estimate.per_k_terms) == 5
    assert sum(estimate.per_k_terms, Fraction(0)) / 5 == estimate.value
    assert bc_lower_estimate(model, 5).per_k_terms is None


def test_single_event_and_single_window():
    model = IndependentSequence(Fraction(1, 3))
    assert bc_lower_estimate(model, 1).value == Fraction(1, 3)
    upper = bc_upper_estimate(model, 5, 5)
    assert upper.value == 0  # P - P**2/P for a one-event window
    assert upper.window_bound == Fraction(1, 3)


def test_identical_sequence_is_the_dependent_extreme():
    model = IdenticalSequence(Fraction(2, 3))
    for n in (1, 2, 7, 30):
        estimate = bc_lower_estimate(model, n)
        assert estimate.value == Fraction(2, 3)
        assert bc_upper_estimate(model, 1, n).window_bound == Fraction(2, 3)
    assert kochen_stone_ratio(model, 10) == Fraction(3, 2)


def test_identical_sequence_certain_event_hits_zero_guard():
    model = IdenticalSequence(1)
    estimate = bc_lower_estimate(model, 5)
    assert estimate.value == 1
    assert estimate.condition_value == 0


def test_explicit_model_matches_union_bounds(s3):
    model = ExplicitSequence(s3)
    lower = bc_lower_estimate(model, 3)
    assert lower.value == union_bound(s3, "per_event_lower_three")
    upper = bc_upper_estimate(model, 1, 3)
    assert upper.window_bound == union_bound(s3, "per_event_upper_three")
    assert upper.window_bound == Fraction(9, 10)
    assert lower.value <= exact_union_probability(s3)


def test_explicit_model_prefixes():
    for system in sample_systems(10, seed=137):
        model = ExplicitSequence(system)
        for n in range(1, system.n_events + 1):
            prefix = model.prefix_system(n)
            estimate = bc_lower_estimate(model, n)
            assert estimate.value <= exact_union_probability(prefix)
            assert estimate.value == union_bound(prefix, "per_event_lower_three")
            upper = bc_upper_estimate(model, 1, n)
            assert upper.window_bound == union_bound(prefix, "per_event_upper_three")


def test_explicit_window_moments_shift():
    system = build_system(
        ["1/4", "1/4", "1/4", "1/4"], [[0, 1], [0, 2], [0, 3]]
    )
    model = ExplicitSequence(system)
    rows = model.window_moments(2, 3)
    assert len(rows) == 2
    # X counts events 2 and 3 only: atom 0 lies in both, atoms 2 and 3 in one
    assert rows[0] == (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4))
    assert rows[1] == (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4))


def test_summable_sequence_upper_estimates_decrease():
    model = IndependentSequence(lambda k: Fraction(1, 2**k))
    previous = None
    for m in range(1, 11):
        estimate = bc_upper_estimate(model, m, 40)
        cap = Fraction(1, 2 ** (m - 1))
        assert estimate.value <= cap
        assert estimate.window_bound <= cap
        if previous is not None:
            assert estimate.value <= previous
        previous = estimate.value


def test_kochen_stone_disjoint_events_ratio():
    system = build_system(["1/4", "1/4", "1/2"], [[0], [1]])
    model = ExplicitSequence(system)
    alpha1 = Fraction(1, 2)
    assert kochen_stone_ratio(model, 2) == 1 / alpha1


def test_kochen_stone_trends_toward_one_for_independent():
    model = IndependentSequence(Fraction(1, 2))
    values = [kochen_stone_ratio(model, n) for n in (10, 100, 1000)]
    assert values[0] > values[1] > values[2] > 1


def test_kochen_stone_zero_first_moment():
    with pytest.raises(ValueError):
        kochen_stone_ratio(IndependentSequence(0), 5)


def test_window_validation_errors(s3):
    model = ExplicitSequence(s3)
    with pytest.raises(ValueError):
        bc_lower_estimate(model, 4)  # horizon is 3
    with pytest.raises(ValueError):
        bc_upper_estimate(model, 0, 2)
    with pytest.raises(ValueError):
        bc_upper_estimate(model, 3, 2)
    sequence = IndependentSequence([Fraction(1, 2)] * 4)
    assert sequence.horizon == 4
    with pytest.raises(ValueError):
        bc_lower_estimate(sequence, 5)


def test_probability_validation():
    with pytest.raises(ValueError):
        IndependentSequence(Fraction(3, 2))
    with pytest.raises(ValueError):
        IdenticalSequence(-1)
    with pytest.raises(ValueError):
        IndependentSequence([])
    model = IndependentSequence(lambda k: Fraction(2, k))
    with pytest.raises(ValueError):
        bc_lower_estimate(model, 3)  # callable yields p_1 = 2, rejected on use
