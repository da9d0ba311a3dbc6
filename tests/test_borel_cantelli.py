"""Tests for the finite-horizon limsup estimators.

The independent model's closed-form window moments are checked against full
2**n outcome enumeration; the explicit model is checked against the union
bounds it must reproduce."""

import gc
import hashlib
import itertools
import math
import operator
import random
import weakref
from fractions import Fraction

import pytest

from conftest import (
    expand_runs,
    naive_bc_lower,
    naive_bc_upper,
    naive_explicit_alpha,
    naive_identical_alpha,
    naive_independent_alpha,
    naive_independent_rows,
    naive_per_event_moment,
    sample_systems,
)
from unionbounds import (
    EventSystem,
    ExplicitSequence,
    IdenticalSequence,
    IndependentSequence,
    bc_lower_estimate,
    bc_upper_estimate,
    build_system,
    exact_union_probability,
    kochen_stone_ratio,
    random_system,
    union_bound,
)
from unionbounds import borel_cantelli as bc_module
from unionbounds.borel_cantelli import _scaled


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
        rows = expand_runs(model.window_moments(1, w))
        assert rows == enumerate_window_moments(probabilities)


def test_independent_sub_window_uses_window_occupancy_only():
    probabilities = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]
    model = IndependentSequence(probabilities)
    rows = expand_runs(model.window_moments(2, 4))
    assert rows == enumerate_window_moments(probabilities[1:])


def test_half_probability_frozen_values():
    model = IndependentSequence(Fraction(1, 2))
    [((p, e1, e2), count)] = model.window_moments(1, 200)
    assert count == 200
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


def test_row_estimators_share_one_window():
    # each window of a horizon n is built once; a new n drops them all, so a
    # model holds the windows of one horizon row only
    calls = []

    class Counted(IndependentSequence):
        def window_moments(self, m, n):
            calls.append((m, n))
            return super().window_moments(m, n)

    model = Counted(lambda k: Fraction(1, k + 1))
    fresh = IndependentSequence(lambda k: Fraction(1, k + 1))
    for m, n in ((1, 6), (1, 6), (3, 6), (1, 6), (1, 9)):
        assert bc_lower_estimate(model, n) == bc_lower_estimate(fresh, n)
        assert bc_upper_estimate(model, m, n) == bc_upper_estimate(fresh, m, n)
    assert calls == [(1, 6), (3, 6), (1, 9)]
    assert bc_upper_estimate(model, 3, 9) == bc_upper_estimate(fresh, 3, 9)
    assert bc_upper_estimate(model, 3, 6) == bc_upper_estimate(fresh, 3, 6)
    assert calls == [(1, 6), (3, 6), (1, 9), (3, 9), (3, 6)]

    class Frozen:  # a model that takes no new attributes is still served
        __slots__ = ()
        horizon = None

        def window_moments(self, m, n):
            return IndependentSequence(Fraction(1, 3)).window_moments(m, n)

    assert bc_lower_estimate(Frozen(), 4) == bc_lower_estimate(
        IndependentSequence(Fraction(1, 3)), 4
    )


def test_each_row_is_scaled_once_per_horizon(monkeypatch):
    # the lower and upper estimates of one horizon share the scaled rows of
    # the window 1..n; another window m..n scales its own rows once
    scaled = []
    monkeypatch.setattr(bc_module, "_scaled", lambda row: scaled.append(row) or _scaled(row))
    model = IndependentSequence(lambda k: Fraction(1, k + 1))  # every row distinct
    for n in (5, 8):
        for _ in range(2):
            bc_lower_estimate(model, n)
            bc_upper_estimate(model, 1, n)
            bc_upper_estimate(model, 3, n)
            kochen_stone_ratio(model, n)
    assert len(scaled) == (5 + 3) + (8 + 6)


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
            prefix = system.prefix(n)
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
    rows = expand_runs(model.window_moments(2, 3))
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExplicitSequence(build_system(["1/2", "1/2"], [[0], [1], [0, 1], [1]])),
        lambda: IndependentSequence(Fraction(1, 3), horizon=4),
        lambda: IndependentSequence([Fraction(1, 3)] * 4),
        lambda: IdenticalSequence(Fraction(1, 3), horizon=4),
    ],
    ids=["explicit", "independent-constant", "independent-listed", "identical"],
)
def test_window_moments_reject_indices_outside_the_horizon(make):
    model = make()
    assert model.horizon == 4
    for m, n, first in ((0, 3, 0), (2, 9, 5), (6, 9, 6), (-2, 1, -2)):
        with pytest.raises(ValueError, match=f"event index {first} outside"):
            model.window_moments(m, n)
    assert model.window_moments(3, 2) == []
    assert sum(count for _, count in model.window_moments(1, 4)) == 4


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: IndependentSequence(Fraction(1, 3)),
        lambda: IndependentSequence([Fraction(1, 3)] * 4),
        lambda: IndependentSequence(lambda k: Fraction(1, k + 1)),
        lambda: IdenticalSequence(Fraction(1, 3)),
        lambda: ExplicitSequence(build_system(["1/2", "1/2"], [[0], [1], [0, 1], [1]])),
    ],
    ids=["independent-constant", "independent-listed", "independent-callable",
         "identical", "explicit"],
)
def test_indices_must_be_ints(make):
    # n = 2.5 gave a float estimate of an exact model, n = True a record with
    # n = True, and sequence models a bare TypeError from range
    model = make()
    for index in (True, 2.0, 2.5, Fraction(2), float("nan"), float("inf"), "3"):
        calls = [
            lambda: bc_lower_estimate(model, index),
            lambda: bc_upper_estimate(model, 1, index),
            lambda: bc_upper_estimate(model, index, 3),
            lambda: kochen_stone_ratio(model, index),
            lambda: model.window_moments(index, 3),
            lambda: model.window_moments(1, index),
        ]
        if isinstance(model, IndependentSequence):
            calls.append(lambda: model.probability(index))
        for call in calls:
            with pytest.raises(ValueError, match="must be an int"):
                call()


def test_runs_must_cover_the_window():
    # the runs' counts add up to the window's width: an empty window would
    # reach the shared sums with no leaf
    class Short:
        horizon = None

        def window_moments(self, m, n):
            return [((Fraction(1, 2), Fraction(1), Fraction(2)), 1)] * (n - m)

        alpha_moments = bc_module._alpha_moments

    for call in (
        lambda: bc_lower_estimate(Short(), 1),
        lambda: bc_upper_estimate(Short(), 2, 4),
        lambda: kochen_stone_ratio(Short(), 3),
    ):
        with pytest.raises(ValueError, match="must cover"):
            call()


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


def test_bool_probabilities_are_rejected():
    # Fraction(True) is 1: a bool would read as a certain or impossible event
    for make in (
        lambda: IndependentSequence(True),
        lambda: IndependentSequence([True, Fraction(1, 2)]),
        lambda: IdenticalSequence(False),
        lambda: bc_lower_estimate(IndependentSequence(lambda k: k > 1), 2),
    ):
        with pytest.raises(ValueError, match="not (True|False)"):
            make()


# The run-length path against the per-k oracles in conftest.


def repeated_values(rng, count, choices):
    """count values drawn from choices in runs of 1..4, so equal values
    appear both next to each other and apart."""
    values = []
    while len(values) < count:
        values.extend([rng.choice(choices)] * rng.randint(1, 4))
    return values[:count]


def oracle_rows(kind, source, m, n):
    """The per-k rows of the window m..n, one k at a time."""
    if kind == "independent":
        return naive_independent_rows([source(k) for k in range(m, n + 1)])
    if kind == "identical":
        w = n - m + 1
        return [(source, w * source, w * w * source)] * w
    window = EventSystem(source.weights, source.events[m - 1 : n])
    return [
        tuple(naive_per_event_moment(window, k, j, 1, 1) for j in (1, 2, 3))
        for k in range(window.n_events)
    ]


def oracle_alpha(kind, source, n):
    """(E X, E X**2) for X counting A_1..A_n, by the model's closed form."""
    if kind == "independent":
        return naive_independent_alpha([source(k) for k in range(1, n + 1)])
    if kind == "identical":
        return naive_identical_alpha(source, n)
    return naive_explicit_alpha(source, n)


def one_based(values):
    return lambda k: values[k - 1]


def exact_cases(rng):
    cases = []
    for _ in range(12):
        values = repeated_values(
            rng, rng.randint(1, 30), [Fraction(rng.randint(0, 5), 5) for _ in range(3)]
        )
        cases.append(("independent", one_based(values), IndependentSequence(values)))
    constant = Fraction(2, 7)
    cases.append(("independent", lambda k: constant, IndependentSequence(constant)))
    ratio = Fraction(4, 5)
    cases.append(
        ("independent", lambda k: ratio**k, IndependentSequence(lambda k: ratio**k))
    )
    cases.append(("identical", Fraction(3, 8), IdenticalSequence(Fraction(3, 8))))
    for system in sample_systems(6, seed=149, max_events=8):
        cases.append(("explicit", system, ExplicitSequence(system)))
    return cases


def test_estimators_equal_per_k_oracle_exactly():
    rng = random.Random(139)
    for kind, source, model in exact_cases(rng):
        top = model.horizon or 30
        for n in sorted(rng.sample(range(1, top + 1), min(top, 5))):
            m = rng.randint(1, n)
            runs = model.window_moments(m, n)
            assert sum(count for _, count in runs) == n - m + 1
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # maximal
            assert expand_runs(runs) == oracle_rows(kind, source, m, n)
            lower = bc_lower_estimate(model, n)
            value, condition = naive_bc_lower(oracle_rows(kind, source, 1, n), n)
            assert (lower.value, lower.condition_value) == (value, condition)
            upper = bc_upper_estimate(model, m, n)
            value, window, condition = naive_bc_upper(oracle_rows(kind, source, m, n))
            assert (upper.value, upper.window_bound) == (value, window)
            assert upper.condition_value == condition
            alpha1, alpha2 = oracle_alpha(kind, source, n)
            assert model.alpha_moments(n) == (alpha1, alpha2)
            if alpha1:
                assert kochen_stone_ratio(model, n) == alpha2 / (alpha1 * alpha1)


def assert_same(actual, expected):
    """Equal in value and in type: exact rows must give exact estimates."""
    assert (type(actual), actual) == (type(expected), expected)


def assert_matches_oracle(model, m, n, rows, window_rows):
    """Every field of both estimators against the per-k oracles: rows are
    the exact per-k rows of the window 1..n, window_rows those of m..n."""
    lower = bc_lower_estimate(model, n)
    value, condition = naive_bc_lower(rows, n)
    assert_same(lower.value, value)
    assert_same(lower.window_bound, value)
    assert_same(lower.condition_value, condition)
    upper = bc_upper_estimate(model, m, n)
    value, window, condition = naive_bc_upper(window_rows)
    assert_same(upper.value, value)
    assert_same(upper.window_bound, window)
    assert_same(upper.condition_value, condition)


class IntRowModel:
    """A custom model whose rows (p, e1, e2) are plain ints, one per k."""

    horizon = None

    def __init__(self, rows):
        self.rows = rows

    def window_moments(self, m, n):
        return [(self.rows[(k - 1) % len(self.rows)], 1) for k in range(m, n + 1)]


@pytest.mark.parametrize(
    "probabilities",
    [
        [Fraction(0)] * 4,  # E2 = MX = DEN = 0 on every row
        [Fraction(1)] * 5,  # MX = 0 on every row
        [Fraction(1)],  # MX = DEN = 0
        [0, 1, Fraction(1, 2), 0, 0, 1, Fraction(2, 7), 0],
        # unrelated denominators: a row's t1 over d1 and t2 over d2 meet over
        # lcm(d1**2, d2), where neither of d1**2 and d2 need divide the other
        pytest.param(
            [Fraction(k % 7 + 1, 3 * k + 2) for k in range(1, 31)], id="k%7+1_over_3k+2"
        ),
        pytest.param(
            [Fraction(1, q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 1)] + [0],
            id="prime_denominators",
        ),
        # squares that cancel: on the row 1/2, d1 = 6 while den S2 = 12, so
        # d2 = 12 and lcm(d1, d2) falls short of lcm(d1**2, d2) = 36
        pytest.param(
            [Fraction(k, 6) for k in (2, 2, 4, 3, 0, 6)], id="d1_squared_not_in_d2"
        ),
        # and the reverse: on the row 1/3, d1 = 3 and d2 = 81
        pytest.param(
            [Fraction(k, 9) for k in (3, 1, 5, 9, 0)], id="d2_not_in_d1_squared"
        ),
    ],
)
def test_integer_rows_at_zero_and_certain_events(probabilities):
    n = len(probabilities)
    models = [IndependentSequence(probabilities)]
    if len(set(probabilities)) == 1:  # and as a constant, one run per window
        models.append(IndependentSequence(probabilities[0]))
    rows = naive_independent_rows(probabilities)
    for model in models:
        for m in sorted({1, min(2, n), max(1, n // 2), n}):
            window_rows = naive_independent_rows(probabilities[m - 1 :])
            window = expand_runs(model.window_moments(m, n))
            assert window == window_rows
            assert all(type(x) is Fraction for row in window for x in row)
            assert_matches_oracle(model, m, n, rows, window_rows)


def test_integer_rows_on_geometric_windows():
    ratio = Fraction(9, 10)
    model = IndependentSequence(lambda k: ratio**k)
    for n in (2, 7, 20, 41, 60):
        rows = naive_independent_rows([ratio**k for k in range(1, n + 1)])
        for m in sorted(m for m in {2, 5, n // 2, n} if m <= n):
            window_rows = naive_independent_rows([ratio**k for k in range(m, n + 1)])
            window = expand_runs(model.window_moments(m, n))
            assert window == window_rows
            assert all(type(x) is Fraction for row in window for x in row)
            assert_matches_oracle(model, m, n, rows, window_rows)


def test_identical_zero_probability_is_exactly_zero():
    model = IdenticalSequence(0)
    for n in (1, 2, 9):
        m = min(2, n)
        zero = (Fraction(0),) * 3
        assert_matches_oracle(model, m, n, [zero] * n, [zero] * (n - m + 1))
        assert_same(bc_lower_estimate(model, n).value, Fraction(0))


def test_int_rows_give_exact_estimates():
    # int / int is a float, so the oracle reads the rows as Fractions
    rows = [(0, 0, 0), (1, 3, 9), (1, 2, 4), (0, 1, 1), (1, 1, 1)]
    model = IntRowModel(rows)
    for n in (1, 4, 5, 12):
        exact = [tuple(map(Fraction, rows[k % len(rows)])) for k in range(n)]
        for m in sorted({1, min(2, n), n}):
            assert_matches_oracle(model, m, n, exact, exact[m - 1 :])


def test_sums_join_equal_halves(monkeypatch):
    # Each item is tagged (term count, depth) through a wrapped _halving, so
    # every addition that _sums and _total make records its two sides.
    halving, merges, depths = bc_module._halving, [], []

    def tagged(items, add=operator.add):
        def join(left, right):
            merges.append((left[0], right[0]))
            return left[0] + right[0], max(left[1], right[1]) + 1, add(left[2], right[2])

        _, depth, total = halving([(1, 0, item) for item in items], join)
        depths.append(depth)
        return total

    monkeypatch.setattr(bc_module, "_halving", tagged)
    for length in range(1, 201):
        leaves = [(k + 2, k, 1) for k in range(length)]
        runs = [(Fraction(1, k + 2), 1) for k in range(length)]
        for total in (lambda: bc_module._sums(leaves), lambda: bc_module._total(runs)):
            merges.clear()
            depths.clear()
            total()
            assert len(merges) == length - 1
            assert all(abs(left - right) <= 1 for left, right in merges), length
            assert depths == [(length - 1).bit_length()]  # ceil(log2(length))


def test_totals_of_exact_runs_and_of_none():
    for length in (1, 2, 3, 75, 150):
        terms = [Fraction(k % 7 + 1, 3 * k + 2) for k in range(1, length + 1)]
        runs = [(term, 1 + k % 3) for k, term in enumerate(terms)]
        expected = sum(term * count for term, count in runs)
        assert_same(bc_module._total(runs), Fraction(expected))
    assert_same(bc_module._total([(1, 2), (0, 1)]), Fraction(2))
    assert_same(bc_module._total([]), 0.0)  # only windows holding a float sum here


BIG_PRIME = 2**127 - 1


def seeded_leaves(rng, places):
    """Leaves (q, x, ...) of one of several shapes, by the draw."""
    shape = rng.choice(("small", "prime", "powers", "repeated", "zeros"))
    leaves = []
    for _ in range(rng.randint(1, 40)):
        q = rng.randint(1, 10**6)
        xs = [rng.randint(0, 10**6) for _ in range(places)]
        if shape == "prime":  # a large prime shared by many q and x
            q *= BIG_PRIME ** rng.randint(0, 2)
            xs = [x * BIG_PRIME ** rng.randint(0, 1) for x in xs]
        elif shape == "powers":  # high powers of 2 and 5, as in (9/10)**k
            q = 2 ** rng.randint(0, 300) * 5 ** rng.randint(0, 300)
            xs = [x * 2 ** rng.randint(0, 200) for x in xs]
        elif shape == "zeros":
            xs = [x * rng.randint(0, 1) for x in xs]
        count = rng.randint(1, 7)  # a run's count scales its numerators
        leaves.append((q, *[count * x for x in xs]))
        if shape == "repeated":
            leaves.append(leaves[-1])
    return leaves


def fraction_sums(leaves):
    """Per numerator place, sum() of the leaves' Fraction(x, q)."""
    return [
        sum((Fraction(leaf[j], leaf[0]) for leaf in leaves), Fraction(0))
        for j in range(1, len(leaves[0]))
    ]


def test_sums_equal_fraction_sums_in_lowest_terms():
    rng = random.Random(2903)
    cases = [seeded_leaves(rng, places) for places in (1, 2) for _ in range(150)]
    cases += [
        [(6, 1), (6, 1)],  # 2/6: only the merge's gcd finds the 2
        [(4, 1, 3), (4, 1, 1), (4, 2, 0)],  # 4/4 twice: the merges' g = 4
        [(3, 0), (5, 0)],  # a sum of zeros
        [(7, 2, 1), (35, -10, 0), (1, 0, 5)],  # a sum that cancels to 0
        [(BIG_PRIME**2, BIG_PRIME, 1), (BIG_PRIME**2, BIG_PRIME * (BIG_PRIME - 1), 2)],
    ]
    negated = [[(q, *[-x for x in xs]) for q, *xs in leaves] for leaves in cases[:20]]
    cases += [leaves + flipped for leaves, flipped in zip(cases, negated)]  # sums 0
    for leaves in cases:
        expected = fraction_sums(leaves)
        sums = bc_module._sums(list(leaves))
        assert [(type(x), x) for x in sums] == [(Fraction, x) for x in expected]
        for x in sums:  # Fraction.__eq__ compares the fields: check them too
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    assert bc_module._sums([(3, 0), (5, 0)])[0].denominator == 1


# (value, condition_value) of bc_lower_estimate, then (value, window_bound,
# condition_value) of bc_upper_estimate at m = 1, for p_k = (9/10)**k: the
# first 16 hex digits of the sha256 of each numerator's and denominator's
# signed big-endian bytes (str() stops at 4300 digits).
GEOMETRIC_DIGESTS = {
    75: ("f51fd75e70f43d11", "352e41b16c2f4b83", "7c16f9fa281ee571",
         "68aa167002d86d1a", "09e96a7a91e9c945"),
    150: ("8fb43fecaccedb5d", "22e1aad6f09b0fdd", "bda3cad3590b3ceb",
          "9463e90b3497f45c", "a73fb1e6a16169df"),
}


def fraction_digest(x):
    digest = hashlib.sha256()
    for v in (x.numerator, x.denominator):
        digest.update(v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True))
    return digest.hexdigest()[:16]


def test_geometric_exact_estimates_are_pinned(monkeypatch):
    reduced, reductions = bc_module._reduced, []

    def recorded(a, q, support):
        reductions.append((q.bit_length(), support.bit_length()))
        return reduced(a, q, support)

    monkeypatch.setattr(bc_module, "_reduced", recorded)
    model = IndependentSequence(lambda k: Fraction(9, 10) ** k)
    for n, digests in GEOMETRIC_DIGESTS.items():
        reductions.clear()
        lower, upper = bc_lower_estimate(model, n), bc_upper_estimate(model, 1, n)
        fields = (lower.value, lower.condition_value, upper.value,
                  upper.window_bound, upper.condition_value)
        assert tuple(map(fraction_digest, fields)) == digests
        assert len(reductions) == 5
        # the sums are reduced by gcds with a support of ~1k bits, not ~147k
        for q_bits, support_bits in reductions:
            assert q_bits > 6 * n * n and support_bits < 1500, (n, q_bits)


def test_float_upper_values_are_not_negative():
    # 0.1 - 0.1 * 0.1 / 0.1 rounded to -1.39e-17; the exact value is 0
    upper = bc_upper_estimate(IndependentSequence(0.1), 1, 1)
    assert_same(upper.value, 0.0)
    # Every window m..n of 300 seeded float sequences of 1 to 12 events: the
    # form p - E1**2 / E2 gave 77 negative values of 9100, all at m = n.
    windows = 0
    for seed in range(300):
        rng = random.Random(seed)
        model = IndependentSequence([rng.random() for _ in range(1 + seed % 12)])
        for n in range(1, model.horizon + 1):
            for m in range(1, n + 1):
                assert bc_upper_estimate(model, m, n).value >= 0, (seed, m, n)
                windows += 1
    assert windows == 9100


FLOAT_MODELS = (
    IndependentSequence(0.1),
    IndependentSequence([0.3, 0.0, 0.2]),
    IndependentSequence(lambda k: 0.9**k),
    IdenticalSequence(0.25),
    IdenticalSequence(0.0),
    IdenticalSequence(1.0),
)


@pytest.mark.parametrize("model", FLOAT_MODELS)
def test_float_models_give_float_fields(model):
    # an empty sum over float rows used to be Fraction(0)
    for n in (1, 2, 3):
        for m in range(1, n + 1):
            for estimate in (bc_lower_estimate(model, n), bc_upper_estimate(model, m, n)):
                for name in ("value", "window_bound", "condition_value"):
                    assert type(getattr(estimate, name)) is float, (n, m, name)


def assert_close(actual, expected):
    assert isinstance(actual, float)
    assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0)


def test_float_estimators_agree_with_per_k_oracle():
    rng = random.Random(151)
    values = repeated_values(rng, 3000, [rng.random() for _ in range(40)])
    models = (
        (IndependentSequence(values), one_based(values)),
        (IndependentSequence(lambda k: 0.97**k), lambda k: 0.97**k),
        (IndependentSequence(0.3), lambda k: 0.3),
    )
    for model, source in models:
        for m, n in ((1, 3000), (2996, 3000), (1500, 2200)):
            rows = naive_independent_rows([source(k) for k in range(m, n + 1)])
            upper = bc_upper_estimate(model, m, n)
            value, window, condition = naive_bc_upper(rows)
            assert_close(upper.value, value)
            assert_close(upper.window_bound, window)
            assert_close(upper.condition_value, condition)
        rows = naive_independent_rows([source(k) for k in range(1, 3001)])
        lower = bc_lower_estimate(model, 3000)
        value, condition = naive_bc_lower(rows, 3000)
        assert_close(lower.value, value)
        assert_close(lower.condition_value, condition)


class MixedRowModel:
    """A custom model whose window rows are those of independent events with
    p_k = 1/(k + 1), every second one as floats, the first one exact."""

    horizon = None

    def window_moments(self, m, n):
        rows = naive_independent_rows([Fraction(1, k + 1) for k in range(m, n + 1)])
        return [
            (tuple(map(float, row)) if i % 2 else row, 1) for i, row in enumerate(rows)
        ]


def test_mixed_exact_and_float_rows_give_float_fields():
    # a window whose first leaf is exact must still see its float leaves
    model = MixedRowModel()
    for n in (2, 3, 6):
        lower = bc_lower_estimate(model, n)
        value, condition = naive_bc_lower(expand_runs(model.window_moments(1, n)), n)
        assert_close(lower.value, value)
        assert_close(lower.window_bound, value)
        assert_close(lower.condition_value, condition)
        for m in sorted({1, n - 1}):
            upper = bc_upper_estimate(model, m, n)
            rows = expand_runs(model.window_moments(m, n))
            value, window, condition = naive_bc_upper(rows)
            assert_close(upper.value, value)
            assert_close(upper.window_bound, window)
            assert_close(upper.condition_value, condition)


def test_late_float_window_reads_a_direct_sum():
    # A prefix difference of large float sums would cancel to noise here.
    values = [0.5] * 2000 + [1e-9, 2e-9]
    model = IndependentSequence(values)
    bc_lower_estimate(model, len(values))  # fills the running sums
    rows = expand_runs(model.window_moments(2001, 2002))
    assert rows == naive_independent_rows(values[2000:])


def test_grid_evaluates_each_probability_once():
    calls = []

    def probability(k):
        calls.append(k)
        return Fraction(1, 2 + k % 5)

    model = IndependentSequence(probability)
    for n in (10, 100, 300, 1000):
        bc_lower_estimate(model, n)
        bc_upper_estimate(model, 1, n)
        bc_upper_estimate(model, max(1, n - 7), n)
        kochen_stone_ratio(model, n)
    assert sorted(calls) == list(range(1, 1001))


def test_window_reads_only_its_own_probabilities():
    # p_1 = 2 is invalid, but a window from m = 2 never evaluates it
    model = IndependentSequence(lambda k: Fraction(2, k))
    assert bc_upper_estimate(model, 2, 6).n == 6
    assert expand_runs(model.window_moments(3, 4)) == naive_independent_rows(
        [Fraction(2, 3), Fraction(1, 2)]
    )
    with pytest.raises(ValueError):
        bc_lower_estimate(model, 3)


def test_constant_probability_is_one_run():
    runs = IndependentSequence(Fraction(1, 3)).window_moments(1, 10**6)
    assert len(runs) == 1
    row, count = runs[0]
    assert count == 10**6
    p, t1, t2 = Fraction(1, 3), Fraction(10**6 - 1, 3), Fraction(10**6 - 1, 9)
    assert row == (p, p * (1 + t1), p * (1 + 3 * t1 + t1 * t1 - t2))
    assert IdenticalSequence(Fraction(1, 3)).window_moments(5, 9) == [
        ((Fraction(1, 3), Fraction(5, 3), Fraction(25, 3)), 5)
    ]


def test_explicit_row_makes_one_table_pass(monkeypatch):
    table = EventSystem.__dict__["joint_table"]
    passes = []
    build = table.func

    def counted(system):
        passes.append(system.n_events)
        return build(system)

    monkeypatch.setattr(table, "func", counted)
    model = ExplicitSequence(random_system(157, 6, 30, "dense"))
    horizons = list(range(1, model.horizon + 1))
    for n in horizons:
        bc_lower_estimate(model, n)
        bc_upper_estimate(model, 1, n)
        kochen_stone_ratio(model, n)
    assert passes == horizons
    for n in horizons:  # a row's systems are dropped with it, so a revisit rebuilds
        bc_lower_estimate(model, n)
        bc_upper_estimate(model, 1, n)
        kochen_stone_ratio(model, n)
    assert passes == horizons + horizons


def test_explicit_grid_holds_only_the_current_row(monkeypatch):
    table = EventSystem.__dict__["joint_table"]
    built = []
    build = table.func

    def tracked(system):
        built.append(weakref.ref(system))
        return build(system)

    monkeypatch.setattr(table, "func", tracked)
    model = ExplicitSequence(random_system(158, 40, 200, "dense"))
    for n in range(1, model.horizon + 1):
        bc_lower_estimate(model, n)
        bc_upper_estimate(model, max(1, n - 3), n)
        kochen_stone_ratio(model, n)
    assert len(built) == 40 + 36  # one per window: (1, n), and (n - 3, n) for n > 4
    gc.collect()
    assert [ref() for ref in built if ref() is not None] == []  # no subsystem kept
    row, windows = model._row_windows  # only the scaled runs of the latest horizon
    assert (row, sorted(windows)) == (40, [1, 37])
    for m, runs in windows.items():
        assert runs == [(r, _scaled(r), count) for r, count in model.window_moments(m, 40)]
