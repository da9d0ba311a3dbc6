"""Tests for the union-bound layer: worked constants, identities between the
classic comparators and the moment bounds, and the report harness."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

import unionbounds.bounds as bounds_module
import unionbounds.unions as unions_module
from conftest import (
    moment_vector_row,
    naive_chung_erdos,
    naive_de_caen,
    naive_kat,
    naive_per_event_lower_three,
    naive_per_event_upper_three,
    naive_power_moment,
    profile_holder_moment,
    profile_moment_vector,
    sample_systems,
)
from unionbounds import (
    BOUND_NAMES,
    EventSystem,
    ExponentParams,
    MomentConsistencyError,
    MomentVector,
    PerEventMoments,
    build_system,
    compare_bounds,
    exact_union_probability,
    holder_lower_bound,
    holder_union_bound,
    lower_bound_two_moments,
    occupancy_moment_vector,
    per_event_moments,
    random_system,
    union_bound,
    upper_bound_three_moments,
)


def test_s2_worked_constants(s2):
    assert union_bound(s2, "chung_erdos") == Fraction(2, 3)
    assert union_bound(s2, "de_caen") == Fraction(2, 3)
    assert union_bound(s2, "kat") == Fraction(3, 4)
    assert union_bound(s2, "per_event_lower_two") == Fraction(3, 4)
    assert union_bound(s2, "per_event_lower_three") == Fraction(3, 4)
    assert union_bound(s2, "per_event_upper_three") == Fraction(3, 4)


def test_s3_worked_constants(s3):
    assert union_bound(s3, "chung_erdos") == Fraction(5, 6)
    assert union_bound(s3, "de_caen") == Fraction(67, 80)
    assert union_bound(s3, "kat") == Fraction(9, 10)  # sharp here
    assert union_bound(s3, "per_event_lower_three") == Fraction(1711, 1980)
    assert union_bound(s3, "per_event_upper_three") == Fraction(9, 10)


def test_s2_higher_exponents(s2):
    assert union_bound(s2, "per_event_lower_two", 2, 1) == Fraction(3, 4)
    exact = exact_union_probability(s2)
    assert union_bound(s2, "per_event_lower_three", 2, 1) <= exact
    assert union_bound(s2, "per_event_upper_three", 2, 1) >= exact


def test_kat_equals_per_event_two_moment_bound():
    for system in sample_systems(40, seed=101):
        assert union_bound(system, "per_event_lower_two") == naive_kat(system)
        assert union_bound(system, "kat") == naive_kat(system)


def test_classic_rows_equal_their_closed_forms():
    for system in sample_systems(40, seed=103):
        assert union_bound(system, "chung_erdos") == naive_chung_erdos(system)
        assert union_bound(system, "de_caen") == naive_de_caen(system)
        # fixed-exponent rows ignore the requested exponents
        assert union_bound(system, "de_caen", 2, 3) == naive_de_caen(system)


def test_kat_theta_zero_reduces_to_de_caen():
    # when s2 = c * s1 with integer c, both formulas give s1**2 / s2
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(2, 9)
        c = rng.randint(1, n)
        s1 = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        moments = MomentVector((s1, c * s1), ExponentParams(1, 1, 2, n))
        assert lower_bound_two_moments(moments) == s1 * s1 / (c * s1)


def test_dominance_kat_over_de_caen_over_nothing():
    for system in sample_systems(40, seed=107):
        assert union_bound(system, "kat") >= union_bound(system, "de_caen")
        assert union_bound(system, "kat") <= exact_union_probability(system)


def test_exact_classic_and_paper_rows_need_no_delta_and_no_rpow(monkeypatch):
    # at (1,1) the simplified rows (chung_erdos, de_caen and the paper's
    # three-moment form) are one integer fraction each on exact input
    def refuse(*args, **kwargs):
        raise AssertionError("called on an exact (1,1) row")

    monkeypatch.setattr(bounds_module, "_float_window", refuse)
    monkeypatch.setattr(bounds_module, "rpow", refuse)
    for system in sample_systems(40, seed=131):
        report = compare_bounds(system, 1, 1)
        assert all(e.passed and e.arithmetic == "rational" for e in report.entries)


def test_float_section_builds_no_delta_decomposition(monkeypatch):
    # each float window of the refined rows is picked by one call of the one
    # float window rule, and nothing else computes delta
    calls = {"_float_window": 0, "_window_bound": 0}
    for name in calls:

        def counted(*args, _name=name, _call=getattr(bounds_module, name)):
            if _name == "_float_window" or type(args[5]) is float:  # scale
                calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(bounds_module, name, counted)
    for system in sample_systems(20, seed=137):
        fresh = EventSystem(system.weights, system.events)
        report = compare_bounds(fresh, 1.5, 1.25)
        assert report.all_pass
        assert any(e.arithmetic == "float" for e in report.entries)
    assert calls["_float_window"] == calls["_window_bound"] > 0


@pytest.mark.parametrize("rho", [0.5, 1.25, 1.5, 2.5])
def test_kernel_float_window_is_the_decomposition_rule(monkeypatch, rho):
    # q/p = b**rho * (1 +- k ulp), inside and outside the 1e-9 snap band;
    # the documented rule: delta = (q/p)**(1/rho) within 1e-9 of an integer
    # is on that point, else b = floor(delta) and the window is on the point
    # b when its refined weight (q/p - b**rho) / ((b+1)**rho - b**rho) <= 0
    windows = []
    index_window = bounds_module._index_window

    def recorded(kind, ell, b, n, on_point=False):
        windows.append((b, on_point))
        return index_window(kind, ell, b, n, on_point)

    monkeypatch.setattr(bounds_module, "_index_window", recorded)
    ulp = 2.0**-52
    ratios = [b**rho * (1 + sign * k * ulp) for b in (2, 3, 7, 40) for sign in (1, -1)
              for k in (0, 1, 2, 16, 1000, 10**6, 10**8, 10**10)]
    if rho == 1.5:  # one ulp below 2**1.5 snaps onto the point 2
        ratios.append(math.nextafter(2**1.5, 0.0))
    expected = []
    for ratio in ratios:
        p = 0.375
        q = ratio * p
        bounds_module._window_bound("lower", 2, p, q, p, 1.0, 1.0, rho, 100)
        r = q / p
        delta = r ** (1.0 / rho)
        if abs(delta - round(delta)) < 1e-9:
            expected.append((round(delta), True))
            continue
        b = int(delta)
        w = (r - b**rho) / ((b + 1) ** rho - b**rho)
        expected.append((b, w <= 0))
    assert windows == expected
    assert {on_point for _, on_point in windows} == {True, False}
    if rho == 1.5:
        assert windows[-1] == (2, True)


def test_fraction_clamp_and_sandwich_equal_fraction_comparisons():
    zero, one = Fraction(0), Fraction(1)
    edges = [zero, one, Fraction(3, 7), Fraction(9, 7), Fraction(-1, 5),
             Fraction(3, 7) + Fraction(1, 10**30), Fraction(3, 7) - Fraction(1, 10**30)]
    # the report splits the exact value once, as (numerator, denominator, float)
    split = {e: (e.numerator, e.denominator, float(e)) for e in (zero, Fraction(3, 7), one)}
    for exact in (zero, Fraction(3, 7), one):
        for value in edges + [exact]:
            clamped = unions_module._clamp(value)
            assert clamped == min(max(value, zero), one)
            assert type(clamped) is Fraction
            if zero <= value <= one:
                assert clamped is value
            lower = unions_module._sandwich_ok("lower", value, split[exact])
            upper = unions_module._sandwich_ok("upper", value, split[exact])
            assert lower is (value <= exact) and upper is (value >= exact)
    for value in (-1, 0, 1, 2):  # ints take the same exact branch
        assert unions_module._clamp(value) == min(max(value, 0), 1)
        assert unions_module._sandwich_ok("lower", value, split[one]) is (value <= 1)
        assert unions_module._sandwich_ok("upper", value, split[zero]) is (value >= 0)
    slack = unions_module._FLOAT_SLACK  # floats pass within the relative slack
    for exact, pre in split.items():
        e = float(exact)
        for value, lower, upper in ((e, True, True), (e + 2 * slack, False, True),
                                    (e - 2 * slack, True, False), (e + slack / 2, True, True)):
            assert unions_module._sandwich_ok("lower", value, pre) is lower
            assert unions_module._sandwich_ok("upper", value, pre) is upper


def test_holder_union_bound_values(s2):
    assert holder_union_bound(s2, 2) == pytest.approx(2 / 3)
    assert holder_union_bound(s2, 3) == pytest.approx(0.6324555320336759)
    with pytest.raises(ValueError):
        holder_union_bound(s2, 1)


def test_holder_rejects_non_finite_p(s2):
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            holder_union_bound(s2, bad)
        with pytest.raises(ValueError, match="finite"):
            holder_lower_bound(Fraction(1), Fraction(3, 2), bad)


def test_occupancy_moments_equal_the_profile_loop_bit_for_bit():
    # the level sums of power_moments keep the order and arithmetic of a
    # running total over the occupancy profile, float exponents included
    pairs = (
        (1, 1), (2, 1), (3, 2), (Fraction(3, 2), Fraction(5, 4)), (1.5, 1.25), (0.7, 2.3)
    )
    for system in sample_systems(60, seed=127):
        for a, rho in pairs:
            got = occupancy_moment_vector(system, a, rho, 3).sbar
            want = profile_moment_vector(system, a, rho, 3)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
        for p in (2.5, 1.7, Fraction(7, 3)):
            want = holder_lower_bound(
                naive_power_moment(system, 1), profile_holder_moment(system, p), p
            )
            assert holder_union_bound(system, p) == want


def test_holder_never_beats_chung_erdos():
    for system in sample_systems(30, seed=109):
        ce = float(union_bound(system, "chung_erdos"))
        for p in (2.5, 3, 4):
            assert holder_union_bound(system, p) <= ce + 1e-12


def test_occupancy_moment_vector(s3):
    vector = occupancy_moment_vector(s3, 1, 1, 3)
    assert vector.sbar == (Fraction(3, 2), Fraction(27, 10), Fraction(51, 10))
    assert vector.params.n_support == 3
    with pytest.raises(ValueError):
        occupancy_moment_vector(build_system(["1"], []), 1, 1, 2)


def test_union_bounds_sandwich_random_systems():
    for system in sample_systems(40, seed=113):
        exact = exact_union_probability(system)
        assert union_bound(system, "per_event_lower_two") <= exact
        assert union_bound(system, "per_event_lower_three") <= exact
        assert union_bound(system, "per_event_upper_three") >= exact


def test_compare_bounds_report_structure(s2):
    report = compare_bounds(s2)
    assert report.exact == Fraction(3, 4)
    assert tuple(entry.name for entry in report.entries) == BOUND_NAMES
    assert report.all_pass
    assert report.a == 1 and report.rho == 1
    kat_entry = report.entry("kat")
    assert kat_entry.value == Fraction(3, 4)
    assert kat_entry.kind == "lower"
    assert kat_entry.arithmetic == "rational"
    assert kat_entry.error is None
    with pytest.raises(KeyError):
        report.entry("nonexistent")


def test_compare_bounds_clamps_into_unit_interval(s3):
    report = compare_bounds(s3)
    upper_two = report.entry("occupancy_upper_two")
    assert upper_two.value == Fraction(11, 10)
    assert upper_two.clamped == 1 and isinstance(upper_two.clamped, Fraction)
    assert upper_two.passed


def test_compare_bounds_clamps_floats_to_floats():
    system = random_system(3, 4, 30, "dense")
    upper_two = compare_bounds(system, 1.5, 1.25).entry("occupancy_upper_two")
    assert upper_two.value > 1
    assert upper_two.clamped == 1.0 and isinstance(upper_two.clamped, float)


def test_compare_bounds_include_filter(s2):
    report = compare_bounds(s2, include=["kat", "de_caen"])
    assert {entry.name for entry in report.entries} == {"kat", "de_caen"}
    with pytest.raises(ValueError):
        compare_bounds(s2, include=["kat", "bogus"])


@pytest.mark.parametrize("include", ["kat", ""])
def test_compare_bounds_include_is_no_string(s2, include):
    # a string is no list of names: "kat" is not split into letters, and ""
    # is no empty report that passes
    with pytest.raises(ValueError, match="list of bound names"):
        compare_bounds(s2, include=include)


def test_compare_bounds_float_exponents(s2):
    report = compare_bounds(s2, 1.5, 1.25)
    assert report.all_pass
    entry = report.entry("per_event_lower_two")
    assert entry.arithmetic == "float"
    assert entry.value <= float(report.exact) + 1e-9


def test_compare_bounds_survives_a_failing_bound(s2, monkeypatch):
    def boom(moments):
        raise MomentConsistencyError("synthetic failure")

    monkeypatch.setattr(unions_module, "lower_bound_two_moments_simple", boom)
    report = compare_bounds(s2)
    broken = report.entry("chung_erdos")
    assert not broken.passed
    assert broken.value is None
    assert broken.arithmetic == "none"
    assert "synthetic failure" in broken.error
    assert not report.all_pass
    # the other entries still evaluated
    assert report.entry("kat").passed


def test_compare_bounds_reports_arithmetic_errors():
    # the float per-event moments overflow at these exponents
    report = compare_bounds(random_system(0, 12, 40, "dense"), 300.5, 2.5)
    broken = report.entry("per_event_lower_two")
    assert broken.error.startswith("OverflowError")
    assert not broken.passed
    assert report.entry("kat").passed


def test_exact_rows_with_huge_denominators_stay_exact():
    # moment ratios whose numerators pass the float range: integral rho >= 2
    # used to take float roots and report OverflowError entries
    q = 3**700
    weights = [
        Fraction(q // 3, q + 2),
        Fraction(q // 9 + 1, q + 4),
        Fraction(q // 9, q + 10),
    ]
    weights.append(1 - sum(weights))
    system = build_system(weights, [[0, 3], [0, 1, 3], [2, 3]])
    for a, rho in ((1, 2), (2, 2), (1, 3)):
        report = compare_bounds(system, a, rho)
        assert [e.name for e in report.entries if e.error] == []
        assert all(e.arithmetic == "rational" and e.passed for e in report.entries)


def test_compare_bounds_lets_programming_errors_through(s2, monkeypatch):
    def boom(moments):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(unions_module, "lower_bound_two_moments", boom)
    with pytest.raises(TypeError, match="synthetic bug"):
        compare_bounds(s2)


def test_union_bound_rejects_unknown_names_and_empty_systems(s2):
    with pytest.raises(ValueError):
        union_bound(s2, "bogus")
    with pytest.raises(ValueError):
        union_bound(build_system(["1"], []), "kat")


def test_bool_exponents_are_rejected(s2):
    with pytest.raises(ValueError, match="bool"):
        compare_bounds(s2, True, 1)
    with pytest.raises(ValueError, match="bool"):
        compare_bounds(s2, 2, False)
    with pytest.raises(ValueError, match="bool"):
        union_bound(s2, "kat", True, 1)
    for args in ((True, 1, 2, 3), (1, True, 2, 3), (1, 1, 2, True)):
        with pytest.raises(ValueError, match="bool"):
            ExponentParams(*args)


def test_compare_bounds_requires_events():
    with pytest.raises(ValueError):
        compare_bounds(build_system(["1"], []))


def test_per_event_upper_three_equals_closed_form(s3):
    # at (1,1) both per-event three-moment rows are the paper's closed forms
    for system in [s3] + sample_systems(40, seed=131):
        lower = union_bound(system, "per_event_lower_three")
        assert lower == naive_per_event_lower_three(system)
        upper = union_bound(system, "per_event_upper_three")
        assert upper == naive_per_event_upper_three(system)


def _logged(monkeypatch, name: str) -> list:
    """Route the unions global ``name`` through a wrapper; the returned list
    gets the (a, rho) of each call's moment vector."""
    log: list = []
    bound = getattr(unions_module, name)

    def logged(moments, **kwargs):
        log.append((moments.params.a, moments.params.rho))
        return bound(moments, **kwargs)

    monkeypatch.setattr(unions_module, name, logged)
    return log


def _positive_rows(system: EventSystem) -> list:
    masses = per_event_moments(system).sbar[0]
    return [row for row, mass in zip(system.joint_table[2], masses) if mass]


def test_fixed_exponent_rows_run_once_per_system(monkeypatch):
    simple = _logged(monkeypatch, "lower_bound_two_moments_simple")
    refined = _logged(monkeypatch, "lower_bound_two_moments")
    system = random_system(21, 6, 40, "dense")
    rows = _positive_rows(system)
    assert len(set(rows)) == len(rows) == 6
    for a, rho in ((1, 1), (2, 1), (1.5, 1.25)):
        assert compare_bounds(system, a, rho).all_pass
    assert union_bound(system, "kat") == naive_kat(system)
    # chung_erdos once, de_caen once per event; only those rows run "simple"
    assert simple == [(1, 1)] * (1 + 6)
    # kat once per event, plus occupancy_lower_two in the (1, 1) report
    assert refined.count((1, 1)) == 6 + 1


def test_row_values_are_kept_per_object(monkeypatch):
    simple = _logged(monkeypatch, "lower_bound_two_moments_simple")
    system = random_system(22, 4, 30, "sparse")
    report = compare_bounds(system)
    once = len(simple)
    assert once > 0
    assert compare_bounds(system) == report
    assert union_bound(system, "de_caen") == report.entry("de_caen").value
    assert len(simple) == once
    copy = EventSystem(system.weights, system.events)  # equal, but a new object
    assert compare_bounds(copy) == report
    assert len(simple) == 2 * once


def test_float_checks_read_no_environment_variable(monkeypatch):
    # UNION_BOUNDS_TOL once set the float slack, and a bad value raised
    reports = []
    for value in (None, "1e-3", "bogus"):
        if value is None:
            monkeypatch.delenv("UNION_BOUNDS_TOL", raising=False)
        else:
            monkeypatch.setenv("UNION_BOUNDS_TOL", value)
        system = random_system(23, 5, 40, "dense")  # a new object: no kept rows
        reports.append(compare_bounds(system, 1.5, 1.25))
    assert reports[0].entry("per_event_lower_two").arithmetic == "float"
    assert reports[0].entries == reports[1].entries == reports[2].entries


def test_equal_joint_rows_share_one_bound_call(monkeypatch):
    # atom 0 weighs nothing, so event 0 has a non-empty row and zero mass;
    # events 1 and 2 are equal, events 3 and 4 differ but have equal rows
    system = build_system(
        ["0", "1/4", "1/4", "1/4", "1/8", "1/8"],
        [[0], [1, 4], [1, 4], [2], [3], [0, 5]],
    )
    rows = system.joint_table[2]
    assert rows[0] and rows[1] == rows[2] and rows[3] == rows[4]
    assert len(set(_positive_rows(system))) == 3
    refined = _logged(monkeypatch, "lower_bound_two_moments")
    simple = _logged(monkeypatch, "lower_bound_two_moments_simple")
    three = _logged(monkeypatch, "lower_bound_three_moments")
    assert union_bound(system, "kat") == naive_kat(system)
    assert union_bound(system, "de_caen") == naive_de_caen(system)
    assert union_bound(system, "per_event_lower_three") == naive_per_event_lower_three(
        system
    )
    assert union_bound(system, "per_event_upper_three") == naive_per_event_upper_three(
        system
    )
    assert refined == simple == three == [(1, 1)] * 3


def test_equal_moment_vectors_share_one_bound_call(monkeypatch):
    # events 0 and 2 hit levels 2 and 1 in opposite atom order, so their
    # joint rows differ as tuples but their moment vectors are equal
    system = build_system(["1/4"] * 4, [[0, 1], [0], [2, 3], [3]])
    rows = system.joint_table[2]
    assert rows[0] != rows[2] and sorted(rows[0]) == sorted(rows[2])
    assert rows[1] == rows[3] and len(set(rows)) == 3
    names = (
        "lower_bound_two_moments",
        "lower_bound_two_moments_simple",
        "lower_bound_three_moments",
        "upper_bound_three_moments",
    )
    calls = []
    for name in names:

        def logged(moments, name=name, bound=getattr(unions_module, name), **kwargs):
            # each vector arrives as integers over the table's denominator
            calls.append((name, moments.params.a, moments._values[-1]))
            return bound(moments, **kwargs)

        monkeypatch.setattr(unions_module, name, logged)
    for name in ("kat", "de_caen", "per_event_lower_three", "per_event_upper_three"):
        assert union_bound(system, name) == moment_vector_row(system, name, 1, 1)
    for a in (2, 2.0, Fraction(2)):  # integral exponents of any type
        copy = EventSystem(system.weights, system.events)  # no kept rows
        for name in ("per_event_lower_two", "per_event_upper_three"):
            expected = moment_vector_row(system, name, 2, 1)
            assert union_bound(copy, name, a, 1) == expected
    d = system.joint_table[0]
    expected = [(name, 1, d) for name in names for _ in range(2)]
    for a in (2, 2.0, Fraction(2)):
        expected += [(name, a, d) for name in (names[0], names[3]) for _ in range(2)]
    assert calls == expected


def _assert_matches_moment_vector_row(entry, system, a, rho):
    """The report entry has the value bits, type and error text of the same
    row on public, checked MomentVectors (conftest.moment_vector_row)."""
    try:
        expected = moment_vector_row(system, entry.name, a, rho)
    except (ValueError, ArithmeticError) as exc:
        assert entry.error == f"{type(exc).__name__}: {exc}", entry.name
        return
    assert entry.error is None, (entry.name, entry.error)
    assert type(entry.value) is type(expected), entry.name
    if isinstance(expected, float):
        assert entry.arithmetic == "float"
        assert entry.value.hex() == expected.hex(), entry.name
    else:
        assert entry.arithmetic == "rational" and entry.value == expected


# (1,1) rows run simplified closed forms, the others the integer kernels;
# 2.0 and Fraction(2) are integral exponents and take the integer rows too.
# The float sections reach the float kernels, and at (300.5, 2.5) most rows
# fail with the oracle's error text.
@pytest.mark.parametrize(
    "a, rho",
    [
        (1, 1),
        (2, 1),
        (1, 2),
        (3, 2),
        (2.0, 1),
        (Fraction(2), 1),
        (1.5, 1.25),
        (120.5, 1.5),
        (300.5, 2.5),
    ],
)
def test_integer_rows_equal_the_moment_vector_rows(a, rho):
    rng = random.Random(311)
    profiles = ("dense", "sparse", "disjoint-ish")
    for i in range(300):
        seed, n_events = rng.randrange(2**31), rng.randint(2, 10)
        system = random_system(seed, n_events, rng.randint(2, 60), profiles[i % 3])
        for entry in compare_bounds(system, a, rho).entries:
            _assert_matches_moment_vector_row(entry, system, a, rho)


def test_float_section_totals_are_event_order_sums():
    system = random_system(24, 60, 40, "sparse")
    rows = _positive_rows(system)
    assert len(set(rows)) < len(rows)  # shared rows, where a regrouped sum rounds apart
    small = random_system(37, 10, 30, "sparse")  # levels low enough for (300.5, 2.5)
    assert len(set(_positive_rows(small))) < len(_positive_rows(small))
    for a, rho in ((1.5, 1.25), (120.5, 1.5), (300.5, 2.5)):
        for s in (system, small):
            report = compare_bounds(EventSystem(s.weights, s.events), a, rho)
            for entry in report.entries:
                if entry.name.startswith(("per_event", "occupancy")):
                    _assert_matches_moment_vector_row(entry, s, a, rho)


def test_report_rows_decide_their_arithmetic_once(monkeypatch):
    system = random_system(29, 40, 120, "sparse")
    assert len(set(_positive_rows(system))) > 20  # many per-event bound calls
    occupancy = occupancy_moment_vector(system, 1.5, 1.25, 3)
    integral_calls, checked = [], []
    integral_value = bounds_module.integral_value
    check = MomentVector._check

    def counted_integral(x):
        integral_calls.append(x)
        return integral_value(x)

    def recorded_check(self):
        check(self)
        checked.append(self)

    monkeypatch.setattr(bounds_module, "integral_value", counted_integral)
    monkeypatch.setattr(MomentVector, "_check", recorded_check)
    for (a, rho), vectors in (((2, 1), []), ((1.5, 1.25), [occupancy])):
        integral_calls.clear()
        checked.clear()
        report = compare_bounds(EventSystem(system.weights, system.events), a, rho)
        assert report.all_pass
        row_keys = {unions_module._row_key(name, a, rho) for name in BOUND_NAMES}
        assert len(integral_calls) <= len(row_keys)
        assert checked == vectors  # only the public float occupancy vector


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_float_row_with_a_non_finite_moment_fails_its_entries(monkeypatch, bad):
    system = random_system(29, 40, 120, "sparse")
    per_event, power = unions_module.per_event_moments, unions_module.power_moments

    def patched_per_event(system, a, rho, ell=3):
        stat = per_event(system, a, rho, ell)
        if stat._denominator is not None:
            return stat
        s1, s2, s3 = map(list, stat._sums)
        s2[next(k for k, mass in enumerate(s1) if mass)] = bad
        return PerEventMoments(
            stat.a, stat.rho, stat.n_events, (tuple(s1), tuple(s2), tuple(s3)), None
        )

    monkeypatch.setattr(unions_module, "per_event_moments", patched_per_event)
    monkeypatch.setattr(
        unions_module, "power_moments", lambda s, k: bad if k == 4.0 else power(s, k)
    )
    report = compare_bounds(system, 1.5, 1.25)
    for entry in report.entries:
        if entry.name in ("chung_erdos", "de_caen", "kat"):  # exact (1,1) rows
            assert entry.passed
        else:
            assert not entry.passed and entry.value is None
            assert entry.error == "ValueError: moments must be finite"


def test_public_surface_resolves():
    import unionbounds

    missing = [name for name in unionbounds.__all__ if not hasattr(unionbounds, name)]
    assert missing == []
    namespace: dict = {}
    exec("from unionbounds import *", namespace)
    assert set(unionbounds.__all__) <= set(namespace)
