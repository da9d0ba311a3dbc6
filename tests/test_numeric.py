"""Unit tests for the low-level numeric helpers."""

import dataclasses
import math
from fractions import Fraction

import pytest

from unionbounds._general import solve_linear
from unionbounds._numeric import (
    all_exact,
    floor_root,
    integral_value,
    is_exact,
    rpow,
)


def test_is_exact_accepts_rationals_only():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert all_exact(1, Fraction(2), 3)
    assert not all_exact(1, 0.5)


def test_exactness_checks_read_subclasses_and_bools_as_before():
    # the type fast paths give the answers of isinstance(x, Rational)
    class Third(Fraction):
        pass

    class Wide(float):
        pass

    cases = [
        (3, True),
        (True, True),
        (Fraction(1, 3), True),
        (Third(1, 3), True),
        (0.5, False),
        (2.0, False),
        (Wide(0.5), False),
        (math.nan, False),
    ]
    for value, exact in cases:
        assert is_exact(value) is exact
        assert all_exact(Fraction(1), value, 2) is exact
    assert all_exact() is True
    for value, integral in ((True, 1), (Third(6, 2), 3), (Wide(4.0), 4)):
        assert integral_value(value) == integral
        assert type(integral_value(value)) is int
    assert integral_value(Wide(0.5)) is None


def test_integral_value():
    assert integral_value(7) == 7
    assert integral_value(Fraction(6, 2)) == 3
    assert integral_value(4.0) == 4
    assert integral_value(2.5) is None
    assert integral_value(Fraction(1, 3)) is None


def test_rpow_exact_cases():
    assert rpow(Fraction(2, 3), 3) == Fraction(8, 27)
    assert rpow(2, 10) == 1024
    assert rpow(2, Fraction(3, 1)) == 8
    assert rpow(Fraction(2), -2) == Fraction(1, 4)
    assert rpow(5, 0) == 1


def test_rpow_float_cases():
    assert rpow(2, 0.5) == pytest.approx(math.sqrt(2))
    assert rpow(Fraction(1, 4), Fraction(1, 2)) == pytest.approx(0.5)
    assert isinstance(rpow(2, 0.5), float)


def test_floor_root_small_values():
    assert floor_root(Fraction(8), 3) == 2
    assert floor_root(Fraction(7), 3) == 1
    assert floor_root(Fraction(9), 2) == 3
    assert floor_root(Fraction(35), 2) == 5
    assert floor_root(Fraction(25, 4), 2) == 2  # sqrt(6.25) = 2.5
    assert floor_root(Fraction(0), 5) == 0


def test_floor_root_large_values_where_floats_round():
    big = 10**30
    assert floor_root(Fraction(big + 1), 2) == 10**15
    assert floor_root(Fraction(big - 1), 2) == 10**15 - 1


def test_floor_root_beyond_the_float_range():
    # ~1.3e400 does not fit a double; the root stays integer arithmetic
    big = 10**400
    assert floor_root(big + 7, 2) == 10**200
    assert floor_root(big - 1, 2) == 10**200 - 1
    root = floor_root(big + 7, 3)  # 10**133 * 10**(1/3)
    assert root**3 <= big + 7 < (root + 1) ** 3
    assert len(str(root)) == 134 and str(root).startswith("2154434690031883")
    cube = (10**134 + 3) ** 3
    assert floor_root(cube, 3) == 10**134 + 3
    assert floor_root(cube - 1, 3) == 10**134 + 2
    assert floor_root(Fraction(cube + 1, 7), 3) == floor_root(cube // 7, 3)
    for degree in (2, 3, 5, 7):
        root = floor_root(big, degree)
        assert root**degree <= big < (root + 1) ** degree


def test_floor_root_is_the_integer_part():
    import random

    rng = random.Random(5)
    for _ in range(300):
        value = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3))
        degree = rng.randint(1, 6)
        root = floor_root(value, degree)
        assert Fraction(root) ** degree <= value < Fraction(root + 1) ** degree


def test_solve_linear_exact():
    solution = solve_linear(
        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]],
        [Fraction(1), Fraction(2)],
    )
    assert solution == [Fraction(-1), Fraction(1)]
    assert all(isinstance(x, Fraction) for x in solution)


def test_solve_linear_float():
    solution = solve_linear([[2.0, 1.0], [1.0, 3.0]], [3.0, 5.0])
    assert solution[0] == pytest.approx(0.8)
    assert solution[1] == pytest.approx(1.4)


def test_solve_linear_needs_pivoting():
    solution = solve_linear([[0, 1], [1, 0]], [Fraction(2), Fraction(3)])
    assert solution == [Fraction(3), Fraction(2)]


def test_solve_linear_singular():
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [2, 4]], [1, 1])


def test_solve_linear_shape_errors():
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [3, 4]], [1])


def _record_cases():
    """(record, an equal record built apart, its repr) for each record class."""
    from unionbounds import (
        EventSystem,
        ExponentParams,
        IndependentSequence,
        MomentVector,
        bc_upper_estimate,
        build_system,
        compare_bounds,
        general_bound,
        occupancy_profile,
        per_event_moments,
    )

    system = build_system(["1/2", "1/4", "1/4"], [[0, 1], [1, 2]])
    twin = EventSystem(system.weights, system.events)
    report, twin_report = (compare_bounds(s, include=["de_caen", "kat"]) for s in (system, twin))
    de_caen = (
        "BoundEntry(name='de_caen', kind='lower', value=Fraction(43, 48), "
        "clamped=Fraction(43, 48), arithmetic='rational', passed=True, error=None)"
    )
    estimate, twin_estimate = (
        bc_upper_estimate(IndependentSequence(Fraction(1, 3)), 2, 3) for _ in range(2)
    )
    params = ExponentParams(Fraction(3, 2), 1, 3.0, 4)
    moments = (1, Fraction(3, 2), 2.5)
    window = (((1, 1, 1), (1, 2, 3)), (1, Fraction(3, 2)), (1, 2), "lower")
    return {
        "ExponentParams": (
            params,
            ExponentParams(Fraction(3, 2), 1, 3, 4),
            "ExponentParams(a=Fraction(3, 2), rho=1, ell=3, n_support=4)",
        ),
        "MomentVector": (
            MomentVector(moments, params),
            MomentVector(moments, ExponentParams(Fraction(3, 2), 1, 3, 4)),
            "MomentVector(sbar=(Fraction(1, 1), Fraction(3, 2), 2.5), "
            "params=ExponentParams(a=Fraction(3, 2), rho=1, ell=3, n_support=4))",
        ),
        "EventSystem": (
            system,
            twin,
            "EventSystem(weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), "
            "events=((0, 1), (1, 2)))",
        ),
        "OccupancyProfile": (
            occupancy_profile(system),
            occupancy_profile(twin),
            "OccupancyProfile(p=(Fraction(0, 1), Fraction(3, 4), Fraction(1, 4)))",
        ),
        "PerEventMoments": (
            per_event_moments(system, 2, 1, ell=2),
            per_event_moments(twin, 2, 1, ell=2),
            "PerEventMoments(a=2, rho=1, n_events=2, _sums=((4, 3), (6, 5)), "
            "_denominator=4)",
        ),
        "GeneralBoundOutcome": (
            general_bound(*window),
            general_bound(*window),
            "GeneralBoundOutcome(bound_value=Fraction(1, 1), direction='lower', "
            "indices=(1, 2), coefficients=(Fraction(1, 1), Fraction(0, 1)), "
            "sign_certificate=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
            "solution={1: Fraction(1, 2), 2: Fraction(1, 2)})",
        ),
        "BoundEntry": (report.entries[0], twin_report.entries[0], de_caen),
        "BoundReport": (
            report,
            twin_report,
            f"BoundReport(exact=Fraction(1, 1), a=1, rho=1, entries=({de_caen}, "
            "BoundEntry(name='kat', kind='lower', value=Fraction(1, 1), "
            "clamped=Fraction(1, 1), arithmetic='rational', passed=True, error=None)))",
        ),
        "BCEstimate": (
            estimate,
            twin_estimate,
            "BCEstimate(n=3, m=2, value=Fraction(2, 27), window_bound=Fraction(5, 9), "
            "condition_value=Fraction(4, 3))",
        ),
    }


@pytest.mark.parametrize("name", list(_record_cases()))
def test_records_compare_hash_print_and_refuse_assignment(name):
    """The plain records keep what their frozen dataclasses gave: field-wise
    equality within one class, a hash of the field tuple, the same repr
    text, and no assignment or deletion."""
    record, twin, text = _record_cases()[name]
    assert type(record).__name__ == name
    assert repr(record) == repr(twin) == text
    assert record == twin and record is not twin and not record != twin
    fields = tuple(getattr(record, field) for field in record._fields)
    assert record != fields  # another class never compares equal
    if name == "GeneralBoundOutcome":  # its solution is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(fields)
    field = record._fields[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.new_name = 0
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    assert getattr(record, field) == getattr(twin, field)


@pytest.mark.parametrize("name", ["BoundEntry", "BoundReport", "BCEstimate"])
def test_report_records_keep_dataclass_fields_and_generate_no_method(name):
    """The report records stay dataclasses for dataclasses.replace, fields
    and asdict, while their methods are Record's and their own."""
    from unionbounds._numeric import Record

    record, twin, _ = _record_cases()[name]
    cls = type(record)
    assert dataclasses.is_dataclass(record)
    names = tuple(field.name for field in dataclasses.fields(record))
    assert names == record._fields  # in declaration order
    for method in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert getattr(cls, method) is getattr(Record, method)
    assert cls.__init__.__code__.co_filename.endswith(".py")  # not generated
    copy = dataclasses.replace(record)
    assert type(copy) is cls and copy == record and copy is not record
    for field in names:
        changed = dataclasses.replace(record, **{field: "other"})
        assert type(changed) is cls and changed != record
        assert [getattr(changed, n) for n in names] == [
            "other" if n == field else getattr(record, n) for n in names
        ]
    flat = {n: getattr(record, n) for n in names}
    if name == "BoundReport":
        flat["entries"] = tuple(map(dataclasses.asdict, record.entries))
    assert dataclasses.asdict(record) == dataclasses.asdict(twin) == flat


@pytest.mark.parametrize("name", list(_record_cases()))
def test_records_match_positional_class_patterns(name):
    """``case Record(x, y, ...)`` binds the fields in declaration order, as
    the frozen dataclasses' ``__match_args__`` did."""
    record, _, _ = _record_cases()[name]
    captures = ", ".join(f"v{i}" for i in range(len(record._fields)))
    namespace = {"record": record, "cls": type(record)}
    exec(f"match record:\n case cls({captures}):\n  bound = [{captures}]", namespace)
    assert namespace["bound"] == [getattr(record, field) for field in record._fields]


def test_report_records_dataclass_fields_are_as_declared():
    """The lazily built dataclass metadata lists the declared fields with
    their defaults, and leaves the docstrings as written."""
    from unionbounds.borel_cantelli import BCEstimate
    from unionbounds.unions import BoundEntry, BoundReport

    declared = {  # (first docstring line, field defaults)
        BoundEntry: ("One bound evaluation within a report.", {"error": None}),
        BoundReport: ("Bounds evaluated against the exact union probability.", {}),
        BCEstimate: ("A finite-horizon estimate over the window m..n.", {}),
    }
    for cls, (doc, defaults) in declared.items():
        fields = dataclasses.fields(cls)
        assert tuple(f.name for f in fields) == cls._fields == cls.__match_args__
        given = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        assert given == defaults
        assert all(f.default_factory is dataclasses.MISSING for f in fields)
        assert cls.__doc__.splitlines()[0] == doc
