"""Tests for the scalar moment-bound layer.

The closed-form bounds are cross-checked against the certified general
engine on their own index windows, against brute-force moments of explicit
vectors, and against the paper's simplified three-moment forms, which the
refined bounds dominate (their closed forms are oracles in conftest).
"""

import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from conftest import (
    brute_force_moments,
    closed_form_lower_simple,
    closed_form_lower_two_simple_below_one,
    closed_form_lower_three,
    closed_form_lower_two,
    closed_form_upper_simple,
    closed_form_upper_three,
    closed_form_upper_two,
    exhaustive_index_search,
    holder_closed_form,
    power_feature_matrix,
)
from unionbounds import (
    CertificateError,
    ExponentParams,
    InfeasibleIndicesError,
    MomentConsistencyError,
    MomentVector,
    general_bound,
    lower_bound_three_moments,
    lower_bound_two_moments,
    lower_bound_two_moments_simple,
    per_event_moments,
    power_moments,
    random_system,
    upper_bound_three_moments,
    upper_bound_two_moments,
)
from unionbounds import bounds as bounds_module
from unionbounds._numeric import floor_root
from unionbounds.bounds import VARIANTS, _float_window, _index_window


def make_moments(sbar, a=1, rho=1, n=3):
    return MomentVector(tuple(sbar), ExponentParams(a, rho, len(sbar), n))


def random_vector(rng, n):
    return [Fraction(rng.randint(0, 8), rng.randint(1, 9)) for _ in range(n)]


# ------------------------------------------------------------- domain types


def test_exponent_params_validation():
    with pytest.raises(ValueError):
        ExponentParams(0, 1, 2, 3)
    with pytest.raises(ValueError):
        ExponentParams(1, 0, 2, 3)
    with pytest.raises(ValueError):
        ExponentParams(1, 1, 1, 3)
    with pytest.raises(ValueError):
        ExponentParams(1, 1, 2, 0)
    params = ExponentParams(2, 3, 3, 5)
    assert params.exponents == (2, 5, 8)
    assert params.is_integral
    assert not ExponentParams(1.5, 1, 2, 5).is_integral
    # ell and n_support count points: non-integral values name their field
    for bad in (Fraction(7, 2), 3.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_support must be an integer"):
            ExponentParams(1, 1, 2, bad)
    for bad in (2.5, Fraction(5, 2)):
        with pytest.raises(ValueError, match="ell must be an integer"):
            ExponentParams(1, 1, bad, 3)
    for name, args in (("ell", (1, 1, True, 3)), ("n_support", (1, 1, 2, True))):
        with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
            ExponentParams(*args)
    # integral values are stored as int, as build_system stores atom indices
    for whole in (3.0, Fraction(3)):
        params = ExponentParams(1, 1, whole, whole)
        assert (params.ell, params.n_support) == (3, 3)
        assert type(params.ell) is int and type(params.n_support) is int
    moments = MomentVector((Fraction(3, 2), Fraction(27, 10)), ExponentParams(1, 1, 2, 3.0))
    assert lower_bound_two_moments(moments) == Fraction(9, 10)


def test_moment_vector_validation():
    params = ExponentParams(1, 1, 2, 3)
    with pytest.raises(ValueError):
        MomentVector((1,), params)
    with pytest.raises(ValueError):
        MomentVector((1, -1), params)
    vector = MomentVector((Fraction(1), Fraction(2)), params)
    assert vector.exact
    assert not MomentVector((1.0, 2.0), params).exact


def test_exponent_params_reject_non_finite_exponents():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ExponentParams(bad, 1, 2, 3)
        with pytest.raises(ValueError, match="finite"):
            ExponentParams(1, bad, 2, 3)


def test_moment_vector_rejects_non_finite_moments():
    params = ExponentParams(1, 1, 2, 3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            MomentVector((0.5, bad), params)
        with pytest.raises(ValueError, match="finite"):
            MomentVector((bad, 1.0), params)


def test_moment_vector_from_vector_matches_brute_force():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 7)
        a, rho, ell = rng.randint(1, 3), rng.randint(1, 3), rng.choice((2, 3))
        values = random_vector(rng, n)
        moments = MomentVector.from_vector(values, ExponentParams(a, rho, ell, n))
        assert moments.sbar == brute_force_moments(values, a, rho, ell)


def test_moment_vector_from_vector_errors():
    params = ExponentParams(1, 1, 2, 3)
    with pytest.raises(ValueError):
        MomentVector.from_vector([1, 2], params)
    with pytest.raises(ValueError):
        MomentVector.from_vector([1, -2, 3], params)


def test_moment_vector_validate():
    good = make_moments([Fraction(3, 2), Fraction(27, 10), Fraction(51, 10)], n=3)
    assert good.validate() is good
    with pytest.raises(MomentConsistencyError):
        make_moments([1, 10], n=2).validate()  # s2 > n**rho * s1
    with pytest.raises(MomentConsistencyError):
        make_moments([1, Fraction(1, 2)], n=2).validate()  # s2 < s1


def test_moment_vector_validate_runs_the_bound_checks_in_full():
    # validate runs the bounds' cone checks, and at d1 = 0 the rest too:
    # (1, 3, 8) at n = 3 puts all mass at n by d1, yet d2 = 1; the lower
    # bound needs only the signs there
    moments = make_moments([1, 3, 8], n=3)
    with pytest.raises(MomentConsistencyError, match=re.escape("(1 > 0)")):
        moments.validate()
    assert lower_bound_three_moments(moments) == Fraction(1, 3)
    # every three consecutive moments are checked, here at ell = 4
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(1, 6)
        params = ExponentParams(rng.randint(1, 3), rng.randint(1, 2), 4, n)
        vector = random_vector(rng, n)
        for values in (vector, [float(v) for v in vector]):
            moments = MomentVector.from_vector(values, params)
            assert moments.validate() is moments
    # failures name the moments of their own window
    for values, ell, text in [
        # d2 = 0 < d1 = 1: only a vector all at n has d2 = 0, and then d1 = 0
        ((1, 2, 6), 3, "(n**rho*s2 - s3) >= (n**rho*s1 - s2) (0 < 1)"),
        # (3, 5, 9) are the moments of (1, 1, 0); (5, 9, 22) fail d2 >= d1
        ((3, 5, 9, 22), 4, "(n**rho*s3 - s4) >= (n**rho*s2 - s3) (5 < 6)"),
        ((1, 2, 4, 100), 4, "s4 <= n_support**rho * s3 (100 > 12)"),
    ]:
        bad = MomentVector(values, ExponentParams(1, 1, ell, 3))
        with pytest.raises(MomentConsistencyError, match=re.escape(text)):
            bad.validate()


# -------------------------------------------------------- two-moment bounds


def test_lower_two_worked_values():
    # occupancy moments of the reference three-event system
    assert lower_bound_two_moments(
        make_moments([Fraction(3, 2), Fraction(27, 10)])
    ) == Fraction(9, 10)
    # same system at a=2: moments (2.7, 5.1), terms 0.6 + 0.3
    assert lower_bound_two_moments(
        make_moments([Fraction(27, 10), Fraction(51, 10)], a=2)
    ) == Fraction(9, 10)


def test_two_moment_zero_guard_and_cone_errors():
    # both bounds run the same cone checks, exact and float alike; the upper
    # bound used to return -2, 7/6 and -1/3 on (1, 10), (1, 1/2) and (0, 1)
    cases = [
        ([0, 1], "s2 must vanish when s1 does", "1 > 0", "1.0 > 0.0"),
        ([1, Fraction(1, 2)], "s2 >= s1", "1/2 < 1", "0.5 < 1.0"),
        ([1, 4], "s2 <= n_support**rho * s1", "4 > 3", "4.0 > 3.0"),
        ([1, 10], "s2 <= n_support**rho * s1", "10 > 3", "10.0 > 3.0"),
    ]
    for bound in (lower_bound_two_moments, upper_bound_two_moments):
        assert bound(make_moments([0, 0], n=3)) == 0
        for sbar, label, exact, inexact in cases:
            for moments, detail in (
                (make_moments(sbar, n=3), exact),
                (make_moments([float(s) for s in sbar], n=3), inexact),
            ):
                with pytest.raises(
                    MomentConsistencyError, match=re.escape(f"{label} ({detail})")
                ):
                    bound(moments)


def test_lower_two_float_noise_is_clamped():
    value = lower_bound_two_moments(make_moments([1.0, 1.0 - 1e-12]))
    assert value == 1.0


def test_upper_two_worked_values():
    moments = make_moments([Fraction(3, 2), Fraction(27, 10)])
    assert upper_bound_two_moments(moments) == Fraction(11, 10)
    single = make_moments([Fraction(2, 3), Fraction(2, 3)], n=1)
    assert upper_bound_two_moments(single) == Fraction(2, 3)


def test_two_moment_bounds_sandwich_explicit_vectors():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(2, 8)
        a, rho = rng.randint(1, 2), rng.randint(1, 2)
        values = random_vector(rng, n)
        total = sum(values)
        moments = MomentVector.from_vector(values, ExponentParams(a, rho, 2, n))
        assert lower_bound_two_moments(moments) <= total
        assert upper_bound_two_moments(moments) >= total


def _outcome(fn, moments):
    """(type name, repr) of the value, or of the error and its text."""
    try:
        value = fn(moments)
    except MomentConsistencyError as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, repr(value)


def _assert_two_matches_closed_forms(moments):
    assert _outcome(lower_bound_two_moments, moments) == _outcome(
        closed_form_lower_two, moments
    )
    assert _outcome(upper_bound_two_moments, moments) == _outcome(
        closed_form_upper_two, moments
    )


def test_exact_two_moment_bounds_equal_the_closed_forms():
    # window masses in integers == the closed forms in Fractions, in value,
    # type and error text, on genuine and on arbitrary rational moments
    rng = random.Random(79)
    for trial in range(600):
        n = rng.randint(1, 12)
        a, rho = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        params = ExponentParams(a, rho, 2, n)
        if trial % 3:
            vector = [
                random_vector(rng, 1)[0] if rng.random() < 0.5 else Fraction(0)
                for _ in range(n)
            ]
            vector[rng.randrange(n)] += Fraction(1, rng.randint(1, 9))
            moments = MomentVector.from_vector(vector, params)
        else:
            sbar = [Fraction(rng.randint(0, 60), rng.randint(1, 12)) for _ in "12"]
            moments = MomentVector(tuple(sbar), params)
        _assert_two_matches_closed_forms(moments)


def test_exact_two_moment_window_edges():
    zero_text = "s2 must vanish when s1 does (1/3 > 0)"
    for a, rho in ((1, 1), (2, 1), (1, 2), (3, 2), (3, 3)):
        for n in (1, 2, 5):
            zero = make_moments([0, 0], a, rho, n)
            assert _outcome(lower_bound_two_moments, zero) == (
                "Fraction",
                "Fraction(0, 1)",
            )
            _assert_two_matches_closed_forms(zero)
            only_s2 = make_moments([0, Fraction(1, 3)], a, rho, n)
            with pytest.raises(MomentConsistencyError, match=re.escape(zero_text)):
                lower_bound_two_moments(only_s2)
            _assert_two_matches_closed_forms(only_s2)
            params = ExponentParams(a, rho, 2, n)
            for b in range(1, n + 1):
                # all mass at b, so s2 = b**rho * s1; b = n is the top index
                vector = [Fraction(0)] * n
                vector[b - 1] = Fraction(2, 7)
                moments = MomentVector.from_vector(vector, params)
                assert lower_bound_two_moments(moments) == Fraction(2, 7)
                _assert_two_matches_closed_forms(moments)
                if b < n:  # the window (b, b + 1) itself
                    vector[b] = Fraction(1, 5)
                    moments = MomentVector.from_vector(vector, params)
                    assert lower_bound_two_moments(moments) == Fraction(17, 35)
                    _assert_two_matches_closed_forms(moments)


@pytest.mark.parametrize(
    "sbar, message",
    [
        ([Fraction(2, 3), Fraction(1, 2)], "s2 >= s1 (1/2 < 2/3)"),
        ([Fraction(1, 4), Fraction(7, 2)], "s2 <= n_support**rho * s1 (7/2 > 3/4)"),
    ],
)
def test_exact_lower_two_error_texts(sbar, message):
    for bound in (lower_bound_two_moments, closed_form_lower_two):
        with pytest.raises(MomentConsistencyError, match=re.escape(message)):
            bound(make_moments(sbar, n=3))


@pytest.mark.parametrize(
    "sbar, a, rho, n, lower, upper",
    [
        ((1.5, 2.7), 1, 1, 3, 0.9, 1.0999999999999999),
        ((0.3, 0.71), 2, 2, 4, 0.1975, 0.274375),
        ((0.25, 2.0), 1, 3, 2, 0.125, 0.125),
        ((0.4, 1.6), 1, 2, 5, 0.2, 0.36000000000000004),
        ((0.0, 0.0), 1, 1, 3, 0.0, 0.0),
        ((0.9, 0.9), 3, 1, 1, 0.9, 0.9),
        (
            (Fraction(3, 2), Fraction(27, 10)),
            Fraction(3, 2),
            Fraction(5, 4),
            3,
            0.9372258248632497,
            1.1713070184158556,
        ),
        ((0.5, 1.3), 0.7, 2.3, 6, 0.4216368583260947, 0.4905686410124644),
        (
            (Fraction(1, 3), Fraction(2, 5)),
            1.5,
            0.5,
            4,
            0.22928932188134515,
            0.27499999999999997,
        ),
    ],
)
def test_float_two_moment_bounds_keep_the_closed_forms(sbar, a, rho, n, lower, upper):
    # float moments and non-integral exponents keep the closed forms, summed
    # as the window kernel's point masses: these are its doubles, bit for bit
    moments = MomentVector(sbar, ExponentParams(a, rho, 2, n))
    got_lower = lower_bound_two_moments(moments)
    got_upper = upper_bound_two_moments(moments)
    assert type(got_lower) is float and type(got_upper) is float
    assert (got_lower.hex(), got_upper.hex()) == (lower.hex(), upper.hex())


def test_exact_bounds_on_int_moments_are_rational():
    # int moments are exact, so no bound may return the float of an int / int
    # division; from_vector of a zero vector gives such moments
    moments = make_moments([1, 2])
    assert _outcome(lower_bound_two_moments, moments) == ("Fraction", "Fraction(1, 2)")
    assert _outcome(lower_bound_two_moments_simple, moments) == (
        "Fraction",
        "Fraction(1, 2)",
    )
    assert _outcome(upper_bound_two_moments, moments) == ("Fraction", "Fraction(2, 3)")
    for n in (1, 3):
        zero = make_moments([0, 0], n=n)
        for bound in (
            lower_bound_two_moments,
            lower_bound_two_moments_simple,
            upper_bound_two_moments,
        ):
            assert _outcome(bound, zero) == ("Fraction", "Fraction(0, 1)")
    moments = make_moments([2, 3, 5])
    for variant in VARIANTS:
        for bound in (lower_bound_three_moments, upper_bound_three_moments):
            assert type(bound(moments, variant)) is Fraction
    assert lower_bound_three_moments(moments, "rho_ge_1_simple") == Fraction(17, 12)
    assert upper_bound_three_moments(moments, "rho_ge_1_simple") == Fraction(3, 2)
    zeros = MomentVector.from_vector([0, 0, 0], ExponentParams(1, 1, 3, 3))
    assert [type(s) for s in zeros.sbar] == [Fraction] * 3


def test_lower_two_simple_never_exceeds_refined():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 8)
        a, rho = rng.randint(1, 3), rng.randint(1, 3)
        values = random_vector(rng, n)
        moments = MomentVector.from_vector(values, ExponentParams(a, rho, 2, n))
        simple = lower_bound_two_moments_simple(moments)
        refined = lower_bound_two_moments(moments)
        if isinstance(simple, Fraction) and isinstance(refined, Fraction):
            assert simple <= refined
        else:
            assert float(simple) <= float(refined) * (1 + 1e-9) + 1e-12


def test_lower_two_simple_rho_below_one_correction():
    # below rho = 1 the bound keeps its one formula, the core: valid, no
    # tighter than the refined bound, and at least the former rho < 1 form,
    # which scaled the core by (1 - w)/(1 - theta) <= 1 (a conftest oracle)
    rng = random.Random(43)
    tighter = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        values = [rng.random() for _ in range(n)]
        a, rho = rng.choice((0.5, 1.0, 1.5, 2.0, 3.7)), rng.choice((0.1, 0.3, 0.5, 0.9))
        moments = MomentVector.from_vector(values, ExponentParams(a, rho, 2, n))
        simple = lower_bound_two_moments_simple(moments)
        refined = lower_bound_two_moments(moments)
        former = closed_form_lower_two_simple_below_one(moments)
        total = math.fsum(values)
        assert type(simple) is float
        assert simple <= total * (1 + 1e-12), (values, a, rho)
        assert simple <= refined * (1 + 1e-12), (values, a, rho)
        assert simple >= former * (1 - 1e-12), (values, a, rho)
        assert refined <= total * (1 + 1e-9)
        tighter += simple > former * (1 + 1e-9)
    assert tighter > 300


def test_lower_two_simple_exact_integer_exponent_ratio():
    # rho divides a: s1**(e+1) / s2**e with e = a/rho, one exact Fraction
    s1, s2 = Fraction(3, 2), Fraction(27, 10)
    for a, rho in ((1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3)):
        value = lower_bound_two_moments_simple(make_moments([s1, s2], a, rho))
        e = a // rho
        assert type(value) is Fraction and value == s1 ** (e + 1) / s2**e
    # rho does not divide a: float powers, pinned bit for bit
    pins = ((1, 2, "0x1.1e3779b97f4a8p+0"), (3, 2, "0x1.3e04c02370fd7p-1"))
    for a, rho, bits in pins:
        value = lower_bound_two_moments_simple(make_moments([s1, s2], a, rho))
        assert type(value) is float and value.hex() == bits


def test_lower_two_simple_neither_overflows_nor_underflows():
    # s1 * (s1/s2)**(a/rho): the power of s1/s2 <= 1 cannot overflow, and
    # where s1/s2 underflows it comes from the logs of the exact integers or
    # of the floats. The raw powers s1**((a+rho)/rho) and s2**(a/rho)
    # overflow in the first three cases.
    value = lower_bound_two_moments_simple(
        make_moments([Fraction(1), Fraction(10**400)], 1, 3, n=10**134)
    )
    assert type(value) is float
    assert value == pytest.approx(10 ** (-400 / 3), rel=1e-13)
    for sbar, a, rho, n, want in (
        ((1e200, 1e300), 2.0, 1.0, 10**100, 1.0),
        ((1e300, 1e300), 3.7, 0.5, 2, 1e300),
        ((1e-10, 1e298), 1.0, 2.0, 13 * 10**153, 1e-164),  # s1/s2 is subnormal
    ):
        value = lower_bound_two_moments_simple(make_moments(sbar, a, rho, n))
        assert value == pytest.approx(want, rel=1e-13)


def test_simplified_bounds_degenerate_returns_keep_value_and_type():
    # s1 = 0, all mass at the top index (lower d1 = 0) or at index one
    # (upper d1 = 0), and n = 1, on exact and float moments
    for zero in (Fraction(0), 0.0):
        value = lower_bound_two_moments_simple(make_moments([zero, zero]))
        assert type(value) is type(zero) and value == 0
    for scale in (Fraction(1, 3), 1 / 3):
        at_top = MomentVector.from_vector([0, 0, scale], ExponentParams(2, 2, 3, 3))
        value = lower_bound_three_moments(at_top, "rho_ge_1_simple")
        assert type(value) is type(scale) and value == scale
        at_one = MomentVector.from_vector([scale, 0, 0], ExponentParams(2, 2, 3, 3))
        value = upper_bound_three_moments(at_one, "rho_ge_1_simple")
        assert type(value) is type(scale) and value == scale
        single = make_moments([scale] * 3, 2, 2, n=1)
        for bound in (lower_bound_three_moments, upper_bound_three_moments):
            value = bound(single, "rho_ge_1_simple")
            assert type(value) is type(scale) and value == scale


# ------------------------------------------------------ three-moment bounds


S3_OCCUPANCY = [Fraction(3, 2), Fraction(27, 10), Fraction(51, 10)]


def test_lower_three_refined_worked_value():
    assert lower_bound_three_moments(make_moments(S3_OCCUPANCY)) == Fraction(9, 10)


def test_upper_three_refined_worked_value():
    assert upper_bound_three_moments(make_moments(S3_OCCUPANCY)) == Fraction(9, 10)


def test_lower_three_simplified_variants_worked_values():
    # the paper's two-term forms (oracles) meet the refined 9/10 here; its
    # one-term form, in the library and as an oracle, stays below
    moments = make_moments(S3_OCCUPANCY)
    assert closed_form_lower_simple(moments, "a_le_rho") == Fraction(9, 10)
    assert closed_form_lower_simple(moments, "a_ge_rho") == Fraction(9, 10)
    assert closed_form_lower_simple(moments, "rho_ge_1_simple") == Fraction(43, 50)
    assert lower_bound_three_moments(moments, "rho_ge_1_simple") == Fraction(43, 50)


def test_upper_three_degenerate_simple_falls_back_wide():
    # delta = 2: the paper's forms at delta - 1 = 1 read the 0/0 power ratio
    # as its limit a/rho (the oracles), not as s1; at a = rho the library's
    # form s1 - d1**2/d2 has no such ratio
    moments = make_moments(S3_OCCUPANCY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = upper_bound_three_moments(moments, "rho_ge_1_simple")
    assert value == Fraction(9, 10)
    for variant in ("rho_ge_1_simple", "a_ge_rho"):
        assert closed_form_upper_simple(moments, variant) == Fraction(9, 10)


def test_upper_three_refined_handles_delta_two_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = upper_bound_three_moments(make_moments(S3_OCCUPANCY), "refined")
    assert value == Fraction(9, 10)


def test_three_moment_variant_constraints():
    assert VARIANTS == ("refined", "rho_ge_1_simple")
    moments = make_moments(S3_OCCUPANCY, a=2, rho=1)
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        lower_bound_three_moments(moments, "rho_ge_1_simple")
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        upper_bound_three_moments(moments, "rho_ge_1_simple")
    narrow = MomentVector.from_vector(
        [0.1, 0.4, 0.2], ExponentParams(0.5, 0.5, 3, 3)
    )
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        lower_bound_three_moments(narrow, "rho_ge_1_simple")
    # the paper's other simplified forms live in the tests as oracles only
    for variant in ("a_le_rho", "a_ge_rho", "bogus"):
        for bound in (lower_bound_three_moments, upper_bound_three_moments):
            with pytest.raises(ValueError, match="unknown variant"):
                bound(make_moments(S3_OCCUPANCY), variant)


def test_variant_exponent_conditions_do_not_depend_on_the_moments():
    # the simplified variant's exponent condition fails at (a, rho) whether
    # or not the moments reach the d1 = 0 or n = 1 returns
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        upper_bound_three_moments(
            MomentVector((1, 1, 1), ExponentParams(2, 1, 3, 3)), "rho_ge_1_simple"
        )
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        lower_bound_three_moments(
            MomentVector((1, 9, 81), ExponentParams(2, 1, 3, 9)), "rho_ge_1_simple"
        )
    holds = {
        "refined": lambda a, rho: True,
        "rho_ge_1_simple": lambda a, rho: a == rho >= 1,
    }
    pairs = ((2, 1), (1, 2), (1, Fraction(1, 2)), (2, 2), (Fraction(1, 2),) * 2)
    for a, rho in pairs:
        for n, vector in ((3, [0, 0, 1]), (3, [1, 0, 0]), (1, [1]), (3, [1, 1, 1])):
            moments = MomentVector.from_vector(vector, ExponentParams(a, rho, 3, n))
            for bound in (lower_bound_three_moments, upper_bound_three_moments):
                for variant in VARIANTS:
                    if holds[variant](a, rho):
                        assert bound(moments, variant) >= 0
                        continue
                    with pytest.raises(ValueError, match=f"'{variant}' requires"):
                        bound(moments, variant)


def _assert_matches_closed_forms(moments):
    assert _outcome(lower_bound_three_moments, moments) == _outcome(
        closed_form_lower_three, moments
    )
    assert _outcome(upper_bound_three_moments, moments) == _outcome(
        closed_form_upper_three, moments
    )


def test_three_moment_degenerate_masses():
    # d1 = 0 on each side: all mass at n (lower) or at 1 (upper)
    for n in (1, 2, 3, 4):
        for a, rho in ((1, 1), (2, 1), (1, 2), (3, 2)):
            params = ExponentParams(a, rho, 3, n)
            zeros = [Fraction(0)] * (n - 1)
            top_only = MomentVector.from_vector(zeros + [Fraction(2, 7)], params)
            assert lower_bound_three_moments(top_only) == Fraction(2, 7)
            bottom_only = MomentVector.from_vector([Fraction(3, 5)] + zeros, params)
            assert upper_bound_three_moments(bottom_only) == Fraction(3, 5)
            _assert_matches_closed_forms(top_only)
            _assert_matches_closed_forms(bottom_only)


def test_three_moment_cone_errors():
    with pytest.raises(
        MomentConsistencyError,
        match=re.escape("n**rho * s2 - s3 must be non-negative (got -94)"),
    ):
        # s3 > n**rho * s2
        lower_bound_three_moments(make_moments([1, 2, 100], n=3))
    with pytest.raises(
        MomentConsistencyError,
        match=re.escape("(s3 - s2) >= 2**rho * (s2 - s1) (1/2 < 2)"),
    ):
        # (s3 - s2) < 2**rho (s2 - s1)
        upper_bound_three_moments(make_moments([1, 2, Fraction(5, 2)], n=3))


def test_float_three_moment_bounds_at_one_support_point():
    # n = 1: inside the float slack the only vector is r_1 = s1; outside it
    # the cone checks still raise
    upper = MomentVector(
        (1.1666666666666667, 1.1666666667833334, Fraction(7, 6)),
        ExponentParams(2.5, 1.25, 3, 1),
    )
    lower = MomentVector(
        (Fraction(8, 7), 1.1428571428457142, Fraction(8, 7)),
        ExponentParams(3, 3, 3, 1),
    )
    assert upper_bound_three_moments(upper) == upper.sbar[0]
    with pytest.raises(ValueError, match="requires a == rho >= 1"):
        upper_bound_three_moments(upper, "rho_ge_1_simple")
    for variant in VARIANTS:
        assert lower_bound_three_moments(lower, variant) == lower.sbar[0]
    params = ExponentParams(2.5, 1.25, 3, 1)
    with pytest.raises(MomentConsistencyError, match=re.escape("2**rho")):
        upper_bound_three_moments(MomentVector((1.0, 1.5, 1.5), params))
    with pytest.raises(MomentConsistencyError, match=re.escape(">= (n**rho*s1")):
        lower_bound_three_moments(MomentVector((1.0, 0.5, 0.5), params))


def test_impossible_float_bounds_raise():
    # sum(r) lies in [s1/n**a, s1], so a float upper bound below s1/n**a, or
    # a value that is not finite, is cancelled arithmetic: these vectors sum
    # to 0.8, and the refined upper bound read 0.0 at n = 5 and -inf at
    # n = 10
    params = ExponentParams(120.5, 2.5, 3, 5)
    moments = MomentVector.from_vector([0.5, 0.0, 0.0, 0.0, 0.3], params)
    with pytest.raises(ArithmeticError, match="impossible"):
        upper_bound_three_moments(moments)
    params = ExponentParams(300.5, 2.5, 3, 10)
    moments = MomentVector.from_vector([0.5] + [0.0] * 8 + [0.3], params)
    with pytest.raises(ArithmeticError, match="impossible"):
        upper_bound_three_moments(moments)


def test_float_window_snaps_a_ratio_next_to_an_integer_root():
    # s2/s1 is one ulp below 2**1.5: the window is (2,), as at the exact
    # ratio; taken as b = 1 it would put ~1e18 of mass on index 1
    params = ExponentParams(120.5, 1.5, 2, 10)
    moments = MomentVector((8.73879665915564e33, 2.4717049508397197e34), params)
    assert lower_bound_two_moments(moments) == 0.0046487603305785125


def test_float_refined_bounds_track_the_exact_bounds():
    # each refined bound on the float moments of a seeded vector is within
    # 1e-13 * max(1, s1) of the exact bound on the same floats as rationals;
    # draws whose rounded moments leave the exact cone are skipped
    rng = random.Random(5)
    bounds = (
        (2, lower_bound_two_moments),
        (2, upper_bound_two_moments),
        (3, lower_bound_three_moments),
        (3, upper_bound_three_moments),
    )
    checked = 0
    for _ in range(3000):
        n, a, rho = rng.randint(2, 9), rng.choice((1, 2, 3)), rng.choice((1, 2))
        vector = [
            Fraction(rng.random()) if rng.random() < 0.6 else Fraction(0)
            for _ in range(n)
        ]
        exact = MomentVector.from_vector(vector, ExponentParams(a, rho, 3, n))
        floats = [float(s) for s in exact.sbar]
        for ell, bound in bounds:
            params = ExponentParams(a, rho, ell, n)
            try:
                want = bound(MomentVector(tuple(map(Fraction, floats[:ell])), params))
            except MomentConsistencyError:
                continue
            got = bound(MomentVector(tuple(floats[:ell]), params))
            assert type(got) is float
            assert abs(got - float(want)) <= 1e-13 * max(1.0, floats[0])
            checked += 1
    assert checked > 11_000


def test_exact_three_moment_bounds_equal_the_closed_forms():
    # window masses in integers == the closed forms in Fractions, in value,
    # type and error text, on genuine and on arbitrary (mostly inconsistent)
    # rational moments
    rng = random.Random(83)
    for trial in range(600):
        n = rng.randint(1, 12)
        a, rho = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        params = ExponentParams(a, rho, 3, n)
        if trial % 3:
            vector = [
                random_vector(rng, 1)[0] if rng.random() < 0.5 else Fraction(0)
                for _ in range(n)
            ]
            vector[rng.randrange(n)] += Fraction(1, rng.randint(1, 9))
            moments = MomentVector.from_vector(vector, params)
        else:
            sbar = [Fraction(rng.randint(0, 60), rng.randint(1, 12)) for _ in "123"]
            moments = MomentVector(tuple(sbar), params)
        _assert_matches_closed_forms(moments)


def test_exact_three_moment_window_edges():
    # d2 = b**rho * d1 at b = n - 1 below and b = n above, where the
    # three-point window would leave the support
    for n in (2, 3, 6):
        for a, rho in ((1, 1), (2, 1), (1, 2), (3, 2)):
            params = ExponentParams(a, rho, 3, n)
            edge = [Fraction(0)] * n
            edge[n - 2], edge[n - 1] = Fraction(1, 3), Fraction(2, 9)
            moments = MomentVector.from_vector(edge, params)
            assert lower_bound_three_moments(moments) == Fraction(5, 9)
            _assert_matches_closed_forms(moments)
            edge = [Fraction(0)] * n
            edge[0], edge[n - 1] = Fraction(1, 4), Fraction(3, 8)
            moments = MomentVector.from_vector(edge, params)
            assert upper_bound_three_moments(moments) == Fraction(5, 8)
            _assert_matches_closed_forms(moments)


def test_exact_three_moment_bounds_read_integral_exponents_alike():
    vector = [Fraction(1, 3), Fraction(0), Fraction(2, 7), Fraction(1, 9), Fraction(0)]
    outcomes = set()
    for a in (2, 2.0, Fraction(2)):
        for rho in (2, 2.0, Fraction(2)):
            moments = MomentVector.from_vector(vector, ExponentParams(a, rho, 3, 5))
            _assert_matches_closed_forms(moments)
            outcomes.add(
                (
                    repr(lower_bound_three_moments(moments)),
                    repr(upper_bound_three_moments(moments)),
                )
            )
    assert len(outcomes) == 1


def test_exact_three_moment_bounds_on_unlike_and_huge_denominators():
    vector = [Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(5, 11)]
    moments = MomentVector.from_vector(vector, ExponentParams(1, 1, 3, 4))
    assert len({s.denominator for s in moments.sbar}) > 1
    _assert_matches_closed_forms(moments)
    rng = random.Random(89)
    for _ in range(20):
        n = rng.randint(3, 8)
        vector = [
            Fraction(rng.getrandbits(1000), rng.getrandbits(1000) | 1)
            if rng.random() < 0.6
            else Fraction(0)
            for _ in range(n)
        ]
        vector[-1] += Fraction(1, 3**630)
        params = ExponentParams(rng.randint(1, 3), rng.randint(1, 3), 3, n)
        moments = MomentVector.from_vector(vector, params)
        assert max(s.denominator.bit_length() for s in moments.sbar) > 900
        _assert_matches_closed_forms(moments)


def test_exact_lower_three_on_int_moments_is_rational():
    # the closed form divides an int s1 by n**a and so returned a float
    moments = make_moments([2, 3, 5], n=3)
    value = lower_bound_three_moments(moments)
    assert isinstance(value, Fraction)
    as_fractions = make_moments([Fraction(2), Fraction(3), Fraction(5)], n=3)
    assert value == closed_form_lower_three(as_fractions)
    assert lower_bound_three_moments(make_moments([0, 0, 0])) == Fraction(0)
    assert isinstance(lower_bound_three_moments(make_moments([0, 0, 0])), Fraction)
    # the upper bound at d1 = 0 is s1 itself, which int moments now carry as
    # a Fraction
    flat = make_moments([2, 2, 2])
    assert _outcome(upper_bound_three_moments, flat) == ("Fraction", "Fraction(2, 1)")


@pytest.mark.parametrize(
    "bound, sbar, n, message",
    [
        (
            lower_bound_three_moments,
            [Fraction(1, 2), 2, Fraction(5, 2)],
            3,
            "n**rho * s1 - s2 must be non-negative (got -1/2)",
        ),
        (
            upper_bound_three_moments,
            [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)],
            3,
            "s3 - s2 must be non-negative (got -1/4)",
        ),
        (
            lower_bound_three_moments,
            [Fraction(1, 2), Fraction(3, 4), Fraction(5, 3)],
            3,
            "(n**rho*s2 - s3) >= (n**rho*s1 - s2) (7/12 < 3/4)",
        ),
        (
            upper_bound_three_moments,
            [Fraction(1, 2), Fraction(3, 4), Fraction(9, 2)],
            3,
            "(s3 - s2) <= n**rho * (s2 - s1) (15/4 > 3/4)",
        ),
    ],
)
def test_exact_three_moment_error_texts(bound, sbar, n, message):
    moments = make_moments(sbar, n=n)
    with pytest.raises(MomentConsistencyError, match=re.escape(message)):
        bound(moments)
    oracle = (
        closed_form_lower_three
        if bound is lower_bound_three_moments
        else closed_form_upper_three
    )
    with pytest.raises(MomentConsistencyError, match=re.escape(message)):
        oracle(moments)


def test_three_moment_bounds_sandwich_explicit_vectors():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(3, 8)
        a, rho = rng.randint(1, 2), rng.randint(1, 2)
        values = random_vector(rng, n)
        total = sum(values)
        moments = MomentVector.from_vector(values, ExponentParams(a, rho, 3, n))
        lower = lower_bound_three_moments(moments)
        upper = upper_bound_three_moments(moments)
        assert lower <= total <= upper
        # three moments never do worse than two
        two = MomentVector((moments.sbar[0], moments.sbar[1]), ExponentParams(a, rho, 2, n))
        assert lower >= lower_bound_two_moments(two)


def _simplified_variants(a, rho) -> list[str]:
    """The paper's simplified three-moment forms that apply at (a, rho)."""
    variants = ["rho_ge_1_simple"] if rho >= 1 else []
    if a <= rho:
        variants.append("a_le_rho")
    if a >= rho:
        variants.append("a_ge_rho")
    return variants


def test_simplified_variants_are_wide_when_applicable():
    # the refined bounds dominate the paper's simplified forms (the conftest
    # oracles) on the per-event and occupancy vectors of every 5th system of
    # acceptance 1's corpus: exactly at rho = 1, and to 1e-12 relative at
    # rho = 2, where an oracle takes a float root of delta
    profiles = ("dense", "sparse", "disjoint-ish")
    rng = random.Random(20260814)
    checked = 0
    for seed in range(1000):
        events, atoms = rng.randint(1, 10), rng.randint(1, 256)
        if seed % 5:
            continue
        system = random_system(seed, events, atoms, profiles[seed % 3])
        for a, rho in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
            params = ExponentParams(a, rho, 3, system.n_events)
            columns = zip(*per_event_moments(system, a, rho, ell=3).sbar)
            vectors = [column for column in columns if column[0] != 0]
            vectors.append(tuple(power_moments(system, e) for e in params.exponents))
            for sbar in vectors:
                moments = MomentVector(sbar, params)
                lower = lower_bound_three_moments(moments)
                upper = upper_bound_three_moments(moments)
                for variant in _simplified_variants(a, rho):
                    loose_lower = closed_form_lower_simple(moments, variant)
                    loose_upper = closed_form_upper_simple(moments, variant)
                    case = (seed, a, rho, sbar, variant)
                    if rho == 1:
                        assert type(loose_lower) is type(loose_upper) is Fraction
                        assert loose_lower <= lower and upper <= loose_upper, case
                    else:
                        assert loose_lower - lower <= 1e-12 * abs(lower), case
                        assert upper - loose_upper <= 1e-12 * abs(loose_upper), case
                    checked += 1
    assert checked > 17_000


def test_simplified_variants_equal_their_closed_forms():
    # "rho_ge_1_simple" at a = rho, the one simplified form left in the
    # library, equals its closed form: exactly on rational moments, where
    # delta may be irrational but delta**a = d2/d1, and to 1e-12 on floats
    rng = random.Random(61)
    pairs = (
        (lower_bound_three_moments, closed_form_lower_simple),
        (upper_bound_three_moments, closed_form_upper_simple),
    )
    for trial in range(240):
        n = rng.randint(2, 9)
        if trial % 2:
            a = rng.choice((1.25, 1.5, 2.5))
            vector = [rng.uniform(0.05, 1.0) for _ in range(n)]
        else:
            a = rng.choice((1, 2, 3))
            vector = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(n)]
        moments = MomentVector.from_vector(vector, ExponentParams(a, a, 3, n))
        for bound, oracle in pairs:
            got = bound(moments, "rho_ge_1_simple")
            want = oracle(moments, "rho_ge_1_simple")
            if moments.exact:
                assert type(got) is Fraction and got == want
            else:
                assert math.isclose(got, want, rel_tol=1e-12)


# ------------------------------------------------------------ general engine


def test_general_bound_matches_closed_forms_on_their_windows():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 7)
        a, rho = rng.randint(1, 2), rng.randint(1, 2)
        values = random_vector(rng, n)
        if sum(values) == 0:
            values[0] = Fraction(1, 2)
        params2 = ExponentParams(a, rho, 2, n)
        moments = MomentVector.from_vector(values, params2)
        features = power_feature_matrix(params2)
        s1, s2 = moments.sbar
        # general_bound needs ell points in 1..n, so b is clamped to keep them
        b = min(max(floor_root(s2 / s1, rho), 1), n - 1)
        window = _index_window("lower", 2, b, n)
        outcome = general_bound(features, moments.sbar, window, "lower")
        assert outcome.bound_value == lower_bound_two_moments(moments)
        outcome = general_bound(
            features, moments.sbar, _index_window("upper", 2, b, n), "upper"
        )
        assert outcome.bound_value == upper_bound_two_moments(moments)
        if n >= 3:
            params3 = ExponentParams(a, rho, 3, n)
            moments3 = MomentVector.from_vector(values, params3)
            features3 = power_feature_matrix(params3)
            n_rho = Fraction(n) ** rho
            d1 = n_rho * moments3.sbar[0] - moments3.sbar[1]
            d2 = n_rho * moments3.sbar[1] - moments3.sbar[2]
            if d1 > 0:
                b = min(max(floor_root(d2 / d1, rho), 1), n - 2)
                window3 = _index_window("lower", 3, b, n)
                outcome = general_bound(features3, moments3.sbar, window3, "lower")
                assert outcome.bound_value == lower_bound_three_moments(moments3)
            h1 = moments3.sbar[1] - moments3.sbar[0]
            h2 = moments3.sbar[2] - moments3.sbar[1]
            if h1 > 0:
                b = min(max(floor_root(h2 / h1, rho), 2), n - 1)
                window3 = _index_window("upper", 3, b, n)
                outcome = general_bound(features3, moments3.sbar, window3, "upper")
                assert outcome.bound_value == upper_bound_three_moments(moments3)


def test_general_bound_outcome_reproduces_moments():
    params = ExponentParams(1, 1, 2, 5)
    features = power_feature_matrix(params)
    values = [0, Fraction(1, 4), Fraction(1, 3), 0, 0]
    moments = MomentVector.from_vector(values, params)
    outcome = general_bound(features, moments.sbar, (2, 3), "lower")
    assert outcome.solution == {2: Fraction(1, 4), 3: Fraction(1, 3)}
    assert outcome.bound_value == Fraction(7, 12)
    for k in range(2):
        reproduced = sum(
            features[k][i - 1] * mass for i, mass in outcome.solution.items()
        )
        assert reproduced == moments.sbar[k]
    assert len(outcome.sign_certificate) == 5
    assert outcome.direction == "lower"
    assert outcome.indices == (2, 3)


def test_general_bound_certificate_violation():
    params = ExponentParams(1, 1, 2, 4)
    features = power_feature_matrix(params)
    moments = MomentVector.from_vector(
        [Fraction(1, 4)] * 4, params
    )
    with pytest.raises(CertificateError):
        general_bound(features, moments.sbar, (1, 3), "lower")


def test_general_bound_infeasible_indices():
    params = ExponentParams(1, 1, 2, 3)
    features = power_feature_matrix(params)
    moments = MomentVector.from_vector([Fraction(1), 0, 0], params)
    with pytest.raises(InfeasibleIndicesError):
        general_bound(features, moments.sbar, (2, 3), "lower")


def test_general_bound_input_validation():
    params = ExponentParams(1, 1, 2, 3)
    features = power_feature_matrix(params)
    with pytest.raises(ValueError):
        general_bound(features, (1,), (1, 2), "lower")
    with pytest.raises(ValueError):
        general_bound(features, (1, 2), (2, 1), "lower")
    with pytest.raises(ValueError):
        general_bound(features, (1, 2), (1, 2), "sideways")
    with pytest.raises(ValueError):
        general_bound([[1, 1, 1], [1, 1, 1]], (1, 1), (1, 2), "lower")  # singular
    # non-integral and bool indices, NaN or inf moments and features
    for indices in ((1.7, 2.2), (True, 2), (1, math.nan), (1, math.inf)):
        with pytest.raises(ValueError, match="indices must be integers"):
            general_bound(features, (1, 2), indices, "lower")
    assert general_bound(features, (1, 2), (1.0, Fraction(2)), "lower").indices == (1, 2)
    for sbar in ((math.nan, 2), (1, math.inf)):
        with pytest.raises(ValueError, match="moments must be finite"):
            general_bound(features, sbar, (1, 2), "lower")
    for bad in (math.inf, math.nan):
        rows = (features[0], (1, 2, bad))
        with pytest.raises(ValueError, match="feature values must be finite"):
            general_bound(rows, (1, 2), (1, 2), "lower")
    # a bool moment or feature is no number, though it would solve as 1
    for sbar in ((True, 2), (1, False)):
        with pytest.raises(ValueError, match="moments must be numbers, not bools"):
            general_bound(((1, 1, 1), (1, 2, 3)), sbar, (1, 2), "lower")
    for rows in (((True, 1, 1), (1, 2, 3)), ((1, 1, 1), (1, 2, False))):
        with pytest.raises(ValueError, match="feature values must be numbers, not"):
            general_bound(rows, (1, 2), (1, 2), "lower")
    outcome = general_bound(((1, 1, 1), (1, 2, 3)), (1, 2), (1, 2), "lower")
    assert outcome.bound_value == 1


def test_exhaustive_search_agrees_with_closed_forms():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(2, 6)
        values = random_vector(rng, n)
        if sum(values) == 0:
            values[-1] = Fraction(1, 2)
        params = ExponentParams(1, 1, 2, n)
        moments = MomentVector.from_vector(values, params)
        features = power_feature_matrix(params)
        best_lower = exhaustive_index_search(features, moments.sbar, "lower")
        assert best_lower is not None
        assert best_lower.bound_value == lower_bound_two_moments(moments)
        best_upper = exhaustive_index_search(features, moments.sbar, "upper")
        assert best_upper is not None
        assert best_upper.bound_value == upper_bound_two_moments(moments)


def test_upper_three_simple_variants_valid_at_delta_two():
    # delta = 2 exactly when the vector lives on {1, 2}; there the paper's
    # a >= rho forms (oracles, which read the 0/0 power ratio at delta - 1
    # as its limit a/rho) and the library's "rho_ge_1_simple" at a = rho
    # stay between the sum and s1, and never below the refined bound or the
    # best certified window
    rng = random.Random(73)
    for trial in range(120):
        n = rng.randint(3, 6)
        a, rho = rng.choice(((1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (1.25, 1.25)))
        values = [Fraction(0)] * n
        values[0] = Fraction(rng.randint(0, 8), rng.randint(1, 9))
        values[1] = Fraction(rng.randint(1, 8), rng.randint(1, 9))
        params = ExponentParams(a, rho, 3, n)
        moments = MomentVector.from_vector(values, params)
        refined = upper_bound_three_moments(moments)
        best = exhaustive_index_search(
            power_feature_matrix(params), moments.sbar, "upper"
        )
        simple = {}
        if a == rho:
            simple["src"] = upper_bound_three_moments(moments, "rho_ge_1_simple")
        if moments.exact:
            for variant in ("rho_ge_1_simple", "a_ge_rho"):
                simple[variant] = closed_form_upper_simple(moments, variant)
        for variant, value in simple.items():
            case = (trial, a, rho, values, variant)
            assert float(sum(values)) <= float(value) + 1e-9, case
            assert float(value) <= float(moments.sbar[0]) + 1e-9, case
            assert float(value) >= float(refined) - 1e-9, case
            if best is not None:
                assert float(value) >= float(best.bound_value) - 1e-9, case


# --------------------------------------------------------- window selection


def test_index_window_shapes():
    assert _index_window("lower", 2, 3, 9) == (3, 4)
    assert _index_window("lower", 2, 3, 9, on_point=True) == (3,)
    assert _index_window("upper", 2, 3, 9) == (1, 9)
    assert _index_window("lower", 3, 3, 9) == (3, 4, 9)
    assert _index_window("lower", 3, 3, 9, on_point=True) == (3, 9)
    assert _index_window("upper", 3, 3, 9) == (1, 3, 4)
    assert _index_window("upper", 3, 3, 9, on_point=True) == (1, 3)


# -------------------------------------------------- delta decomposition
#
# delta = (s2/s1)**(1/rho) splits into the window base b = floor(delta) and
# the refined weight t of b+1; the window is on the point b when t = 0.
# Exact moments take b by an integer root inside the kernel, floats by
# ``_float_window``.


def _exact_window(monkeypatch, s_lo, s_hi, rho):
    """(b, on_point) the exact two-moment kernel picks, and its bound at a = 1,
    which must equal the independent closed form."""
    windows = []

    def recorded(kind, ell, b, n, on_point=False):
        windows.append((b, on_point))
        return _index_window(kind, ell, b, n, on_point)

    monkeypatch.setattr(bounds_module, "_index_window", recorded)
    moments = MomentVector((s_lo, s_hi), ExponentParams(1, rho, 2, 10))
    bound = lower_bound_two_moments(moments)
    assert bound == closed_form_lower_two(moments)
    assert len(windows) == 1
    return windows[0], bound


def test_delta_decomposition_rational_rho_one(monkeypatch):
    # delta = 5/2: b = 2, t = 1/2, bound 2 * (1/2 / 2 + 1/2 / 3)
    window, bound = _exact_window(monkeypatch, Fraction(2), Fraction(5), 1)
    assert window == (2, False)
    assert bound == Fraction(5, 6)


def test_delta_decomposition_irrational_root_keeps_refined_exact(monkeypatch):
    # delta = sqrt(5) is irrational, yet b = 2 (4 <= 5 < 9) and the refined
    # weight t = (5 - 4) / (9 - 4) = 1/5 stay rational
    window, bound = _exact_window(monkeypatch, Fraction(1), Fraction(5), 2)
    assert window == (2, False)
    assert type(bound) is Fraction
    assert bound == Fraction(4, 5) / 2 + Fraction(1, 5) / 3


def test_delta_decomposition_perfect_rational_root(monkeypatch):
    # delta = 5/2 at rho = 2: t = (25/4 - 4) / (9 - 4) = 9/20
    window, bound = _exact_window(monkeypatch, Fraction(4), Fraction(25), 2)
    assert window == (2, False)
    assert bound == 4 * (Fraction(11, 20) / 2 + Fraction(9, 20) / 3)


def test_delta_decomposition_integer_ratio(monkeypatch):
    # s2/s1 = 4 = 2**2: the window is on the point 2
    window, bound = _exact_window(monkeypatch, Fraction(1, 3), Fraction(4, 3), 2)
    assert window == (2, True)
    assert bound == Fraction(1, 6)


def test_delta_decomposition_float_snaps_near_integers():
    # (delta, b, w): a delta within 1e-9 of an integer snaps onto it, with
    # weight 0, so the window is on that point
    assert _float_window(8.0 * (1 + 1e-13), 3.0) == (2.0, 2, 0.0)


def test_delta_decomposition_float_general():
    assert _float_window(2.0, 1.0) == (2.0, 2, 0.0)  # snapped integer
    delta, b, w = _float_window(2.5, 1.0)
    assert (delta, b) == (2.5, 2)
    assert w == pytest.approx(0.5)


def test_delta_decomposition_zero_and_errors(monkeypatch):
    windows = []
    monkeypatch.setattr(
        bounds_module, "_index_window", lambda *args: windows.append(args)
    )
    # s1 = 0 needs no window
    assert lower_bound_two_moments(make_moments([Fraction(0), Fraction(0)], 1, 2)) == 0
    assert lower_bound_two_moments(make_moments([0.0, 0], 1, 1)) == 0.0
    assert windows == []
    with pytest.raises(MomentConsistencyError, match="s2 must vanish"):
        lower_bound_two_moments(make_moments([0, 1], 1, 1))
    with pytest.raises(ValueError):
        ExponentParams(1, 0, 2, 3)
    with pytest.raises(ValueError):
        make_moments([-1, 1])


def test_delta_decomposition_invariants_seeded(monkeypatch):
    # b is the largest integer with b**rho <= s2/s1, found here by a search
    rng = random.Random(11)
    for _ in range(300):
        s_lo = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        ratio = Fraction(rng.randint(100, 900), 100)
        rho = rng.choice((1, 2, 3))
        b = max(i for i in range(1, 10) if i**rho <= ratio)
        window, bound = _exact_window(monkeypatch, s_lo, s_lo * ratio, rho)
        assert window == (b, ratio == b**rho), (s_lo, ratio, rho)
        t = (ratio - b**rho) / ((b + 1) ** rho - b**rho)
        assert 0 <= t < 1
        assert bound == s_lo * ((1 - t) / b + t / (b + 1))


# ------------------------------------------------------------------- holder


def test_holder_lower_bound_values():
    # Holder's bound from (E xi, E xi**p) is the window-free bound at
    # (a, rho) = (1, p - 1), and equals its closed form
    for alpha1, alphap, p, want in (
        (Fraction(1), Fraction(5, 2), 3, 0.6324555320336759),
        (Fraction(1), Fraction(3, 2), 2, 2 / 3),
        (Fraction(1, 2), Fraction(7, 8), 2.5, None),
        (0.75, 0.9, 1.25, None),
        (Fraction(0), Fraction(0), 3, 0.0),
    ):
        value = lower_bound_two_moments_simple(make_moments([alpha1, alphap], 1, p - 1))
        closed = holder_closed_form(alpha1, alphap, p)
        assert float(value) == pytest.approx(closed, rel=1e-15, abs=0)
        if want is not None:
            assert float(value) == pytest.approx(want, rel=1e-15)
