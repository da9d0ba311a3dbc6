"""Acceptance suite.

Eight line-item checks covering the sandwich property on random systems,
sharpness on window-supported vectors, the fractional-window identity, the
worked reference constants, the dominance chain, the finite-horizon
estimators, the power-ratio monotonicity lemma, and the CLI contract.
Each test prints one ACCEPTANCE line; run with -s to see them."""

import math
import random
import time
from fractions import Fraction

from conftest import S2_EVENTS, S2_WEIGHTS, S3_EVENTS, S3_WEIGHTS, naive_kat
from unionbounds import (
    ExponentParams,
    IndependentSequence,
    MomentVector,
    bc_lower_estimate,
    bc_upper_estimate,
    build_system,
    compare_bounds,
    exact_union_probability,
    holder_union_bound,
    kochen_stone_ratio,
    lower_bound_three_moments,
    lower_bound_two_moments,
    lower_bound_two_moments_simple,
    occupancy_moment_vector,
    occupancy_profile,
    per_event_moments,
    power_moments,
    random_system,
    union_bound,
    upper_bound_three_moments,
    upper_bound_two_moments,
)
from unionbounds.cli import main as cli_main

PROFILES = ("dense", "sparse", "disjoint-ish")
EXACT_SECTIONS = ((1, 1), (2, 1))
FLOAT_SECTION = (1.5, 1.25)
TOL12 = Fraction(1, 10**12)


def test_acceptance_1_sandwich_suite():
    rng = random.Random(20260814)
    start = time.monotonic()
    for seed in range(1000):
        system = random_system(
            seed, rng.randint(1, 10), rng.randint(1, 256), PROFILES[seed % 3]
        )
        for a, rho in EXACT_SECTIONS + (FLOAT_SECTION,):
            report = compare_bounds(system, a, rho)
            for entry in report.entries:
                assert entry.error is None, (seed, a, rho, entry)
                assert entry.passed, (
                    seed,
                    a,
                    rho,
                    entry.name,
                    entry.value,
                    report.exact,
                )
            if (a, rho) in EXACT_SECTIONS:
                assert all(e.arithmetic == "rational" for e in report.entries)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"sandwich suite took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 1 (sandwich on 1000 random systems x 3 exponent "
        f"sections, {elapsed:.1f}s): PASS"
    )


def test_acceptance_2_sharpness_on_window_supported_vectors():
    rng = random.Random(97531)
    for trial in range(200):
        a = rng.choice((1, 2))
        rho = rng.choice((1, 2))
        kind = trial % 4
        if kind == 0:
            n = rng.randint(2, 9)
            m = rng.randint(2, n)
            support, ell, fn = (m - 1, m), 2, lower_bound_two_moments
        elif kind == 1:
            n = rng.randint(2, 9)
            support, ell, fn = (1, n), 2, upper_bound_two_moments
        elif kind == 2:
            n = rng.randint(3, 9)
            m = rng.randint(2, n - 1)
            support, ell, fn = (m - 1, m, n), 3, lower_bound_three_moments
        else:
            n = rng.randint(3, 9)
            m = rng.randint(3, n)
            support, ell, fn = (1, m - 1, m), 3, upper_bound_three_moments
        vector = [Fraction(0)] * n
        for index in support:
            vector[index - 1] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        moments = MomentVector.from_vector(vector, ExponentParams(a, rho, ell, n))
        assert fn(moments) == sum(vector), (trial, a, rho, support, vector)
    print("ACCEPTANCE 2 (200 window-supported vectors attain the bounds): PASS")


def test_acceptance_3_fractional_window_identity():
    rng = random.Random(86420)
    for i in range(500):
        system = random_system(
            1_000_000 + i, rng.randint(1, 8), rng.randint(1, 96), PROFILES[i % 3]
        )
        kat = naive_kat(system)
        fractional = union_bound(system, "per_event_lower_two")
        assert kat == fractional, i
        assert abs(float(kat) - float(fractional)) <= 1e-12
    # integer delta = s2/s1 makes theta vanish and the bound collapse to
    # de Caen's per-event term s1**2/s2
    for _ in range(200):
        n = rng.randint(2, 12)
        b = rng.randint(1, n)
        s1 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        moments = MomentVector((s1, b * s1), ExponentParams(1, 1, 2, n))
        assert lower_bound_two_moments(moments) == s1 * s1 / (b * s1)
    print("ACCEPTANCE 3 (kat identity on 500 systems, de Caen reduction): PASS")


def test_acceptance_4_worked_constants():
    s2 = build_system(S2_WEIGHTS, S2_EVENTS)
    assert exact_union_probability(s2) == Fraction(3, 4)
    assert union_bound(s2, "chung_erdos") == Fraction(2, 3)
    assert union_bound(s2, "de_caen") == Fraction(2, 3)
    assert union_bound(s2, "kat") == Fraction(3, 4)
    assert union_bound(s2, "per_event_lower_two") == Fraction(3, 4)
    assert union_bound(s2, "per_event_lower_three") == Fraction(3, 4)
    assert union_bound(s2, "per_event_upper_three") == Fraction(3, 4)
    assert union_bound(s2, "per_event_lower_two", 2, 1) == Fraction(3, 4)
    assert occupancy_profile(s2).p == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert occupancy_moment_vector(s2, 1, 1, 3).sbar == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(5, 2),
    )
    assert per_event_moments(s2, 1, 1, ell=3).sbar[0] == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert s2.intersection_probability((0, 1)) == Fraction(1, 4)
    assert abs(holder_union_bound(s2, 3) - math.sqrt(0.4)) <= 1e-12

    s3 = build_system(S3_WEIGHTS, S3_EVENTS)
    assert exact_union_probability(s3) == Fraction(9, 10)
    assert occupancy_profile(s3).p == (
        Fraction(1, 10),
        Fraction(3, 10),
        Fraction(3, 5),
        Fraction(0),
    )
    moments = per_event_moments(s3, 1, 1, ell=3)
    assert moments.sbar[0] == (Fraction(11, 20), Fraction(7, 20), Fraction(3, 5))
    assert moments.sbar[1] == (Fraction(1), Fraction(7, 10), Fraction(1))
    assert moments.sbar[2] == (Fraction(19, 10), Fraction(7, 5), Fraction(9, 5))
    assert union_bound(s3, "chung_erdos") == Fraction(5, 6)
    assert union_bound(s3, "de_caen") == Fraction(67, 80)
    assert union_bound(s3, "kat") == Fraction(9, 10)
    assert union_bound(s3, "per_event_lower_two") == Fraction(9, 10)
    assert union_bound(s3, "per_event_lower_three") == Fraction(1711, 1980)
    assert union_bound(s3, "per_event_upper_three") == Fraction(9, 10)
    occ2 = occupancy_moment_vector(s3, 1, 1, 2)
    occ3 = occupancy_moment_vector(s3, 1, 1, 3)
    assert occ3.sbar == (Fraction(3, 2), Fraction(27, 10), Fraction(51, 10))
    assert lower_bound_two_moments(occ2) == Fraction(9, 10)
    assert upper_bound_two_moments(occ2) == Fraction(11, 10)
    assert lower_bound_three_moments(occ3) == Fraction(9, 10)
    assert upper_bound_three_moments(occ3) == Fraction(9, 10)
    assert lower_bound_two_moments(
        occupancy_moment_vector(s3, 2, 1, 2)
    ) == Fraction(9, 10)
    assert s3.intersection_probability((0, 1)) == Fraction(1, 5)
    assert s3.intersection_probability((0, 2)) == Fraction(1, 4)
    assert s3.intersection_probability((1, 2)) == Fraction(3, 20)
    assert s3.intersection_probability((0, 1, 2)) == Fraction(0)
    print("ACCEPTANCE 4 (worked constants, exact rational): PASS")


def test_acceptance_5_dominance_chains():
    rng = random.Random(13579)
    for _ in range(300):
        n = rng.randint(2, 10)
        vector = [Fraction(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(n)]
        if not any(vector):
            vector[0] = Fraction(1, 2)
        for a, rho in ((1, 1), (2, 1), (1, 2), (2, 2)):
            moments = MomentVector.from_vector(
                vector, ExponentParams(a, rho, 2, n)
            )
            refined = lower_bound_two_moments(moments)
            simple = lower_bound_two_moments_simple(moments)
            assert refined >= simple - TOL12, (vector, a, rho)
    for i in range(200):
        system = random_system(
            5_000_000 + i, rng.randint(1, 8), rng.randint(1, 64), PROFILES[i % 3]
        )
        kat, de_caen = union_bound(system, "kat"), union_bound(system, "de_caen")
        assert kat >= de_caen - TOL12, i
        if power_moments(system, 1) == 0:
            continue
        ce = float(union_bound(system, "chung_erdos"))
        for p in (2.5, 3, 4):
            assert holder_union_bound(system, p) <= ce + 1e-12, (i, p)
    print("ACCEPTANCE 5 (refined >= simple, kat >= de Caen, Holder <= CE): PASS")


def test_acceptance_6_finite_horizon_estimators():
    model = IndependentSequence(Fraction(1, 2))
    lower = bc_lower_estimate(model, 200)
    assert abs(float(lower.value) - 0.99750) <= 1e-9
    assert lower.value == Fraction(399, 400)
    assert abs(float(kochen_stone_ratio(model, 200)) - 1.005) <= 1e-9
    summable = IndependentSequence(lambda k: Fraction(1, 2**k))
    for m in range(1, 11):
        estimate = bc_upper_estimate(summable, m, 40)
        cap = Fraction(1, 2 ** (m - 1))
        assert estimate.value <= cap, m
        assert estimate.window_bound <= cap, m
    print("ACCEPTANCE 6 (estimator constants and summable-tail caps): PASS")


def test_acceptance_7_power_ratio_monotonicity():
    rng = random.Random(24680)

    def ratio(u, v, x):
        # (1 - u**x) / (1 - v**x), via expm1 to keep cancellation in check
        return math.expm1(x * math.log(u)) / math.expm1(x * math.log(v))

    for regime in ("inside", "outside"):
        for _ in range(10_000):
            if regime == "inside":
                u = rng.uniform(0.01, 0.97)
                v = u + (0.99 - u) * rng.uniform(0.01, 1.0)
            else:
                u = rng.uniform(1.02, 20.0)
                v = u * rng.uniform(1.01, 3.0)
            x1 = rng.uniform(0.1, 20.0)
            x2 = x1 + rng.uniform(0.01, 20.0)
            assert ratio(u, v, x1) >= ratio(u, v, x2) - 1e-12, (u, v, x1, x2)
    print("ACCEPTANCE 7 (ratio (1-u^x)/(1-v^x) nonincreasing, 2x10000): PASS")


def test_acceptance_8_cli_contract(tmp_path, capsys):
    assert cli_main(["selftest"]) == 0
    assert "selftest: PASS" in capsys.readouterr().out
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for target in (first, second):
        code = cli_main(
            [
                "generate",
                "--seed",
                "3",
                "--events",
                "5",
                "--atoms",
                "40",
                "--output",
                str(target),
            ]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    code = cli_main(
        ["selftest", "--sharpness", "3", "--systems", "1", "--inject-violation"]
    )
    assert code == 2
    capsys.readouterr()
    print("ACCEPTANCE 8 (selftest exit 0, deterministic generate, inject 2): PASS")
