"""Tests for the finite-probability-space layer, checked against the naive
set-based oracles in conftest."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    naive_joint_occupancy,
    naive_occupancy_counts,
    naive_occupancy_profile,
    naive_per_event_moment,
    naive_power_moment,
    naive_union_probability,
    sample_systems,
)
from unionbounds import (
    EventSystem,
    ExponentParams,
    build_system,
    compare_bounds,
    exact_union_probability,
    occupancy_profile,
    per_event_moments,
    power_moments,
    random_system,
)
from unionbounds.cli import serialize_system


def test_build_system_parses_weight_formats():
    system = build_system(["1/2", "0.25", Fraction(1, 8), 0.125], [[0], [1, 2]])
    assert system.weights == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 8),
    )
    assert system.n_atoms == 4
    assert system.n_events == 2


def test_build_system_sorts_and_dedupes_events():
    system = build_system(["1/2", "1/2"], [[1, 0, 1]])
    assert system.events == ((0, 1),)


def test_build_system_validation_errors():
    with pytest.raises(ValueError, match=r"weights sum 9/10 != 1"):
        build_system(["1/10", "2/10", "3/10", "3/10"], [[0]])
    with pytest.raises(ValueError, match="negative"):
        build_system(["-1/2", "3/2"], [[0]])
    with pytest.raises(ValueError, match="outside"):
        build_system(["1/2", "1/2"], [[0, 2]])
    with pytest.raises(ValueError, match="cannot parse"):
        build_system(["bogus", "1/2"], [[0]])


def test_build_system_rejects_bool_and_fractional_atoms():
    for bad in ([[0.9, 1.7]], [[True]], [[0, False]], [["1"]], [[math.nan]]):
        with pytest.raises(ValueError, match="not an integer index"):
            build_system(["1/2", "1/2"], bad)
    system = build_system(["1/2", "1/4", "1/4"], [[2, 0], [2.0, Fraction(1)]])
    assert system.events == ((0, 2), (1, 2))
    assert all(type(atom) is int for event in system.events for atom in event)


def test_build_system_rejects_bool_weights():
    for weights, pos, raw in (
        ([True, False], 0, True),
        ([0, False, 1], 1, False),  # a bool never shares the parse of 0 or 1
        ([1, True], 1, True),
    ):
        with pytest.raises(ValueError, match=f"^weight {pos}: cannot parse {raw}$"):
            build_system(weights, [[0]])


def test_build_system_names_the_first_bad_weight_of_repeated_literals():
    with pytest.raises(ValueError, match="^weight 1: cannot parse 'x'$"):
        build_system(["1/2", "x", "x"], [[0]])
    with pytest.raises(ValueError, match="^weight 1 is negative: -1/4$"):
        build_system(["1/2", "-1/4", "1/2", "-1/4", "1/2"], [[0]])
    with pytest.raises(ValueError, match=r"^weights sum 3/2 != 1$"):
        build_system(["1/2", "1/2", "1/2"], [[0]])
    system = build_system(["1/8", 0.125, "1/8", "2/16", 0.125, "3/8"], [[0]])
    assert system.weights == (Fraction(1, 8),) * 5 + (Fraction(3, 8),)
    assert all(weight is system.weights[0] for weight in system.weights[:5])


def test_build_system_rejects_non_finite_weights():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="weight 1: cannot parse"):
            build_system([1, bad], [[0]])


def test_build_system_allows_empty_events():
    system = build_system(["1"], [[], [0]])
    assert system.intersection_probability([0]) == 0
    assert system.intersection_probability([1]) == 1
    assert exact_union_probability(system) == 1


def test_s2_probabilities(s2):
    assert exact_union_probability(s2) == Fraction(3, 4)
    assert s2.intersection_probability([0]) == Fraction(1, 2)
    assert s2.intersection_probability([0, 1]) == Fraction(1, 4)
    assert occupancy_profile(s2).p == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert power_moments(s2, 1) == 1
    assert power_moments(s2, 2) == Fraction(3, 2)


def test_s3_probabilities(s3):
    assert exact_union_probability(s3) == Fraction(9, 10)
    assert occupancy_profile(s3).p == (
        Fraction(1, 10),
        Fraction(3, 10),
        Fraction(3, 5),
        Fraction(0),
    )
    assert power_moments(s3, 1) == Fraction(3, 2)
    assert power_moments(s3, 2) == Fraction(27, 10)
    assert power_moments(s3, 3) == Fraction(51, 10)
    assert s3.intersection_probability([0, 1]) == Fraction(1, 5)
    assert s3.intersection_probability([0, 2]) == Fraction(1, 4)
    assert s3.intersection_probability([1, 2]) == Fraction(3, 20)
    assert s3.intersection_probability([0, 1, 2]) == 0
    assert s3.intersection_probability([]) == 1


def test_power_moments_validation(s2):
    for bad in (0, -1, Fraction(-1, 2), math.nan, math.inf, True, False, "2"):
        with pytest.raises(ValueError, match="positive finite"):
            power_moments(s2, bad)


def test_power_moments_non_integral_is_the_float_level_sum():
    for system in sample_systems(20, seed=83) + _wide_systems():
        denominator, levels, _ = system.joint_table
        for k in (0.5, 1.5, Fraction(5, 4), 2.3):
            naive = 0.0
            for i, v in enumerate(levels):
                if i and v:
                    naive += float(i) ** float(k) * (v / denominator)
            value = power_moments(system, k)
            assert isinstance(value, float)
            assert value == naive  # bit for bit, same order
        for k in (2, 2.0, Fraction(2)):
            assert power_moments(system, k) == naive_power_moment(system, 2)
            assert isinstance(power_moments(system, k), Fraction)


def test_power_moments_of_a_null_union_stay_exact():
    system = build_system(["1/2", "1/2"], [[], []])
    for k in (1, 1.5, 2):
        value = power_moments(system, k)
        assert value == 0 and type(value) is Fraction


def test_s3_per_event_moments(s3):
    moments = per_event_moments(s3, 1, 1, ell=3)
    assert [row[0] for row in moments.sbar] == [
        Fraction(11, 20),
        Fraction(1),
        Fraction(19, 10),
    ]
    assert [row[1] for row in moments.sbar] == [
        Fraction(7, 20),
        Fraction(7, 10),
        Fraction(7, 5),
    ]
    assert [row[2] for row in moments.sbar] == [
        Fraction(3, 5),
        Fraction(1),
        Fraction(9, 5),
    ]
    assert moments.n_events == 3


def test_s2_per_event_moments_match_spec_values(s2):
    moments = per_event_moments(s2, 1, 1, ell=3)
    for k in range(2):
        assert [moments.sbar[j][k] for j in range(3)] == [
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(5, 4),
        ]
    higher = per_event_moments(s2, 2, 1, ell=2)
    for k in range(2):
        assert [higher.sbar[j][k] for j in range(2)] == [Fraction(3, 4), Fraction(5, 4)]


def test_per_event_moments_match_naive_oracle():
    rng = random.Random(71)
    for system in sample_systems(20, seed=71):
        a, rho = rng.randint(1, 2), rng.randint(1, 2)
        ell = rng.choice((2, 3))
        moments = per_event_moments(system, a, rho, ell=ell)
        for k in range(system.n_events):
            for j in range(ell):
                assert moments.sbar[j][k] == naive_per_event_moment(
                    system, k, j + 1, a, rho
                )


def _wide_systems():
    """Sparse systems with many events, some of them empty."""
    many = random_system(5, 120, 90, "sparse")
    assert any(not event for event in many.events)
    holes = build_system(
        ["1/6", "1/3", "1/6", "1/3"], [[], [0, 1], [], [1, 2, 3], [3], []]
    )
    return [many, holes]


def test_table_statistics_match_naive_oracles_on_wide_systems():
    for system in _wide_systems():
        denominator, _, rows = system.joint_table
        naive = naive_joint_occupancy(system)
        for k, row in enumerate(rows):
            assert len({i for i, _ in row}) == len(row)  # one entry per level
            dense = [0] * system.n_events
            for i, v in row:
                dense[i - 1] = v
            assert dense == [level[k] * denominator for level in naive]
        assert occupancy_profile(system).p == tuple(naive_occupancy_profile(system))
        for a, rho in ((1, 1), (2, 1)):
            moments = per_event_moments(system, a, rho, ell=3)
            for k in range(system.n_events):
                for j in range(3):
                    assert moments.sbar[j][k] == naive_per_event_moment(
                        system, k, j + 1, a, rho
                    )


def test_per_event_moments_float_mode_matches_naive_float_sum():
    for system in sample_systems(10, seed=29) + _wide_systems():
        counts = naive_occupancy_counts(system)
        a, rho = 1.5, 1.25
        moments = per_event_moments(system, a, rho, ell=3)
        for k, event in enumerate(system.events):
            for j in range(3):
                naive = sum(
                    float(counts[atom]) ** (a + j * rho - 1)
                    * float(system.weights[atom])
                    for atom in event
                )
                assert isinstance(moments.sbar[j][k], float)
                assert moments.sbar[j][k] == pytest.approx(naive, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "a, rho", [(Fraction(3, 2), Fraction(5, 4)), (Fraction(1, 2), Fraction(1, 3))]
)
def test_per_event_moments_at_fraction_exponents_are_direct_float_sums(a, rho):
    """Each float moment is float(i) ** float(a + j*rho - 1) times the float
    mass P(xi = i, A_k), summed over the event's levels in the order its
    atoms first reach them: the same bits, however the exponents and masses
    are shared between events and moments."""
    cli_shape = random_system(41, 300, 3000, "sparse")
    for system in [cli_shape, *_wide_systems(), *sample_systems(10, seed=31)]:
        counts = naive_occupancy_counts(system)
        moments = per_event_moments(system, a, rho, ell=3)
        for k, event in enumerate(system.events):
            masses: dict[int, Fraction] = {}
            for atom in event:
                level = counts[atom]
                masses[level] = masses.get(level, 0) + system.weights[atom]
            for j in range(3):
                e = float(a + j * rho - 1)
                direct = 0.0  # plain additions, whatever sum() does
                for i, v in masses.items():
                    direct += float(i) ** e * float(v)
                assert moments.sbar[j][k].hex() == direct.hex()


def test_report_makes_one_pass_over_incidences(monkeypatch):
    table = EventSystem.__dict__["joint_table"]
    passes = []
    build = table.func

    def counted(system):
        passes.append(system)
        return build(system)

    monkeypatch.setattr(table, "func", counted)
    system = random_system(11, 6, 40, "dense")
    for a, rho in ((1, 1), (2, 1), (1.5, 1.25)):
        assert compare_bounds(system, a, rho).all_pass
    assert passes == [system]


def test_build_system_interns_equal_weights():
    system = build_system(["1/4", Fraction(1, 4), 0.25, "2/8"], [[0, 1]])
    assert system.weights == (Fraction(1, 4),) * 4
    assert all(weight is system.weights[0] for weight in system.weights)


def test_per_event_moments_float_mode(s3):
    moments = per_event_moments(s3, 1.5, 1.0, ell=2)
    exactish = naive_per_event_moment(s3, 0, 1, 1, 1)  # a=1.5 has no exact twin
    assert isinstance(moments.sbar[0][0], float)
    # spot value: sum over atoms of count**0.5 * weight for event 0
    expected = float(Fraction(1, 10)) + 2**0.5 * float(Fraction(9, 20))
    assert moments.sbar[0][0] == pytest.approx(expected)
    assert exactish == Fraction(11, 20)


def test_per_event_moments_requires_two_moments(s3):
    with pytest.raises(ValueError):
        per_event_moments(s3, 1, 1, ell=1)


@pytest.mark.parametrize(
    "a, rho, ell",
    [
        (True, 1, 3),
        (1, False, 3),
        (0, 1, 3),
        (-1, 1, 3),
        (math.nan, 1, 3),
        (1, math.inf, 3),
        (1, 1, 2.5),
    ],
)
def test_per_event_moments_checks_exponents_as_exponent_params_does(a, rho, ell):
    # a bool is no 1, a non-positive or non-finite exponent gives no moments,
    # and a fractional ell is no count
    with pytest.raises(ValueError) as expected:
        ExponentParams(a, rho, ell, 1)
    with pytest.raises(ValueError) as raised:
        per_event_moments(random_system(1, 3, 8, "dense"), a, rho, ell)
    assert str(raised.value) == str(expected.value)


def test_per_event_moments_of_no_events_are_empty():
    system = build_system(["1/2", "1/2"], [])
    assert per_event_moments(system, 1, 1).sbar == ((), (), ())
    assert per_event_moments(system, 1.5, 1.25, 2.0).sbar == ((), ())


def test_oracle_agreement_on_random_systems():
    for system in sample_systems(25, seed=13):
        assert exact_union_probability(system) == naive_union_probability(system)
        assert occupancy_profile(system).p == tuple(naive_occupancy_profile(system))
        for k in (1, 2, 3):
            assert power_moments(system, k) == naive_power_moment(system, k)
        assert sum(occupancy_profile(system).p, Fraction(0)) == 1


def test_joint_occupancy_marginals(s3):
    denominator, levels, rows = s3.joint_table
    for k, row in enumerate(rows):
        assert Fraction(sum(v for _, v in row), denominator) == (
            s3.intersection_probability([k])
        )
    for i in range(1, s3.n_events + 1):
        assert sum(v for row in rows for level, v in row if level == i) == (
            i * levels[i]
        )


def test_prefix(s3):
    prefix = s3.prefix(2)
    assert prefix.n_events == 2
    assert prefix.events == s3.events[:2]
    assert prefix.weights == s3.weights
    with pytest.raises(ValueError):
        s3.prefix(4)


def test_random_system_determinism():
    a = random_system(42, 4, 20, "dense")
    b = random_system(42, 4, 20, "dense")
    c = random_system(43, 4, 20, "dense")
    assert a == b
    assert a != c
    assert random_system(-42, 4, 20, "dense") == a  # random.Random takes abs(seed)


def test_random_system_profiles_are_valid():
    """What build_system would check or normalise holds as generated."""
    rng = random.Random(32)
    for i in range(240):
        profile = ("dense", "sparse", "disjoint-ish")[i % 3]
        n_events = rng.randint(1, 30)
        n_atoms = rng.choice([1, 2, rng.randint(1, 8), rng.randint(1, 120)])
        system = random_system(rng.randrange(-(2**40), 2**40), n_events, n_atoms, profile)
        assert system == build_system(system.weights, system.events)
        assert sum(system.weights, Fraction(0)) == 1
        assert all(type(w) is Fraction and w >= 0 for w in system.weights)
        # equal weights are one object, as build_system's interning gives them
        assert len({id(w) for w in system.weights}) == len(set(system.weights))
        assert type(system.weights) is tuple and type(system.events) is tuple
        assert system.n_events == n_events
        for event in system.events:
            assert type(event) is tuple
            assert all(type(atom) is int for atom in event)
            assert list(event) == sorted(set(event))
            assert all(0 <= atom < n_atoms for atom in event)


def test_random_system_errors():
    with pytest.raises(ValueError):
        random_system(1, 0, 5)
    with pytest.raises(ValueError):
        random_system(1, 5, 0)
    with pytest.raises(ValueError):
        random_system(1, 2, 5, "bogus")
    for args in (
        (None, 2, 3),  # would seed from the operating system's entropy
        (True, 2, 3),
        (1.0, 2, 3),
        ("7", 2, 3),
        (1, True, 3),
        (1, 2, True),
        (1, 2.0, 3),
        (1, 2, 3.0),
        (1, Fraction(2), 3),
    ):
        with pytest.raises(ValueError, match="must be an int"):
            random_system(*args)


# sha256 of cli.serialize_system(random_system(*case)): the generator's output
# is byte-identical across versions and interpreters. (2, 3, 1) draws a single
# 0 and takes the randrange fallback; (0, 12, 5) and (16, 9, 4) have empty
# events and leakage draws that repeat an atom; the last two are the CLI
# benchmark shapes.
GENERATOR_DIGESTS = {
    (2, 3, 1, "dense"): "56cb5ca4ca539c8db09d30864abb586c5bc5237a6f51843d2c7cc18137b5c16a",
    (2, 3, 1, "sparse"): "56cb5ca4ca539c8db09d30864abb586c5bc5237a6f51843d2c7cc18137b5c16a",
    (2, 3, 1, "disjoint-ish"): "56cb5ca4ca539c8db09d30864abb586c5bc5237a6f51843d2c7cc18137b5c16a",
    (0, 12, 5, "disjoint-ish"): "aa8b21bb1fe31a6de9a8d3822b83b51304ee7f69290022ed25d9ffef43c566ff",
    (16, 9, 4, "disjoint-ish"): "d321fee93e8e1eb0300d1beaefba05905034e989fd1c5e2f88f0b7c7ba2de9a4",
    (0, 5, 30, "dense"): "a5bb266c81dd83ad626b8eb870fafd722d024867cb009f8df83adb793dbe7e25",
    (1, 8, 40, "sparse"): "ec255cfc485c86d6794f3007be040dfdee5cf5bd3fa8562eaf6168277f4d3c37",
    (4, 6, 50, "disjoint-ish"): "839b02ea7678ec77754201f2222a52cdf09642d5c07434a87b029f004c85d276",
    (-5, 4, 20, "dense"): "53052d9af8aa979a93316f0722b65a847f4545e505751ecfb13118d6090ed406",
    (7, 300, 3000, "sparse"): "a16640f670baf1fc3583175d8881e5093cbe2557ef9ca7c75b42b7e933c93272",
    (7, 20, 1000, "dense"): "113947eb2f85562db35d859712000f52b484182afa17820219f2b79ad0821821",
}


@pytest.mark.parametrize("case", GENERATOR_DIGESTS, ids=lambda case: "_".join(map(str, case)))
def test_random_system_stream_is_pinned(case):
    text = serialize_system(random_system(*case))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[case]
