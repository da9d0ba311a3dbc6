"""Shared fixtures and brute-force oracles.

The oracles recompute probabilities and moments from raw atom data with
plain set logic and Fraction powers, independently of the package internals,
so agreement between the two is a meaningful check.
"""

import random
from fractions import Fraction

import pytest

from unionbounds import EventSystem, build_system, random_system

S2_WEIGHTS = ("1/4", "1/4", "1/4", "1/4")
S2_EVENTS = ((0, 1), (0, 2))
S3_WEIGHTS = ("1/10", "1/5", "1/4", "3/20", "1/5", "1/10")
S3_EVENTS = ((0, 1, 2), (1, 3), (2, 3, 4))


@pytest.fixture
def s2() -> EventSystem:
    return build_system(S2_WEIGHTS, S2_EVENTS)


@pytest.fixture
def s3() -> EventSystem:
    return build_system(S3_WEIGHTS, S3_EVENTS)


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
