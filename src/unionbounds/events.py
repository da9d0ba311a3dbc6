"""Exact finite probability spaces.

A space is a list of weighted atoms plus events given as atom subsets.
Weights are exact rationals, so union probabilities, occupancy profiles and
per-event moments come out exact; these feed the bound computations and act
as the ground-truth oracle in tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from numbers import Real
from typing import Iterable, Sequence

from ._numeric import Number, Record, integral_value, rpow
from .bounds import _exponent_params

JointRow = tuple[tuple[int, int], ...]  # (level i, D * P(xi = i, A_k)) pairs


class EventSystem(Record):
    """N events over weighted atoms.

    weights[j] is the probability of atom j; events[k] lists the atoms of
    event k in increasing order. Events may be empty. Use build_system for a
    validated constructor.
    """

    _fields = ("weights", "events")

    def __init__(
        self, weights: tuple[Fraction, ...], events: tuple[tuple[int, ...], ...]
    ) -> None:
        self.__dict__.update(weights=weights, events=events)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def occupancy_counts(self) -> tuple[int, ...]:
        """How many events cover each atom."""
        counts = [0] * self.n_atoms
        for event in self.events:
            for atom in event:
                counts[atom] += 1
        return tuple(counts)

    @cached_property
    def joint_table(self) -> tuple[int, tuple[int, ...], tuple[JointRow, ...]]:
        """(D, levels, rows): the joint table P(xi = i, A_k) in integers.

        D is the common weight denominator, levels[i] = D * P(xi = i) for
        i = 0..N, and rows[k] holds (i, D * P(xi = i, A_k)) only for the
        levels i that event k hits. Every per-system statistic reads it.
        """
        counts = self.occupancy_counts
        ratios = [w.as_integer_ratio() for w in self.weights]  # each weight read once
        denominator = math.lcm(*{d for _, d in ratios})
        numerators = [n * (denominator // d) for n, d in ratios]
        levels = [0] * (self.n_events + 1)
        for count, numerator in zip(counts, numerators):
            levels[count] += numerator
        rows = []
        for event in self.events:
            row: dict[int, int] = {}
            for atom in event:
                level = counts[atom]
                row[level] = row.get(level, 0) + numerators[atom]
            rows.append(tuple(row.items()))
        return denominator, tuple(levels), tuple(rows)

    @cached_property
    def row_values(self) -> dict:
        """Report row values of this object, filled by unions; per object."""
        return {}

    def intersection_probability(self, positions: Iterable[int]) -> Fraction:
        """P of the intersection of the listed events (Omega if empty)."""
        atoms = set(range(self.n_atoms))
        for k in positions:
            atoms.intersection_update(self.events[k])
        return sum((self.weights[atom] for atom in atoms), Fraction(0))

    def prefix(self, n: int) -> "EventSystem":
        """The subsystem keeping only the first n events."""
        if not 0 <= n <= self.n_events:
            raise ValueError(f"prefix length {n} outside 0..{self.n_events}")
        return EventSystem(self.weights, self.events[:n])


def build_system(
    weights: Iterable[object], events: Iterable[Iterable[int]]
) -> EventSystem:
    """Validated constructor.

    Weights parse through Fraction, so "1/10", "0.25", ints, floats and
    Fractions all work; they must be finite, non-negative and sum to one
    exactly, and a bool is no weight. Each distinct literal parses once.
    Event atom lists are deduplicated, sorted and range-checked; an atom
    index must be an integer value (2 or 2.0), never a bool.
    """
    parsed = []
    literals: dict[tuple[type, object], list] = {}  # -> [weight, uses]; True is not 1
    interned: dict[tuple[int, int], Fraction] = {}  # one object per equal weight
    for pos, raw in enumerate(weights):
        literal = (type(raw), raw)
        try:
            entry = literals.get(literal)
        except TypeError:  # an unhashable literal, which fails to parse below
            entry = None
        if entry is None:
            if isinstance(raw, bool):  # Fraction would read True as 1
                raise ValueError(f"weight {pos}: cannot parse {raw!r}")
            try:
                value = Fraction(raw)  # type: ignore[arg-type]
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise ValueError(f"weight {pos}: cannot parse {raw!r}") from exc
            if value < 0:
                raise ValueError(f"weight {pos} is negative: {value}")
            entry = [interned.setdefault(value.as_integer_ratio(), value), 0]
            literals[literal] = entry
        entry[1] += 1
        parsed.append(entry[0])
    total = sum((value * uses for value, uses in literals.values()), Fraction(0))
    if total != 1:
        raise ValueError(f"weights sum {total} != 1")
    n_atoms = len(parsed)
    cleaned = []
    for pos, event in enumerate(events):
        atoms = list(event)
        if not all(type(atom) is int for atom in atoms):  # bools fail here
            atoms = [_atom_index(pos, atom) for atom in atoms]
        atoms = sorted(set(atoms))
        if atoms and (atoms[0] < 0 or atoms[-1] >= n_atoms):
            raise ValueError(
                f"event {pos} references an atom outside 0..{n_atoms - 1}"
            )
        cleaned.append(tuple(atoms))
    return EventSystem(tuple(parsed), tuple(cleaned))


def _atom_index(pos: int, raw: object) -> int:
    index = None if isinstance(raw, bool) else integral_value(raw)  # type: ignore[arg-type]
    if index is None:
        raise ValueError(f"event {pos}: atom {raw!r} is not an integer index")
    return index


def exact_union_probability(system: EventSystem) -> Fraction:
    """P(A_1 u ... u A_N), the mass of the atoms covered at least once."""
    denominator, levels, _ = system.joint_table
    return Fraction(sum(levels[1:]), denominator)


class OccupancyProfile(Record):
    """p[i] = P(exactly i of the events occur), i = 0..N."""

    _fields = ("p",)

    def __init__(self, p: tuple[Fraction, ...]) -> None:
        self.__dict__["p"] = p

    @property
    def n_events(self) -> int:
        return len(self.p) - 1


def occupancy_profile(system: EventSystem) -> OccupancyProfile:
    denominator, levels, _ = system.joint_table
    return OccupancyProfile(tuple(Fraction(v, denominator) for v in levels))


def power_moments(system: EventSystem, k: Number) -> Number:
    """alpha_k = E xi**k where xi counts how many events occur, from
    ``_table_sums`` on the one row of occupied levels: exact for an integral
    k, else a float summed over the occupied levels in level order."""
    if isinstance(k, bool) or not isinstance(k, Real) or not 0 < k < math.inf:
        raise ValueError(f"k must be a positive finite number, got {k!r}")
    denominator, levels, _ = system.joint_table
    occupied = [(i, v) for i, v in enumerate(levels) if i and v]
    if not occupied:
        return Fraction(0)
    ((total,),), d = _table_sums([occupied], occupied[-1][0], k, 1, 1, 0, denominator)
    return total if d is None else Fraction(total, d)


def _table_sums(
    rows: Sequence, top: int, a: Number, rho: Number, count: int, shift: int, d: int
) -> tuple[tuple[tuple[Number, ...], ...], int | None]:
    """(sums, D or None) with sums[j][k] = sum of i**(a + j*rho - shift) * v
    over the (level i, D * mass v) pairs of rows[k], for j < count: the one
    place the library sums powers of the levels against the joint table.

    At integral a and rho the sums are integers over D, with no division.
    Other exponents give floats (and None): each power times the float mass
    v / D, added in row order from 0.0, with levels 1..top powered."""
    ia, irho = integral_value(a), integral_value(rho)
    if ia is not None and irho is not None:
        # one pass over the rows: level i adds v * i**(a-shift) * (i**rho)**j
        base = [0] + [i ** (ia - shift) for i in range(1, top + 1)]
        step = [0] + [i**irho for i in range(1, top + 1)]
        sums = [[0] * len(rows) for _ in range(count)]
        for k, row in enumerate(rows):
            for i, v in row:
                term, x = base[i] * v, step[i]
                for total in sums:
                    total[k] += term
                    term *= x
        return tuple([*map(tuple, sums)]), d
    # each mass v / D once per entry, each exponent once per moment
    masses = [[(i, v / d) for i, v in row] for row in rows]
    floats = []
    for j in range(count):
        powers = [0.0, *map(rpow, range(1, top + 1), repeat(a + j * rho - shift))]
        totals = []
        for row in masses:  # plain additions: sum() compensates from 3.12 on
            total = 0.0
            for i, x in row:
                total += powers[i] * x
            totals.append(total)
        floats.append(tuple(totals))
    return tuple(floats), None


class PerEventMoments(Record):
    """Per-event moments of the occupancy-deflated masses.

    sbar[j][k] = sum_i i**(a + j*rho - 1) * P(xi = i, A_k), the j+1-th power
    moment of the vector r_i(k) = P(xi = i, A_k) / i whose total recovers the
    union probability when summed over k. _sums[j][k] is its integer sum
    over the joint table's denominator at integral a and rho (sbar builds the
    Fractions on first read), and the float itself otherwise (_denominator
    None).
    """

    _fields = ("a", "rho", "n_events", "_sums", "_denominator")

    def __init__(
        self,
        a: Number,
        rho: Number,
        n_events: int,
        _sums: tuple[tuple[Number, ...], ...],
        _denominator: int | None,
    ) -> None:
        self.__dict__.update(
            a=a, rho=rho, n_events=n_events, _sums=_sums, _denominator=_denominator
        )

    @cached_property
    def sbar(self) -> tuple[tuple[Number, ...], ...]:
        denominator = self._denominator
        if denominator is None:
            return self._sums
        return tuple(tuple(Fraction(s, denominator) for s in row) for row in self._sums)


def per_event_moments(
    system: EventSystem, a: Number = 1, rho: Number = 1, ell: int = 3
) -> PerEventMoments:
    """Compute sbar_j(k) for every event, exactly when a and rho are integers:
    then as integer sums over the joint table's denominator, no division.
    The exponents are checked as ``ExponentParams`` checks them."""
    ell = _exponent_params(a, rho, ell, 1).ell
    n = system.n_events
    denominator, _, table = system.joint_table
    sums, d = _table_sums(table, n, a, rho, ell, 1, denominator)
    return PerEventMoments(a, rho, n, sums, d)


def random_system(
    seed: int, n_events: int, n_atoms: int, profile: str = "dense"
) -> EventSystem:
    """Deterministic pseudo-random system: same arguments, same system.

    The system is built straight from the draws: one Fraction per distinct
    weight, shared by the atoms that drew it, and events as the sorted tuples
    of distinct atoms that build_system would give. The seed and both counts
    must be ints, not bools; a negative seed gives the system of its absolute
    value, as random.Random does. Profiles: "dense" puts each atom in each
    event with chance 1/2; "sparse" keeps expected event sizes near two
    atoms; "disjoint-ish" deals the atoms into nearly disjoint blocks with
    light leakage.
    """
    for name, value in (("seed", seed), ("n_events", n_events), ("n_atoms", n_atoms)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, not {value!r}")
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    rng = random.Random(seed)
    raw = [rng.randint(0, 9) for _ in range(n_atoms)]
    if not any(raw):
        raw[rng.randrange(n_atoms)] = 1
    total = sum(raw)
    shared = [Fraction(value, total) for value in range(10)]
    weights = tuple([shared[value] for value in raw])
    draw = rng.random
    if profile == "dense" or profile == "sparse":
        chance = 0.5 if profile == "dense" else min(0.5, 2.0 / n_atoms)
        events = [
            tuple([atom for atom in range(n_atoms) if draw() < chance])
            for _ in range(n_events)
        ]
    elif profile == "disjoint-ish":
        order = list(range(n_atoms))
        rng.shuffle(order)
        blocks = [order[k::n_events] for k in range(n_events)]
        for block in blocks:
            if draw() < 0.25:
                block.append(rng.randrange(n_atoms))
        events = [tuple(sorted(set(block))) for block in blocks]
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return EventSystem(weights, tuple(events))
