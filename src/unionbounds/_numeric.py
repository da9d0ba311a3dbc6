"""Low-level numeric plumbing shared by the bound computations.

Arithmetic runs in two modes: exact ``fractions.Fraction`` whenever the inputs
are rational and the exponents are integers, IEEE doubles otherwise. The
helpers here keep that dispatch in one place so the bound formulas read like
the mathematics. ``Record`` is the base of the frozen value records.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union

Number = Union[int, float, Fraction]


def is_exact(x: Number) -> bool:
    """True for values carried in exact rational arithmetic. Exact types
    first: the ``Rational`` ABC check costs several times as much."""
    t = type(x)
    return t is Fraction or t is int or (t is not float and isinstance(x, Rational))


def all_exact(*values: Number) -> bool:
    return all(map(is_exact, values))


def integral_value(x: Number) -> int | None:
    """Return ``x`` as a plain int when it is integer valued, else None."""
    if isinstance(x, float):  # first: the float rows ask most often
        return int(x) if x.is_integer() else None
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    return None


def rpow(base: Number, exponent: Number) -> Number:
    """``base ** exponent``, exact when both allow it.

    Integer exponents on rational bases stay rational (negative exponents
    require a non-zero base); everything else falls back to float.
    """
    e = integral_value(exponent)
    if e is not None and is_exact(base):
        if e >= 0:
            return base**e
        if base != 0:
            return Fraction(base) ** e
    return float(base) ** float(exponent)


def floor_root(value: Number, degree: int) -> int:
    """Largest integer b >= 0 with b**degree <= value, computed exactly.

    ``value`` must be a non-negative rational.
    """
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if value < 0:
        raise ValueError("floor_root requires a non-negative value")
    # floor(x**(1/d)) == floor(floor(x)**(1/d)), so integers suffice
    if type(value) is not int:
        value = Fraction(value)
        value = value.numerator // value.denominator
    if degree == 1 or value < 2:
        return value
    if degree == 2:
        return math.isqrt(value)
    # Newton's iteration from a power of two above the root decreases
    # monotonically and stops at the floor; no float, so no overflow
    b = 1 << -(-value.bit_length() // degree)
    while True:
        nxt = ((degree - 1) * b + value // b ** (degree - 1)) // degree
        if nxt >= b:
            return b
        b = nxt


class Record:
    """Base of the library's frozen value records, without the cost of
    generating a dataclass in every process.

    A subclass names its fields in ``_fields`` and stores them through
    ``self.__dict__`` in its own ``__init__``. Equality (same class only),
    hash and repr read those fields as a frozen dataclass would; assigning
    or deleting an attribute raises AttributeError. ``cached_property``
    values go to ``__dict__`` directly and are not fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields  # positional ``case`` patterns

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DataclassFields:
    """``__dataclass_fields__`` that makes its class a dataclass on first read."""

    def __get__(self, obj: object, cls: type) -> dict:
        from dataclasses import dataclass
        return dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__
