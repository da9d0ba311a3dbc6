"""Low-level numeric plumbing shared by the bound computations.

Arithmetic runs in two modes: exact ``fractions.Fraction`` whenever the inputs
are rational and the exponents are integers, IEEE doubles otherwise. The
helpers here keep that dispatch in one place so the bound formulas read like
the mathematics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

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


def balanced_sum(values: Sequence[Number], start: Number = 0) -> Number:
    """``start`` plus the sum of ``values``, added in a balanced pairwise tree.

    Each addition joins two partial sums of similar size, so an exact sum of
    many rationals never carries one ever larger denominator through every
    step as a running total does.
    """
    level = list(values)
    while len(level) > 1:
        paired = [a + b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return start + level[0] if level else start


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


def solve_linear(
    matrix: Sequence[Sequence[Number]], rhs: Sequence[Number]
) -> list[Number]:
    """Solve a small dense square linear system.

    Gaussian elimination with partial pivoting. The solve is exact when every
    entry is rational. Raises ValueError on a singular system.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    exact = all_exact(*(x for row in matrix for x in row)) and all_exact(*rhs)
    if exact:
        aug = [
            [Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)
        ]
    else:
        aug = [
            [float(x) for x in row] + [float(b)] for row, b in zip(matrix, rhs)
        ]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ValueError("singular linear system")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / head
            if factor == 0:
                continue
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    solution: list[Number] = [0] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n]
        for c in range(r + 1, n):
            acc -= aug[r][c] * solution[c]
        solution[r] = acc / aug[r][r]
    return solution
