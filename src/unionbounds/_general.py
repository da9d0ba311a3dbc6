"""The certified general bound and the Holder bound.

``general_bound`` bounds sum(r) from generalised moments on any chosen index
window and certifies the direction by an explicit sign certificate. The
package and ``bounds`` import this module on first use of one of its names,
and ``unions.holder_union_bound`` when it is called: no report row reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from ._numeric import Number, Record, all_exact, integral_value
from .bounds import _FLOAT_SLACK, _finite


class CertificateError(ArithmeticError):
    """The sign certificate of a chosen index window failed."""


class InfeasibleIndicesError(ArithmeticError):
    """The moment-matching vector on the chosen window has negative mass."""


class GeneralBoundOutcome(Record):
    """Result of the certified general bound on a chosen index window."""

    _fields = (
        "bound_value", "direction", "indices", "coefficients", "sign_certificate",
        "solution",
    )

    def __init__(
        self,
        bound_value: Number,
        direction: str,
        indices: tuple[int, ...],
        coefficients: tuple[Number, ...],
        sign_certificate: tuple[Number, ...],
        solution: Mapping[int, Number],
    ) -> None:
        self.__dict__.update(
            bound_value=bound_value,
            direction=direction,
            indices=indices,
            coefficients=coefficients,
            sign_certificate=sign_certificate,
            solution=solution,
        )


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


def holder_lower_bound(alpha1: Number, alphap: Number, p: float) -> float:
    """Lower bound on P(union) from the first and p-th occupancy moments.

    ((E xi)**p / E xi**p) ** (q/p) with 1/p + 1/q = 1. p = 2 recovers the
    classic second-moment bound; larger p never improves on it.
    """
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p!r}")
    for value in (alpha1, alphap):
        if isinstance(value, bool) or not _finite(value):
            raise ValueError(f"moments must be finite numbers, got {value!r}")
    if alpha1 < 0 or alphap < 0:
        raise ValueError("moments must be non-negative")
    if alpha1 == 0:
        return 0.0
    if alphap == 0:
        raise ValueError("alphap must be positive when alpha1 is")
    p_f = float(p)
    return (float(alpha1) ** p_f / float(alphap)) ** (1.0 / (p_f - 1.0))


def _zero_like(*values: Number) -> Number:
    return Fraction(0) if all_exact(*values) else 0.0


def general_bound(
    features: Sequence[Sequence[Number]],
    sbar: Sequence[Number],
    indices: Sequence[int],
    direction: str,
) -> GeneralBoundOutcome:
    """Certified bound from generalized moments on a chosen index window.

    Solves for coefficients making the chosen feature columns combine to one,
    checks the sign certificate c_i = 1 - sum_j coeff_j * f[j][i-1] over all
    columns (c_i >= 0 certifies a lower bound, c_i <= 0 an upper bound), and
    reads the bound off the unique vector supported on ``indices`` that
    reproduces the moments. Indices are 1-based support positions. Features,
    moments and indices must be finite numbers, never bools.
    """
    if direction not in ("lower", "upper"):
        raise ValueError("direction must be 'lower' or 'upper'")
    rows = [tuple(row) for row in features]
    ell = len(rows)
    if ell == 0:
        raise ValueError("at least one feature row is required")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("feature rows must all have the same length")
    if any(isinstance(x, bool) for row in rows for x in row):
        raise ValueError("feature values must be numbers, not bools")
    if not all(_finite(x) for row in rows for x in row):
        raise ValueError("feature values must be finite")
    if any(x < 0 for row in rows for x in row):
        raise ValueError("feature values must be non-negative")
    moments = tuple(sbar)
    if len(moments) != ell:
        raise ValueError("one moment per feature row is required")
    if any(isinstance(x, bool) for x in moments):
        raise ValueError("moments must be numbers, not bools")
    if not all(map(_finite, moments)):
        raise ValueError("moments must be finite")
    indices = tuple(indices)
    idx = tuple(None if isinstance(i, bool) else integral_value(i) for i in indices)
    if None in idx:
        raise ValueError(f"indices must be integers, got {indices!r}")
    if len(idx) != ell:
        raise ValueError("one index per feature row is required")
    if any(not 1 <= i <= n for i in idx) or any(
        idx[j] >= idx[j + 1] for j in range(ell - 1)
    ):
        raise ValueError("indices must be strictly increasing and within 1..n")
    exact = all_exact(*moments) and all_exact(*(x for row in rows for x in row))
    tol = 0.0 if exact else _FLOAT_SLACK
    try:
        coeff = solve_linear(
            [[rows[j][i - 1] for j in range(ell)] for i in idx], [1] * ell
        )
    except ValueError as exc:
        raise ValueError(f"singular index system for indices {idx}") from exc
    certificate = []
    for i in range(1, n + 1):
        c = 1 - sum(coeff[j] * rows[j][i - 1] for j in range(ell))
        certificate.append(c)
        if direction == "lower" and c < -tol:
            raise CertificateError(
                f"sign certificate violated at index {i}: c = {c} < 0"
            )
        if direction == "upper" and c > tol:
            raise CertificateError(
                f"sign certificate violated at index {i}: c = {c} > 0"
            )
    masses = solve_linear(
        [[rows[k][i - 1] for i in idx] for k in range(ell)], list(moments)
    )
    mass_scale = max(1.0, abs(float(moments[0])))
    solution: dict[int, Number] = {}
    for i, mass in zip(idx, masses):
        if mass < -tol * mass_scale:
            raise InfeasibleIndicesError(
                f"negative mass {mass} at index {i}; move the window"
            )
        solution[i] = mass if mass > 0 else _zero_like(mass)
    bound = sum(solution.values())
    return GeneralBoundOutcome(
        bound, direction, idx, tuple(coeff), tuple(certificate), solution
    )
