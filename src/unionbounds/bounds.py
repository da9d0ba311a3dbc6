"""Sharp bounds on the sum of a non-negative vector from its power moments.

Given s_k = sum_i i**(a + (k-1)*rho) * r_i for an unknown non-negative vector
r over indices 1..n, the functions here return certified lower and upper
bounds on sum(r) from two or three moments; a general engine handles
arbitrary non-negative feature rows with an explicit sign certificate.

Each refined bound is the total mass of the vector that matches the moments
on its index window, and one kernel, ``_window_bound``, computes it for exact
and float input alike. The arithmetic is fixed once per moment vector and
kept on it: the moments as integers over their common denominator when they
are rational and a, rho are integers (``ExponentParams`` finds that once),
else IEEE doubles. A report row's vectors are built in that arithmetic
already (``_ScaledMoments``). One set of cone checks per direction runs on
those numbers (floats with a relative slack of 1e-9); only the last step
differs: one ``Fraction``, or a float sum of the point masses that raises
ArithmeticError when it is not finite or impossible. Exact simplified forms
are one Fraction of those integers where they need no root of delta: rho
dividing a in ``lower_bound_two_moments_simple``, a = rho in
"rho_ge_1_simple" (delta**a = d2/d1). Otherwise they keep closed forms: one
term formula per direction, evaluated at (delta, delta+1) for "a_le_rho",
(delta-1, delta) for "a_ge_rho" and the one point delta or delta-1 for
"rho_ge_1_simple". Every function is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ._numeric import (
    Number,
    all_exact,
    floor_root,
    integral_value,
    nth_root_exact,
    rpow,
    solve_linear,
)

_INTEGER_SNAP = 1e-9
# Relative slack of every float inequality check, until outward rounding
# certifies float results.
_FLOAT_SLACK = 1e-9

VARIANTS = ("refined", "a_le_rho", "a_ge_rho", "rho_ge_1_simple")


class MomentConsistencyError(ValueError):
    """The supplied moments cannot come from any non-negative vector."""


class CertificateError(ArithmeticError):
    """The sign certificate of a chosen index window failed."""


class InfeasibleIndicesError(ArithmeticError):
    """The moment-matching vector on the chosen window has negative mass."""


def _finite(x: Number) -> bool:
    """False for a float NaN or infinity; rationals are always finite."""
    return not isinstance(x, float) or math.isfinite(x)


def _require_finite(values: Iterable[float]) -> None:
    """Raise ValueError if a float among ``values`` is NaN or infinite."""
    if not all(map(math.isfinite, values)):
        raise ValueError("moments must be finite")


@dataclass(frozen=True)
class ExponentParams:
    """Exponent family a + (k-1)*rho, k = 1..ell, over support 1..n_support."""

    a: Number
    rho: Number
    ell: int
    n_support: int

    def __post_init__(self) -> None:
        for name in ("a", "rho", "ell", "n_support"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        for name in ("ell", "n_support"):  # integral values (3.0) kept as int
            value = getattr(self, name)
            whole = value if type(value) is int else integral_value(value)
            if whole is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, whole)
        if not _finite(self.a):
            raise ValueError("a must be finite")
        if not self.a > 0:
            raise ValueError("a must be positive")
        if not _finite(self.rho):
            raise ValueError("rho must be finite")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.ell < 2:
            raise ValueError("ell must be at least 2")
        if self.n_support < 1:
            raise ValueError("n_support must be at least 1")

    @property
    def is_integral(self) -> bool:
        return self._integral is not None

    @cached_property
    def _integral(self) -> tuple[int, int] | None:
        """(a, rho) as ints when both are integral, else None; computed once."""
        a, rho = integral_value(self.a), integral_value(self.rho)
        return None if a is None or rho is None else (a, rho)

    @property
    def exponents(self) -> tuple[Number, ...]:
        return tuple(self.a + j * self.rho for j in range(self.ell))


@dataclass(frozen=True)
class MomentVector:
    """The first ell power moments of a hidden non-negative vector.

    Integer moments are stored as Fractions."""

    sbar: tuple[Number, ...]
    params: ExponentParams

    def __post_init__(self) -> None:
        values = tuple(self.sbar)
        if len(values) != self.params.ell:
            raise ValueError(
                f"expected {self.params.ell} moments, got {len(values)}"
            )
        sbar = []
        for value in values:
            if isinstance(value, int):  # so no exact bound divides int by int
                value = Fraction(value)
            elif isinstance(value, float):
                _require_finite((value,))
            if value < 0:
                raise ValueError("moments must be non-negative")
            sbar.append(value)
        object.__setattr__(self, "sbar", tuple(sbar))

    @property
    def exact(self) -> bool:
        return self.params.is_integral and all_exact(*self.sbar)

    @cached_property
    def _values(self) -> Sequence[Number]:
        """The moments in the arithmetic the bounds run in, fixed once: on
        exact input the integers [S1, ..., S_ell, L] over their least common
        denominator L, else the floats [s1, ..., s_ell, 1.0]."""
        if not self.exact:
            return [*map(float, self.sbar), 1.0]
        scale = math.lcm(*(s.denominator for s in self.sbar))
        return [s.numerator * (scale // s.denominator) for s in self.sbar] + [scale]

    @classmethod
    def from_vector(
        cls, r: Sequence[Number], params: ExponentParams
    ) -> "MomentVector":
        """Moments of an explicit non-negative vector over 1..n_support."""
        values = tuple(r)
        if len(values) != params.n_support:
            raise ValueError(
                f"expected {params.n_support} vector entries, got {len(values)}"
            )
        if any(v < 0 for v in values):
            raise ValueError("vector entries must be non-negative")
        sbar = []
        for e in params.exponents:
            total: Number = 0
            for i, v in enumerate(values, start=1):
                if v != 0:
                    total += rpow(i, e) * v
            sbar.append(total)
        return cls(tuple(sbar), params)

    def validate(self) -> "MomentVector":
        """Check the moment-cone inequalities any genuine vector satisfies:
        the two-moment cone of every two consecutive moments, then the lower
        and upper three-moment cones of every three (the moments of the same
        vector at exponents shifted by rho).

        Raises MomentConsistencyError naming the violated inequality in the
        moments' own indices.
        """
        values, _, rho = _arithmetic(self, self.params.ell)
        *sums, scale = values
        n = self.params.n_support
        try:
            for k in range(len(sums) - 1):
                _two_moment_cone(sums[k], sums[k + 1], scale, n, rho)
            for k in range(len(sums) - 2):
                _lower_three_cone(sums[k:], scale, n, rho, strict=True)
                _upper_three_cone(sums[k:], scale, n, rho, strict=True)
        except MomentConsistencyError as exc:  # the cones name s1, s2, s3
            text = re.sub(r"\bs(\d)", lambda m: f"s{int(m[1]) + k}", str(exc))
            raise MomentConsistencyError(text) from None
        return self


class _ScaledMoments(MomentVector):
    """A report row's moments S_k/D held as (S_1, ..., S_ell, D) in the
    arithmetic the bounds run in: integers at integral a and rho, else floats
    over D = 1.0. Non-negative by construction, they skip the checks of
    ``MomentVector``: the bounds run their cone checks on these numbers,
    ``unions._moment_vectors`` checks a float row for finiteness once, and
    sbar is lazy."""

    def __init__(self, values: tuple[Number, ...], params: ExponentParams) -> None:
        self.__dict__.update(_values=values, params=params)

    @cached_property
    def sbar(self) -> tuple[Number, ...]:  # type: ignore[override]
        *sums, d = self._values
        return tuple(sums if type(d) is float else (Fraction(s, d) for s in sums))


@dataclass(frozen=True)
class _DeltaDecomposition:
    """Split of delta = (s_hi/s_lo)**(1/rho) into window coordinates.

    theta is the fractional part of delta; theta_refined is the exact-mass
    interpolation weight ((delta**rho - base**rho) / ((base+1)**rho -
    base**rho)), which equals theta when rho = 1. base = floor(delta) after
    integer snapping. A 0/0 input yields the all-zero decomposition.
    """

    delta: Number
    theta: Number
    theta_refined: Number
    base: int


@dataclass(frozen=True)
class GeneralBoundOutcome:
    """Result of the certified general bound on a chosen index window."""

    bound_value: Number
    direction: str
    indices: tuple[int, ...]
    coefficients: tuple[Number, ...]
    sign_certificate: tuple[Number, ...]
    solution: Mapping[int, Number]


def _zero_like(*values: Number) -> Number:
    return Fraction(0) if all_exact(*values) else 0.0


def _arithmetic(moments: MomentVector, ell: int) -> tuple[Sequence, Number, Number]:
    """(values, a, rho) of an ell-moment bound, in the arithmetic it runs in,
    fixed once per vector (``_values``): the integers (S_1, ..., S_ell, D) of
    the moments S_k/D with integral a and rho on exact input, else the floats
    (s_1, ..., s_ell, 1.0) with float a and rho."""
    params = moments.params
    if params.ell != ell:
        raise ValueError(f"this bound needs exactly {ell} moments")
    values = moments._values
    if type(values[-1]) is int:
        return values, *params._integral
    return values, float(params.a), float(params.rho)


def _ratio(value: Number, denominator: Number) -> Number:
    """value / denominator: one Fraction from integers, else a float."""
    if type(value) is int:
        return Fraction(value, denominator)
    return value / denominator


def _checked(value, relation: str, limit, label: str, scale, size=0) -> Number:
    """``value`` after the cone check ``value relation limit`` (">=" or
    "<="; limit None means value >= 0), both over ``scale``.

    Integers compare exactly, and a failure prints them as the rationals over
    scale. Floats may miss the limit by _FLOAT_SLACK relative to
    max(1, |value|, |limit|, |size|) and are clamped to it. The cone checks
    compare first and call this only when the plain comparison fails, so it
    is the one source of their clamps and messages."""
    bound = 0 * scale if limit is None else limit
    if type(scale) is int:
        if value >= bound if relation == ">=" else value <= bound:
            return value
        shown, shown_limit = Fraction(value, scale), Fraction(bound, scale)
    else:
        tol = _FLOAT_SLACK * max(1.0, abs(value), abs(bound), abs(size))
        if relation == ">=" and not value < bound - tol:
            return max(value, bound)
        if relation == "<=" and not value > bound + tol:
            return min(value, bound)
        shown, shown_limit = value, bound
    failed = "<" if relation == ">=" else ">"
    detail = f"got {shown}" if limit is None else f"{shown} {failed} {shown_limit}"
    raise MomentConsistencyError(f"inconsistent moments: {label} ({detail})")


def _two_moment_cone(s1, s2, scale, n: int, rho) -> Number:
    """s2 after the two-moment cone checks: s2 = 0 when s1 = 0, else
    s1 <= s2 <= n**rho * s1."""
    if s1 == 0:
        if s2 <= s1:
            return s2
        return _checked(s2, "<=", s1, "s2 must vanish when s1 does", scale)
    if not s2 >= s1:
        s2 = _checked(s2, ">=", s1, "s2 >= s1", scale)
    top = n**rho * s1
    if s2 <= top:
        return s2
    return _checked(s2, "<=", top, "s2 <= n_support**rho * s1", scale)


def _lower_three_cone(s, scale, n: int, rho, strict=False) -> tuple[Number, Number]:
    """The lower residuals d1 = n**rho * s1 - s2 and d2 = n**rho * s2 - s3 of
    s = (s1, s2, s3, ...) after their cone checks: the moments of the
    non-negative vector r_i * (n**rho - i**rho) on 1..n-1. At d1 = 0 (all
    mass at n) the bound needs only the signs; ``strict`` checks the rest."""
    s1, s2, s3 = s[:3]
    top = n**rho
    d1, d2 = top * s1 - s2, top * s2 - s3
    if not d1 >= 0:
        label = "n**rho * s1 - s2 must be non-negative"
        d1 = _checked(d1, ">=", None, label, scale, top * s1)
    if not d2 >= 0:
        label = "n**rho * s2 - s3 must be non-negative"
        d2 = _checked(d2, ">=", None, label, scale, top * s2)
    if d1 == 0 and not strict:
        return d1, d2
    if not d2 >= d1:
        d2 = _checked(d2, ">=", d1, "(n**rho*s2 - s3) >= (n**rho*s1 - s2)", scale)
    limit = (n - 1) ** rho * d1
    if d2 <= limit:
        return d1, d2
    label = "(n**rho*s2 - s3) <= (n-1)**rho * (n**rho*s1 - s2)"
    return d1, _checked(d2, "<=", limit, label, scale)


def _upper_three_cone(s, scale, n: int, rho, strict=False) -> tuple[Number, Number]:
    """The upper residuals d1 = s2 - s1 and d2 = s3 - s2 of s = (s1, s2, s3,
    ...) after their cone checks: the moments of the non-negative vector
    r_i * (i**rho - 1) on 2..n. At d1 = 0 (all mass at 1) the bound needs
    only the signs; ``strict`` checks the rest."""
    s1, s2, s3 = s[:3]
    d1, d2 = s2 - s1, s3 - s2
    if not d1 >= 0:
        d1 = _checked(d1, ">=", None, "s2 - s1 must be non-negative", scale, s2)
    if not d2 >= 0:
        d2 = _checked(d2, ">=", None, "s3 - s2 must be non-negative", scale, s3)
    if d1 == 0 and not strict:
        return d1, d2
    limit = 2**rho * d1
    if not d2 >= limit:
        d2 = _checked(d2, ">=", limit, "(s3 - s2) >= 2**rho * (s2 - s1)", scale)
    limit = n**rho * d1
    if d2 <= limit:
        return d1, d2
    return d1, _checked(d2, "<=", limit, "(s3 - s2) <= n**rho * (s2 - s1)", scale)


def _possible(value: Number, kind: str, s1: Number, n: int, a: Number) -> Number:
    """A ``kind`` bound computed in floats (s1 a float), unless it is not
    finite or lies on the impossible side of [s1/n**a, s1], where sum(r)
    always lies (1 <= i**a <= n**a): an upper bound below s1/n**a or a lower
    bound above s1, by more than the float slack. Those raise
    ArithmeticError. Exact input passes unchecked."""
    if type(s1) is not float:
        return value
    if kind == "upper":
        limit, side = s1 * (1.0 / n) ** a, ">= s1/n**a"  # underflows, never overflows
        ok = value >= limit * (1 - _FLOAT_SLACK)
    else:
        limit, side = s1, "<= s1"
        ok = value <= limit * (1 + _FLOAT_SLACK)
    if ok and math.isfinite(value):
        return value
    raise ArithmeticError(
        f"float {kind} bound {value} is impossible: sum(r) {side} = {float(limit)}"
    )


_THETA_MAX = 1.0 - 1e-12


def _delta_decomposition(
    s_lo: Number, s_hi: Number, rho: Number
) -> _DeltaDecomposition:
    """Decompose the moment ratio into integer window and splitting weights.

    Returns delta = (s_hi/s_lo)**(1/rho) with its fractional part theta and
    the refined weight theta_refined. Exact rationals are preserved whenever
    possible: base and theta_refined stay exact for integer rho even when
    delta itself is irrational, because theta_refined only needs delta**rho.
    In floating point it follows ``_float_window``, which snaps delta within
    1e-9 of an integer onto it.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if s_lo < 0 or s_hi < 0:
        raise ValueError("moments must be non-negative")
    if s_lo == 0:
        if s_hi != 0:
            raise MomentConsistencyError(
                "inconsistent moments: zero low moment with non-zero high moment"
            )
        zero = _zero_like(s_lo, s_hi)
        return _DeltaDecomposition(zero, zero, zero, 0)
    rho_int = integral_value(rho) if all_exact(s_lo, s_hi) else None
    if rho_int is not None:
        ratio = Fraction(s_hi) / Fraction(s_lo)
        base = floor_root(ratio, rho_int)
        refined = (ratio - base**rho_int) / (
            (base + 1) ** rho_int - base**rho_int
        )
        if refined == 0:
            zero = Fraction(0)
            return _DeltaDecomposition(Fraction(base), zero, zero, base)
        root = nth_root_exact(ratio, rho_int)
        if root is not None:
            return _DeltaDecomposition(root, root - base, refined, base)
        delta = float(ratio) ** (1.0 / rho_int)
        theta = min(max(delta - base, 0.0), _THETA_MAX)
        return _DeltaDecomposition(base + theta, theta, refined, base)
    delta, base, refined = _float_window(float(s_hi) / float(s_lo), float(rho))
    theta = min(max(delta - base, 0.0), _THETA_MAX)
    refined = min(max(refined, 0.0), _THETA_MAX)
    return _DeltaDecomposition(delta, theta, refined, base)


def _float_window(ratio: float, rho: float) -> tuple[float, int, float]:
    """(delta, b, w) of a float moment ratio: delta = ratio**(1/rho), b its
    floor and w = (ratio - b**rho) / ((b+1)**rho - b**rho), the unclamped
    refined weight of b+1. A delta within _INTEGER_SNAP of an integer snaps
    onto it (delta = b, w = 0), so rounding noise never moves a window edge;
    the window is on the point b when w <= 0. The one float window rule of
    ``_window_bound`` and ``_delta_decomposition``."""
    delta = ratio ** (1.0 / rho)
    nearest = round(delta)
    if abs(delta - nearest) < _INTEGER_SNAP:
        return float(nearest), nearest, 0.0
    base = int(delta)
    x = float(base) ** rho
    return delta, base, (ratio - x) / (float(base + 1) ** rho - x)


def _index_window(
    kind: str, ell: int, b: int, n: int, on_point: bool = False
) -> tuple[int, ...]:
    """Support of the vector attaining the refined ``kind`` bound from ell
    moments: (b, b+1), (1, n) (b unused), (b, b+1, n) or (1, b, b+1); b+1
    drops out on a point (ratio b**rho). Plain branches: unpacking is slower."""
    if ell == 2:
        if kind == "upper":
            return (1, n)
        return (b,) if on_point else (b, b + 1)
    if kind == "lower":
        return (b, n) if on_point else (b, b + 1, n)
    return (1, b) if on_point else (1, b, b + 1)


def _window_bound(kind: str, ell: int, p, q, s1, scale, a, rho, n: int) -> Number:
    """The refined ``kind`` bound from ell moments: sum(r) for the vector r
    on ``_index_window`` whose moments over ``scale`` are the given ones.

    Every window is a one- or two-point solve on (p, q) > 0: (s1, s2) for
    two moments, the residuals (d1, d2) of ``_lower_three_cone`` or
    ``_upper_three_cone`` for three, whose fixed point f = n or 1 carries no
    residual mass. b = floor((q/p)**(1/rho)) picks the points; over x = i**rho
    and y = j**rho they carry v_i = p * (1 - t) and v_j = p * t with
    t = (q/p - x) / (y - x), or v_i = p on a point. Each adds v * g(i), with
    g(i) = 1 / i**a for two moments; for three, the bound is
    s1/c + sum v * (c - i**a) / (c * i**a * psi(i)), with c = f**a and the
    residual factor psi(i) = |f**rho - i**rho|. Integers find b by an integer
    root; floats by ``_float_window``, whose snap keeps rounding noise off the
    window edge.

    Integers give one Fraction over the common denominator; floats sum the
    point masses, and ``_possible`` rejects an impossible result.
    """
    exact = type(scale) is int
    if exact:
        b = floor_root(q // p, rho)
        on_point = q == b**rho * p
    else:
        _, b, w = _float_window(q / p, rho)
        on_point = w <= 0
    points = _index_window(kind, ell, b, n, on_point)
    base, c = 0 * scale, 1
    if ell == 3:  # drop the fixed point f, which carries no residual mass
        base = s1
        if kind == "lower":
            points, c, f_rho = points[:-1], n**a, n**rho
        else:
            points, f_rho = points[1:], 1
    i = points[0]
    x, wi = i**rho, i**a
    gi, psi_i = (1, 1) if ell == 2 else (c - wi, abs(f_rho - x))
    if len(points) == 1:
        if exact:
            return Fraction(base * wi * psi_i + p * gi, wi * psi_i * c * scale)
        return _possible(p * gi / (c * wi * psi_i) + base / c, kind, s1, n, a)
    j = points[1]
    y, wj = j**rho, j**a
    gj, psi_j = (1, 1) if ell == 2 else (c - wj, abs(f_rho - y))
    if exact:
        di, dj = wi * psi_i, wj * psi_j
        num = base * (y - x) * di * dj + (y * p - q) * gi * dj + (q - x * p) * gj * di
        return Fraction(num, (y - x) * di * dj * c * scale)
    t = (q / p - x) / (y - x)
    total = p * (1 - t) * gi / (c * wi * psi_i) + p * t * gj / (c * wj * psi_j)
    return _possible(total + base / c, kind, s1, n, a)


def lower_bound_two_moments(moments: MomentVector) -> Number:
    """Sharp lower bound on sum(r) from the first two power moments.

    The extremal vector sits on the window (b, b+1) bracketing
    delta = (s2/s1)**(1/rho), or on (b,) alone when s2 = b**rho * s1, and the
    bound is its total mass (``_window_bound``):
    s1 * ((1 - t) / b**a + t / (b+1)**a) with t = (s2/s1 - b**rho) /
    ((b+1)**rho - b**rho). Equality holds exactly when r is supported on the
    window.
    """
    (s1, s2, scale), a, rho = _arithmetic(moments, 2)
    n = moments.params.n_support
    s2 = _two_moment_cone(s1, s2, scale, n, rho)
    if s1 == 0:
        return _ratio(s1, scale)
    return _window_bound("lower", 2, s1, s2, s1, scale, a, rho, n)


def lower_bound_two_moments_simple(moments: MomentVector) -> Number:
    """Window-free two-moment lower bound.

    s1**((a+rho)/rho) / s2**(a/rho) for rho >= 1, the one Fraction
    S1**(e+1) / (S2**e * D) of exact moments S_k/D when e = a/rho is an
    integer; for rho < 1 the same value scaled by (1 - theta_refined)/(1 -
    theta). Never exceeds the refined two-moment bound on the same moments.
    """
    (s1, s2, scale), a, rho = _arithmetic(moments, 2)
    n = moments.params.n_support
    s2 = _two_moment_cone(s1, s2, scale, n, rho)
    if s1 == 0:
        return _ratio(s1, scale)
    if type(scale) is int:
        if a % rho == 0:  # (S1/D)**(e+1) / (S2/D)**e, e = a/rho, in the integers
            return Fraction(s1 ** (a // rho + 1), s2 ** (a // rho) * scale)
        e_hi, e_lo = Fraction(a + rho, rho), Fraction(a, rho)
        s1, s2 = Fraction(s1, scale), Fraction(s2, scale)
    else:
        e_hi, e_lo = (a + rho) / rho, a / rho
    core = rpow(s1, e_hi) / rpow(s2, e_lo)
    if rho < 1:
        dd = _delta_decomposition(s1, s2, rho)
        if dd.theta != 0:
            core = core * (1 - dd.theta_refined) / (1 - dd.theta)
    return _possible(core, "lower", s1, n, a)


def upper_bound_two_moments(moments: MomentVector) -> Number:
    """Sharp upper bound from two power moments, attained on support {1, n}.

    The moments must pass the lower bound's cone checks. The raw value is
    returned unclamped; it can exceed one when the moments come from a
    probability setting. n_support = 1 degenerates to s1. Otherwise it is
    the total mass of the vector on (1, n) (``_window_bound``).
    """
    (s1, s2, scale), a, rho = _arithmetic(moments, 2)
    n = moments.params.n_support
    s2 = _two_moment_cone(s1, s2, scale, n, rho)
    if n == 1 or s1 == 0:
        return _ratio(s1, scale)
    return _window_bound("upper", 2, s1, s2, s1, scale, a, rho, n)


def _require_variant(variant: str, a: Number, rho: Number) -> None:
    """Reject an unknown variant, or a simplified one whose exponent
    condition fails, before any cone check runs."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "a_le_rho" and not a <= rho:
        raise ValueError("variant 'a_le_rho' requires a <= rho")
    if variant == "a_ge_rho" and not a >= rho:
        raise ValueError("variant 'a_ge_rho' requires a >= rho")
    if variant == "rho_ge_1_simple" and not rho >= 1:
        raise ValueError("variant 'rho_ge_1_simple' requires rho >= 1")


# The two window points of each two-term simplified variant, as offsets k
# from delta.
_POINT_OFFSETS = {"a_le_rho": (0, 1), "a_ge_rho": (-1, 0)}


def _window_origin(
    dd: _DeltaDecomposition, d1: Number, d2: Number, a: Number, rho: Number
) -> tuple:
    """(delta, a, rho, delta**a, delta**rho), the origin of a simplified
    variant's points, with delta**rho = d2/d1 exact whenever the inputs are."""
    delta, d_rho = dd.delta, d2 / d1
    d_a = d_rho if a == rho else rpow(delta, a)
    return delta, a, rho, d_a, d_rho


def _point(win: tuple, k: int) -> tuple[Number, Number]:
    """(y**a, y**rho) at the point y = x + k of the window ``win``."""
    x, a, rho, x_a, x_rho = win
    if k == 0:
        return x_a, x_rho
    return rpow(x + k, a), rpow(x + k, rho)


def _lower_term(
    d1: Number, w: Number, big_b: Number, win: tuple, k: int, top: tuple
) -> Number:
    """d1 * w * (n**a - y**a) / (n**a * B * (n**rho - y**rho)) at the point
    y = x + k, for weight w, B = b**a (delta**a in "rho_ge_1_simple") and
    top = (n**a, n**rho)."""
    (y_a, y_rho), (n_a, n_rho) = _point(win, k), top
    return d1 * w * (n_a - y_a) / (n_a * big_b * (n_rho - y_rho))


def lower_bound_three_moments(
    moments: MomentVector, variant: str = "refined"
) -> Number:
    """Lower bound on sum(r) from three power moments.

    Works through the residuals d1 = n**rho * s1 - s2 and
    d2 = n**rho * s2 - s3, whose own ratio locates a window next to the top
    index. The "refined" variant is the total mass of the vector on
    (b, b+1, n), or (b, n) on a point (``_window_bound``); it is sharp for
    vectors supported there. The simplified variants add to s1/n**a a
    ``_lower_term`` at each of their points, weighted 1 - theta_refined and
    theta_refined: "a_le_rho" takes (delta, delta+1) and "a_ge_rho"
    (delta-1, delta); "rho_ge_1_simple" (requires rho >= 1) takes one term
    of weight one, at delta when a < rho, else at delta-1.
    """
    params = moments.params
    values, a, rho = _arithmetic(moments, 3)
    _require_variant(variant, params.a, params.rho)
    s1, scale, n = values[0], values[-1], params.n_support
    d1, d2 = _lower_three_cone(values, scale, n, rho)
    if d1 == 0:  # all mass sits at the top index
        return _ratio(s1, scale * n**a)
    if n == 1:  # the only vector is r_1 = s1
        return moments.sbar[0]
    if variant == "refined":
        return _window_bound("lower", 3, d1, d2, s1, scale, a, rho, n)
    if variant == "rho_ge_1_simple" and a == rho and type(scale) is int:
        return Fraction(d1 * d1 + s1 * d2, n**a * d2 * scale)  # d1/(n**a*delta**a)
    d1, d2, s1 = _ratio(d1, scale), _ratio(d2, scale), _ratio(s1, scale)
    n_a, n_rho = n**a, n**rho
    dd = _delta_decomposition(d1, d2, rho)
    b, tbar = dd.base, dd.theta_refined
    win, top = _window_origin(dd, d1, d2, a, rho), (n_a, n_rho)
    if variant == "rho_ge_1_simple":
        d_a = win[3]
        if a == rho:  # the term's power ratio is exactly one
            value = d1 / (n_a * d_a)
        else:
            value = _lower_term(d1, 1, d_a, win, 0 if a < rho else -1, top)
    else:
        lo, hi = _POINT_OFFSETS[variant]
        value = _lower_term(d1, 1 - tbar, rpow(b, a), win, lo, top)
        if tbar != 0:
            value = value + _lower_term(d1, tbar, rpow(b + 1, a), win, hi, top)
    return _possible(value + s1 / n_a, "lower", s1, n, a)


def _power_ratio(x: Number, a: Number, rho: Number) -> Number:
    """(x**a - 1) / (x**rho - 1), read at x = 1 as its limit a/rho."""
    if a == rho:
        return 1
    if x == 1:
        return Fraction(a) / Fraction(rho) if all_exact(a, rho) else a / rho
    return (rpow(x, a) - 1) / (rpow(x, rho) - 1)


def _upper_term(d1: Number, w: Number, big_b: Number, win: tuple, k: int) -> Number:
    """d1 * w * (y**a - 1) / (B * (y**rho - 1)) at the point y = x + k, for
    weight w and B = b**a (delta**a in "rho_ge_1_simple"). At y = delta - 1,
    which is 1 when delta = 2, it is d1 * w * R / B with R the
    ``_power_ratio``."""
    if k < 0:
        x, a, rho = win[:3]
        return d1 * w * _power_ratio(x + k, a, rho) / big_b
    y_a, y_rho = _point(win, k)
    return d1 * w * (y_a - 1) / (big_b * (y_rho - 1))


def upper_bound_three_moments(
    moments: MomentVector, variant: str = "refined"
) -> Number:
    """Upper bound on sum(r) from three power moments.

    Works through d1 = s2 - s1 and d2 = s3 - s2; their ratio locates a
    window away from index one. The "refined" variant is the total mass of
    the vector on (1, b, b+1), or (1, b) on a point (``_window_bound``), and
    is sharp for vectors supported there. A simplified variant is s1 minus
    an ``_upper_term`` at each of the points the lower bound's variant of
    the same name takes.
    """
    params = moments.params
    values, a, rho = _arithmetic(moments, 3)
    _require_variant(variant, params.a, params.rho)
    s1, scale, n = values[0], values[-1], params.n_support
    d1, d2 = _upper_three_cone(values, scale, n, rho)
    if d1 == 0:  # all mass sits at index one
        return _ratio(s1, scale)
    if n == 1:  # the only vector is r_1 = s1
        return moments.sbar[0]
    if variant == "refined":
        return _window_bound("upper", 3, d1, d2, s1, scale, a, rho, n)
    if variant == "rho_ge_1_simple" and a == rho and type(scale) is int:
        return Fraction(s1 * d2 - d1 * d1, d2 * scale)  # s1 - d1/delta**a
    d1, d2, s1 = _ratio(d1, scale), _ratio(d2, scale), _ratio(s1, scale)
    dd = _delta_decomposition(d1, d2, rho)
    b, tbar = dd.base, dd.theta_refined  # b >= 2 after the cone checks
    win = _window_origin(dd, d1, d2, a, rho)
    if variant == "rho_ge_1_simple":
        value = s1 - _upper_term(d1, 1, win[3], win, 0 if a < rho else -1)
    else:
        lo, hi = _POINT_OFFSETS[variant]
        value = s1 - _upper_term(d1, 1 - tbar, rpow(b, a), win, lo)
        if tbar != 0:
            value = value - _upper_term(d1, tbar, rpow(b + 1, a), win, hi)
    return _possible(value, "upper", s1, n, a)


def holder_lower_bound(alpha1: Number, alphap: Number, p: float) -> float:
    """Lower bound on P(union) from the first and p-th occupancy moments.

    ((E xi)**p / E xi**p) ** (q/p) with 1/p + 1/q = 1. p = 2 recovers the
    classic second-moment bound; larger p never improves on it.
    """
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p!r}")
    if alpha1 < 0 or alphap < 0:
        raise ValueError("moments must be non-negative")
    if alpha1 == 0:
        return 0.0
    if alphap == 0:
        raise ValueError("alphap must be positive when alpha1 is")
    p_f = float(p)
    return (float(alpha1) ** p_f / float(alphap)) ** (1.0 / (p_f - 1.0))


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
    reproduces the moments. Indices are 1-based support positions.
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
    if any(x < 0 for row in rows for x in row):
        raise ValueError("feature values must be non-negative")
    moments = tuple(sbar)
    if len(moments) != ell:
        raise ValueError("one moment per feature row is required")
    idx = tuple(int(i) for i in indices)
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
