"""Sharp bounds on the sum of a non-negative vector from its power moments.

Given s_k = sum_i i**(a + (k-1)*rho) * r_i for an unknown non-negative vector
r over indices 1..n, the functions here return certified lower and upper
bounds on sum(r) from two or three moments. A general engine for arbitrary
non-negative feature rows with an explicit sign certificate, and the Holder
bound, live in ``_general``; their names here resolve on first use.

Each refined bound is the total mass of the vector that matches the moments
on its index window, and one kernel, ``_window_bound``, computes it for exact
and float input alike. The arithmetic is fixed once per moment vector and
kept on it: the moments as integers over their common denominator when they
are rational and a, rho are integers (``ExponentParams`` finds that once),
else IEEE doubles. A report row's vectors are built in that arithmetic
already (``_ScaledMoments``). One set of cone checks per direction runs on
those numbers (floats with a relative slack of 1e-9); only the last step
differs: one ``Fraction``, or a float sum of the point masses that raises
ArithmeticError when it is not finite or impossible. The simplified forms
that a report reads need no root of delta: ``lower_bound_two_moments_simple``
(one Fraction of those integers when rho divides a) and the paper's
three-moment form "rho_ge_1_simple" at a = rho >= 1, where delta**a = d2/d1.
The paper's other simplified three-moment forms are dominated by the refined
bounds and live on in the tests as oracles. Every function is pure and safe
for concurrent use.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from ._numeric import Number, Record, all_exact, floor_root, integral_value, rpow

_INTEGER_SNAP = 1e-9
# Relative slack of every float inequality check, until outward rounding
# certifies float results.
_FLOAT_SLACK = 1e-9

VARIANTS = ("refined", "rho_ge_1_simple")


class MomentConsistencyError(ValueError):
    """The supplied moments cannot come from any non-negative vector."""


def _finite(x: Number) -> bool:
    """False for a float NaN or infinity; rationals are always finite."""
    return not isinstance(x, float) or math.isfinite(x)


def _require_finite(values: Iterable[float]) -> None:
    """Raise ValueError if a float among ``values`` is NaN or infinite."""
    if not all(map(math.isfinite, values)):
        raise ValueError("moments must be finite")


class ExponentParams(Record):
    """Exponent family a + (k-1)*rho, k = 1..ell, over support 1..n_support."""

    _fields = ("a", "rho", "ell", "n_support")

    def __init__(self, a: Number, rho: Number, ell: int, n_support: int) -> None:
        self.__dict__.update(a=a, rho=rho, ell=ell, n_support=n_support)
        self._check()

    def _check(self) -> None:
        """Validate the fields; an integral ell or n_support (3.0) becomes an int."""
        for name in self._fields:
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        for name in ("ell", "n_support"):
            value = getattr(self, name)
            whole = value if type(value) is int else integral_value(value)
            if whole is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            self.__dict__[name] = whole
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
        return tuple([self.a + j * self.rho for j in range(self.ell)])


@lru_cache(maxsize=256, typed=True)
def _exponent_params(a: Number, rho: Number, ell: int, n: int) -> ExponentParams:
    """One shared ExponentParams per distinct (a, rho, ell, n), which keeps
    its integral pair; invalid exponents raise on every call."""
    return ExponentParams(a, rho, ell, n)


class MomentVector(Record):
    """The first ell power moments of a hidden non-negative vector.

    Integer moments are stored as Fractions."""

    _fields = ("sbar", "params")

    def __init__(self, sbar: Iterable[Number], params: ExponentParams) -> None:
        self.__dict__.update(sbar=sbar, params=params)
        self._check()

    def _check(self) -> None:
        """Validate the moments and store them as a tuple."""
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
        self.__dict__["sbar"] = tuple(sbar)

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


def _float_window(ratio: float, rho: float) -> tuple[float, int, float]:
    """(delta, b, w) of a float moment ratio: delta = ratio**(1/rho), b its
    floor and w = (ratio - b**rho) / ((b+1)**rho - b**rho), the unclamped
    refined weight of b+1. A delta within _INTEGER_SNAP of an integer snaps
    onto it (delta = b, w = 0), so rounding noise never moves a window edge;
    the window is on the point b when w <= 0. The one float window rule of
    ``_window_bound`` and ``lower_bound_two_moments_simple``."""
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
    integer; for rho < 1 (float input only) the same value scaled by
    (1 - w)/(1 - theta), with theta the fractional part of delta and w the
    refined weight of ``_float_window``, both clamped to [0, _THETA_MAX].
    Never exceeds the refined two-moment bound on the same moments.
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
    if rho < 1:  # never integral, so s1 and s2 are floats
        delta, b, w = _float_window(s2 / s1, rho)
        theta = min(max(delta - b, 0.0), _THETA_MAX)
        if theta != 0:
            core = core * (1 - min(max(w, 0.0), _THETA_MAX)) / (1 - theta)
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
    """Reject an unknown variant, or "rho_ge_1_simple" off a = rho >= 1,
    before any cone check runs."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "rho_ge_1_simple" and not a == rho >= 1:
        raise ValueError("variant 'rho_ge_1_simple' requires a == rho >= 1")


def lower_bound_three_moments(
    moments: MomentVector, variant: str = "refined"
) -> Number:
    """Lower bound on sum(r) from three power moments.

    Works through the residuals d1 = n**rho * s1 - s2 and
    d2 = n**rho * s2 - s3, whose own ratio locates a window next to the top
    index. The "refined" variant is the total mass of the vector on
    (b, b+1, n), or (b, n) on a point (``_window_bound``); it is sharp for
    vectors supported there. "rho_ge_1_simple" (requires a == rho >= 1) is
    the paper's one-term form s1/n**a + d1/(n**a * delta**a), where
    delta**a = d2/d1.
    """
    params = moments.params
    values, a, rho = _arithmetic(moments, 3)
    _require_variant(variant, a, rho)
    s1, scale, n = values[0], values[-1], params.n_support
    d1, d2 = _lower_three_cone(values, scale, n, rho)
    if d1 == 0:  # all mass sits at the top index
        return _ratio(s1, scale * n**a)
    if n == 1:  # the only vector is r_1 = s1
        return moments.sbar[0]
    if variant == "refined":
        return _window_bound("lower", 3, d1, d2, s1, scale, a, rho, n)
    if type(scale) is int:
        return Fraction(d1 * d1 + s1 * d2, n**a * d2 * scale)
    n_a = n**a
    return _possible(d1 / (n_a * (d2 / d1)) + s1 / n_a, "lower", s1, n, a)


def upper_bound_three_moments(
    moments: MomentVector, variant: str = "refined"
) -> Number:
    """Upper bound on sum(r) from three power moments.

    Works through d1 = s2 - s1 and d2 = s3 - s2; their ratio locates a
    window away from index one. The "refined" variant is the total mass of
    the vector on (1, b, b+1), or (1, b) on a point (``_window_bound``), and
    is sharp for vectors supported there. "rho_ge_1_simple" (requires
    a == rho >= 1) is the paper's one-term form s1 - d1/delta**a, where
    delta**a = d2/d1.
    """
    params = moments.params
    values, a, rho = _arithmetic(moments, 3)
    _require_variant(variant, a, rho)
    s1, scale, n = values[0], values[-1], params.n_support
    d1, d2 = _upper_three_cone(values, scale, n, rho)
    if d1 == 0:  # all mass sits at index one
        return _ratio(s1, scale)
    if n == 1:  # the only vector is r_1 = s1
        return moments.sbar[0]
    if variant == "refined":
        return _window_bound("upper", 3, d1, d2, s1, scale, a, rho, n)
    if type(scale) is int:
        return Fraction(s1 * d2 - d1 * d1, d2 * scale)
    return _possible(s1 - d1 / (d2 / d1), "upper", s1, n, a)


# Imported on first use (PEP 562): no report row needs them.
_GENERAL = (
    "CertificateError", "GeneralBoundOutcome", "InfeasibleIndicesError",
    "general_bound", "holder_lower_bound",
)


def __getattr__(name: str):
    if name in _GENERAL:
        from . import _general
        return getattr(_general, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
