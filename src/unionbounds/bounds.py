"""Sharp bounds on the sum of a non-negative vector from its power moments.

Given s_k = sum_i i**(a + (k-1)*rho) * r_i for an unknown non-negative vector
r over indices 1..n, the functions here return certified lower and upper
bounds on sum(r). Closed forms cover two and three moments; a general engine
handles arbitrary non-negative feature rows with an explicit sign
certificate.

The three-moment bounds have one term formula per direction; the variants
differ only in the window points where the two terms are evaluated:
"refined" at (b, b+1), "a_le_rho" at (delta, delta+1), "a_ge_rho" at
(delta-1, delta) and "rho_ge_1_simple" at the one point delta or delta-1.

Arithmetic is exact (``fractions.Fraction``) whenever the moments are
rational and a, rho are integers; otherwise IEEE doubles are used, and the
float cone checks allow a fixed relative slack of 1e-9. Every function is
pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from ._numeric import (
    Number,
    all_exact,
    floor_root,
    integral_value,
    is_exact,
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
        return (
            integral_value(self.a) is not None
            and integral_value(self.rho) is not None
        )

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
            elif not _finite(value):
                raise ValueError("moments must be finite")
            if value < 0:
                raise ValueError("moments must be non-negative")
            sbar.append(value)
        object.__setattr__(self, "sbar", tuple(sbar))

    @property
    def exact(self) -> bool:
        return self.params.is_integral and all_exact(*self.sbar)

    @cached_property
    def _integers(self) -> Sequence[int]:
        """Exact moments as integers over their least common denominator L:
        [S1, ..., S_ell, L]."""
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
        """Check the moment-cone inequalities any genuine vector satisfies.

        Raises MomentConsistencyError naming the violated inequality.
        """
        n = self.params.n_support
        step = rpow(n, self.params.rho)
        for k in range(self.params.ell - 1):
            lo, hi = self.sbar[k], self.sbar[k + 1]
            _check_lower(hi, lo, f"s{k + 2} >= s{k + 1}")
            _check_upper(hi, step * lo, f"s{k + 2} <= n**rho * s{k + 1}")
        if self.params.ell >= 3:
            s1, s2, s3 = self.sbar[:3]
            d1 = step * s1 - s2
            d2 = step * s2 - s3
            _check_upper(
                d2,
                rpow(n - 1, self.params.rho) * d1,
                "(n**rho*s2 - s3) <= (n-1)**rho * (n**rho*s1 - s2)",
            )
            h1 = s2 - s1
            h2 = s3 - s2
            if h1 > 0:
                _check_lower(
                    h2,
                    rpow(2, self.params.rho) * h1,
                    "(s3 - s2) >= 2**rho * (s2 - s1)",
                )
        return self


class _ScaledMoments(MomentVector):
    """Moments S_1/D, ..., S_ell/D at integral a and rho, held as the
    integers (S_1, ..., S_ell, D), of a vector non-negative by construction
    (a report row's). They skip the checks of ``MomentVector``: the exact
    kernels run their cone checks on the integers, and sbar is built only
    for a closed form that reads it."""

    exact = True

    def __init__(self, integers: tuple[int, ...], params: ExponentParams) -> None:
        self.__dict__.update(_integers=integers, params=params)

    @cached_property
    def sbar(self) -> tuple[Fraction, ...]:  # type: ignore[override]
        *sums, denominator = self._integers
        return tuple(Fraction(s, denominator) for s in sums)


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


def _inconsistent(label: str, detail: str) -> MomentConsistencyError:
    return MomentConsistencyError(f"inconsistent moments: {label} ({detail})")


def _check_nonneg(value: Number, label: str, scale: Number = 1) -> Number:
    if is_exact(value):
        if value < 0:
            raise _inconsistent(label, f"got {value}")
        return value
    v = float(value)
    if v < -_FLOAT_SLACK * max(1.0, abs(float(scale))):
        raise _inconsistent(label, f"got {v}")
    return max(v, 0.0)


def _check_lower(value: Number, limit: Number, label: str) -> Number:
    """Require value >= limit; clamp float noise up to the limit."""
    if all_exact(value, limit):
        if value < limit:
            raise _inconsistent(label, f"{value} < {limit}")
        return value
    v, lim = float(value), float(limit)
    if v < lim - _FLOAT_SLACK * max(1.0, abs(v), abs(lim)):
        raise _inconsistent(label, f"{v} < {lim}")
    return max(v, lim)


def _check_upper(value: Number, limit: Number, label: str) -> Number:
    """Require value <= limit; clamp float noise down to the limit."""
    if all_exact(value, limit):
        if value > limit:
            raise _inconsistent(label, f"{value} > {limit}")
        return value
    v, lim = float(value), float(limit)
    if v > lim + _FLOAT_SLACK * max(1.0, abs(v), abs(lim)):
        raise _inconsistent(label, f"{v} > {lim}")
    return min(v, lim)


def _require_ell(moments: MomentVector, ell: int) -> ExponentParams:
    if moments.params.ell != ell:
        raise ValueError(f"this bound needs exactly {ell} moments")
    return moments.params


_THETA_MAX = 1.0 - 1e-12


def _delta_decomposition(
    s_lo: Number, s_hi: Number, rho: Number
) -> _DeltaDecomposition:
    """Decompose the moment ratio into integer window and splitting weights.

    Returns delta = (s_hi/s_lo)**(1/rho) with its fractional part theta and
    the refined weight theta_refined. Exact rationals are preserved whenever
    possible: base and theta_refined stay exact for integer rho even when
    delta itself is irrational, because theta_refined only needs delta**rho.
    In floating point, delta within 1e-9 of an integer snaps to it.
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
    rho_int = integral_value(rho)
    if rho_int is not None and all_exact(s_lo, s_hi):
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
    ratio = float(s_hi) / float(s_lo)
    rho_f = float(rho)
    delta = ratio ** (1.0 / rho_f)
    nearest = round(delta)
    if abs(delta - nearest) < _INTEGER_SNAP:
        base = int(nearest)
        return _DeltaDecomposition(float(base), 0.0, 0.0, base)
    base = int(delta)
    theta = min(max(delta - base, 0.0), _THETA_MAX)
    span = float(base + 1) ** rho_f - float(base) ** rho_f
    refined = (ratio - float(base) ** rho_f) / span
    refined = min(max(refined, 0.0), _THETA_MAX)
    return _DeltaDecomposition(delta, theta, refined, base)


def _two_moment_window(moments: MomentVector) -> tuple[Number, Number] | None:
    """Shared validation for the two-moment bounds: the checked (s1, s2), or
    None when s1 = 0."""
    params = moments.params
    s1, s2 = moments.sbar
    if s1 == 0:
        _check_upper(s2, _zero_like(s2), "s2 must vanish when s1 does")
        return None
    s2 = _check_lower(s2, s1, "s2 >= s1")
    s2 = _check_upper(
        s2,
        rpow(params.n_support, params.rho) * s1,
        "s2 <= n_support**rho * s1",
    )
    return s1, s2


def lower_bound_two_moments(moments: MomentVector) -> Number:
    """Sharp lower bound on sum(r) from the first two power moments.

    The extremal vector sits on the two integers bracketing
    delta = (s2/s1)**(1/rho); theta_refined splits the mass between them, so
    the bound is s1 * (theta_refined / (base+1)**a + (1-theta_refined) /
    base**a). Equality holds exactly when r is supported on {base, base+1}.
    On exact input it is that vector's total mass, solved in integers: the
    mass on (b, b+1), or on (b,), which is s1 / b**a, when s2 = b**rho * s1.
    """
    params = _require_ell(moments, 2)
    if moments.exact:
        a, rho = integral_value(params.a), integral_value(params.rho)
        s1, s2, scale = _checked_two_integers(moments._integers, rho, params.n_support)
        if s1 == 0:
            return Fraction(0)
        b = floor_root(s2 // s1, rho)
        window = _index_window("lower", 2, b, params.n_support, s2 == b**rho * s1)
        return _window_mass(window, s1, s2, 0, scale, a, rho)
    prepared = _two_moment_window(moments)
    if prepared is None:
        return _zero_like(*moments.sbar)
    s1, s2 = prepared
    dd = _delta_decomposition(s1, s2, params.rho)
    low = rpow(dd.base, params.a)
    if dd.theta_refined == 0:
        return s1 / low
    high = rpow(dd.base + 1, params.a)
    return s1 * (dd.theta_refined / high + (1 - dd.theta_refined) / low)


def lower_bound_two_moments_simple(moments: MomentVector) -> Number:
    """Window-free two-moment lower bound.

    s1**((a+rho)/rho) / s2**(a/rho) for rho >= 1; for rho < 1 the same value
    scaled by (1 - theta_refined)/(1 - theta). Never exceeds the refined
    two-moment bound on the same moments.
    """
    params = _require_ell(moments, 2)
    prepared = _two_moment_window(moments)
    if prepared is None:
        return _zero_like(*moments.sbar)
    s1, s2 = prepared
    a_int, rho_int = integral_value(params.a), integral_value(params.rho)
    if a_int is not None and rho_int is not None:
        e_hi: Number = Fraction(a_int + rho_int, rho_int)
        e_lo: Number = Fraction(a_int, rho_int)
    else:
        a_f, rho_f = float(params.a), float(params.rho)
        e_hi = (a_f + rho_f) / rho_f
        e_lo = a_f / rho_f
    core = rpow(s1, e_hi) / rpow(s2, e_lo)
    if params.rho >= 1:
        return core
    dd = _delta_decomposition(s1, s2, params.rho)
    if dd.theta == 0:
        return core
    return core * (1 - dd.theta_refined) / (1 - dd.theta)


def upper_bound_two_moments(moments: MomentVector) -> Number:
    """Sharp upper bound from two power moments, attained on support {1, n}.

    The moments must pass the lower bound's cone checks. The raw value is
    returned unclamped; it can exceed one when the moments come from a
    probability setting. n_support = 1 degenerates to s1. On exact input it
    is the mass of the vector on (1, n), solved in integers.
    """
    params = _require_ell(moments, 2)
    n = params.n_support
    if moments.exact:
        rho = integral_value(params.rho)
        s1, s2, scale = _checked_two_integers(moments._integers, rho, n)
        if n == 1:
            return Fraction(s1, scale)
        window = _index_window("upper", 2, 0, n)
        return _window_mass(window, s1, s2, 0, scale, integral_value(params.a), rho)
    _two_moment_window(moments)  # the checks only: the value reads the raw moments
    s1, s2 = moments.sbar
    if n == 1:
        return s1
    na = rpow(n, params.a)
    nar = rpow(n, params.a + params.rho)
    return ((nar - 1) * s1 - (na - 1) * s2) / (nar - na)


def _require_variant(variant: str, a: Number, rho: Number) -> None:
    """Reject an unknown variant, or a simplified one whose exponent
    condition fails, before any moment is read."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "a_le_rho" and not a <= rho:
        raise ValueError("variant 'a_le_rho' requires a <= rho")
    if variant == "a_ge_rho" and not a >= rho:
        raise ValueError("variant 'a_ge_rho' requires a >= rho")
    if variant == "rho_ge_1_simple" and not rho >= 1:
        raise ValueError("variant 'rho_ge_1_simple' requires rho >= 1")


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


def _window_mass(
    window: tuple[int, ...], s1: int, s2: int, s3: int, scale: int, a: int, rho: int
) -> Fraction:
    """sum(r) for the vector r supported on ``window`` whose first
    len(window) moments are s1/scale, s2/scale, s3/scale (integers s_k).

    One point i carries r_i = s1 / (scale * i**a). Otherwise, with
    w_i = i**a, u_i = w_i * r_i and x_i = i**rho the moments are
    sum_i u_i * x_i**k: a 2- or 3-point Vandermonde system in x, which
    Lagrange's formula solves over the common denominator V, the product of
    the differences of the x. Then sum(r) = sum_i u_i / w_i.
    """
    if len(window) == 1:
        return Fraction(s1, scale * window[0] ** a)
    if len(window) == 2:  # V = y - x
        i, j = window
        x, y, wi, wj = i**rho, j**rho, i**a, j**a
        num = (y * s1 - s2) * wj + (s2 - x * s1) * wi
        return Fraction(num, (y - x) * wi * wj * scale)
    i, j, k = window  # V = (x - y)(x - z)(y - z)
    x, y, z = i**rho, j**rho, k**rho
    wi, wj, wk = i**a, j**a, k**a
    ui = s3 - (y + z) * s2 + y * z * s1  # u_i = ui * (y - z) / V
    uj = s3 - (x + z) * s2 + x * z * s1  # u_j = -uj * (x - z) / V
    uk = s3 - (x + y) * s2 + x * y * s1  # u_k = uk * (x - y) / V
    num = ui * (y - z) * wj * wk - uj * (x - z) * wi * wk + uk * (x - y) * wi * wj
    return Fraction(num, (x - y) * (x - z) * (y - z) * wi * wj * wk * scale)


def _scaled_inconsistent(
    label: str, scale: int, value: int, relation: str = "", limit: int = 0
) -> MomentConsistencyError:
    """The closed form's error for a failed integer check, printing the
    integers over ``scale`` as the rationals the closed form compares."""
    if not relation:
        return _inconsistent(label, f"got {Fraction(value, scale)}")
    return _inconsistent(
        label, f"{Fraction(value, scale)} {relation} {Fraction(limit, scale)}"
    )


def _checked_two_integers(scaled: Sequence[int], rho: int, n: int) -> Sequence[int]:
    """``scaled`` = [S1, S2, D] after the two-moment cone checks of
    ``_two_moment_window``, run on the integers with the same texts."""
    s1, s2, scale = checked = scaled
    if s1 == 0:
        if s2 > 0:
            raise _scaled_inconsistent("s2 must vanish when s1 does", scale, s2, ">")
        return checked
    if s2 < s1:
        raise _scaled_inconsistent("s2 >= s1", scale, s2, "<", s1)
    limit = n**rho * s1
    if s2 > limit:
        raise _scaled_inconsistent("s2 <= n_support**rho * s1", scale, s2, ">", limit)
    return checked


def _lower_three_exact(scaled: Sequence[int], a: int, rho: int, n: int) -> Fraction:
    """The refined three-moment lower bound on ``scaled`` = (S1, S2, S3, D):
    the mass on ``_index_window`` at b = floor((d2/d1)**(1/rho)), with
    d1 = n**rho * s1 - s2 and d2 = n**rho * s2 - s3. The checks are the
    closed form's, run on the integers."""
    s1, s2, s3, scale = scaled
    top = n**rho
    d1, d2 = top * s1 - s2, top * s2 - s3
    if d1 < 0:
        raise _scaled_inconsistent("n**rho * s1 - s2 must be non-negative", scale, d1)
    if d2 < 0:
        raise _scaled_inconsistent("n**rho * s2 - s3 must be non-negative", scale, d2)
    if d1 == 0:
        return Fraction(s1, scale * n**a)  # all mass sits at the top index
    if d2 < d1:
        label = "(n**rho*s2 - s3) >= (n**rho*s1 - s2)"
        raise _scaled_inconsistent(label, scale, d2, "<", d1)
    limit = (n - 1) ** rho * d1
    if d2 > limit:
        label = "(n**rho*s2 - s3) <= (n-1)**rho * (n**rho*s1 - s2)"
        raise _scaled_inconsistent(label, scale, d2, ">", limit)
    b = floor_root(d2 // d1, rho)
    window = _index_window("lower", 3, b, n, d2 == b**rho * d1)
    return _window_mass(window, s1, s2, s3, scale, a, rho)


def _upper_three_exact(scaled: Sequence[int], a: int, rho: int, n: int) -> Fraction:
    """The refined three-moment upper bound on ``scaled`` = (S1, S2, S3, D):
    the mass on ``_index_window`` at b = floor((d2/d1)**(1/rho)), with
    d1 = s2 - s1 and d2 = s3 - s2. The checks are the closed form's, run on
    the integers."""
    s1, s2, s3, scale = scaled
    d1, d2 = s2 - s1, s3 - s2
    if d1 < 0:
        raise _scaled_inconsistent("s2 - s1 must be non-negative", scale, d1)
    if d2 < 0:
        raise _scaled_inconsistent("s3 - s2 must be non-negative", scale, d2)
    if d1 == 0:
        return Fraction(s1, scale)
    limit = 2**rho * d1
    if d2 < limit:
        label = "(s3 - s2) >= 2**rho * (s2 - s1)"
        raise _scaled_inconsistent(label, scale, d2, "<", limit)
    limit = n**rho * d1
    if d2 > limit:
        label = "(s3 - s2) <= n**rho * (s2 - s1)"
        raise _scaled_inconsistent(label, scale, d2, ">", limit)
    b = floor_root(d2 // d1, rho)  # b >= 2 after the checks
    window = _index_window("upper", 3, b, n, d2 == b**rho * d1)
    return _window_mass(window, s1, s2, s3, scale, a, rho)


# The two window points of each two-term variant, as offsets k from the
# origin x of ``_window_origin``: x = b ("refined") or x = delta (the others).
_POINT_OFFSETS = {"refined": (0, 1), "a_le_rho": (0, 1), "a_ge_rho": (-1, 0)}


def _window_origin(
    dd: _DeltaDecomposition,
    d1: Number,
    d2: Number,
    a: Number,
    rho: Number,
    variant: str,
) -> tuple:
    """(x, a, rho, x**a, x**rho) at the origin x of the variant's points.

    A simplified variant has x = delta, with delta**rho = d2/d1 exact
    whenever the inputs are."""
    if variant == "refined":
        b = dd.base
        return b, a, rho, rpow(b, a), rpow(b, rho)
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
    index: the bound is s1/n**a plus a ``_lower_term`` at each window point,
    weighted 1 - theta_refined and theta_refined. The "refined" variant
    takes the points (b, b+1) and is sharp for vectors supported on
    {b, b+1, n}; on exact input it is that vector's total mass, solved in
    integers (``_lower_three_exact``). "a_le_rho" takes (delta, delta+1) and
    "a_ge_rho" (delta-1, delta); "rho_ge_1_simple" (requires rho >= 1)
    takes one term of weight one, at delta when a < rho, else at delta-1.
    """
    params = _require_ell(moments, 3)
    a, rho, n = params.a, params.rho, params.n_support
    _require_variant(variant, a, rho)
    if variant == "refined" and moments.exact:
        return _lower_three_exact(
            moments._integers, integral_value(a), integral_value(rho), n
        )
    s1, s2, s3 = moments.sbar
    n_rho = rpow(n, rho)
    n_a = rpow(n, a)
    d1 = _check_nonneg(
        n_rho * s1 - s2, "n**rho * s1 - s2 must be non-negative", n_rho * s1
    )
    d2 = _check_nonneg(
        n_rho * s2 - s3, "n**rho * s2 - s3 must be non-negative", n_rho * s2
    )
    if d1 == 0:
        return s1 / n_a  # all mass sits at the top index
    d2 = _check_lower(d2, d1, "(n**rho*s2 - s3) >= (n**rho*s1 - s2)")
    d2 = _check_upper(
        d2,
        rpow(n - 1, rho) * d1,
        "(n**rho*s2 - s3) <= (n-1)**rho * (n**rho*s1 - s2)",
    )
    dd = _delta_decomposition(d1, d2, rho)
    b, tbar = dd.base, dd.theta_refined
    tail = s1 / n_a
    win, top = _window_origin(dd, d1, d2, a, rho, variant), (n_a, n_rho)
    if n == 1:  # the only vector is r_1 = s1
        return s1
    if variant == "rho_ge_1_simple":
        d_a = win[3]
        if a == rho:  # the term's power ratio is exactly one
            return d1 / (n_a * d_a) + tail
        return _lower_term(d1, 1, d_a, win, 0 if a < rho else -1, top) + tail
    lo, hi = _POINT_OFFSETS[variant]
    t1 = _lower_term(d1, 1 - tbar, rpow(b, a), win, lo, top)
    if tbar == 0:
        return t1 + tail
    t2 = _lower_term(d1, tbar, rpow(b + 1, a), win, hi, top)
    return t1 + t2 + tail


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
    window away from index one, and the bound is s1 minus an
    ``_upper_term`` at each of the points the lower bound's variant of the
    same name takes. Sharp ("refined") for vectors supported on
    {1, b, b+1}; on exact input it is that vector's total mass, solved in
    integers (``_upper_three_exact``).
    """
    params = _require_ell(moments, 3)
    a, rho, n = params.a, params.rho, params.n_support
    _require_variant(variant, a, rho)
    if variant == "refined" and moments.exact:
        return _upper_three_exact(
            moments._integers, integral_value(a), integral_value(rho), n
        )
    s1, s2, s3 = moments.sbar
    d1 = _check_nonneg(s2 - s1, "s2 - s1 must be non-negative", s2)
    d2 = _check_nonneg(s3 - s2, "s3 - s2 must be non-negative", s3)
    if d1 == 0:
        return s1
    d2 = _check_lower(d2, rpow(2, rho) * d1, "(s3 - s2) >= 2**rho * (s2 - s1)")
    d2 = _check_upper(d2, rpow(n, rho) * d1, "(s3 - s2) <= n**rho * (s2 - s1)")
    dd = _delta_decomposition(d1, d2, rho)
    b, tbar = dd.base, dd.theta_refined  # b >= 2 after the cone checks, if n > 1
    win = _window_origin(dd, d1, d2, a, rho, variant)
    if n == 1:  # the only vector is r_1 = s1
        return s1
    if variant == "rho_ge_1_simple":
        return s1 - _upper_term(d1, 1, win[3], win, 0 if a < rho else -1)
    lo, hi = _POINT_OFFSETS[variant]
    t1 = _upper_term(d1, 1 - tbar, rpow(b, a), win, lo)
    if tbar == 0:
        return s1 - t1
    t2 = _upper_term(d1, tbar, rpow(b + 1, a), win, hi)
    return s1 - t1 - t2


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
