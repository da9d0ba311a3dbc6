"""Sharp moment bounds for sums of non-negative numbers and for
probabilities of unions of events.

The scalar layer bounds sum(r) for an unknown non-negative vector r from its
power moments s_k = sum_i i**(a + (k-1)*rho) * r_i. The probability layer
applies those bounds per event and to the occupancy profile of an exact
finite probability space, recovering the classic Chung-Erdos, de Caen,
fractional-window, Dawson-Sankoff, Kwerel and Holder bounds as special
cases. A third layer estimates limsup (Borel-Cantelli) probabilities at
finite horizons.

Arithmetic stays exact over the rationals whenever the inputs allow it.
"""

from .bounds import (
    _GENERAL,
    VARIANTS,
    ExponentParams,
    MomentConsistencyError,
    MomentVector,
    lower_bound_three_moments,
    lower_bound_two_moments,
    lower_bound_two_moments_simple,
    upper_bound_three_moments,
    upper_bound_two_moments,
)
from .events import (
    EventSystem,
    OccupancyProfile,
    PerEventMoments,
    build_system,
    exact_union_probability,
    occupancy_profile,
    per_event_moments,
    power_moments,
    random_system,
)
from .unions import (
    BOUND_NAMES,
    BoundEntry,
    BoundReport,
    compare_bounds,
    holder_union_bound,
    occupancy_moment_vector,
    union_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BCEstimate",
    "BOUND_NAMES",
    "BoundEntry",
    "BoundReport",
    "CertificateError",
    "EventSystem",
    "ExplicitSequence",
    "ExponentParams",
    "GeneralBoundOutcome",
    "IdenticalSequence",
    "IndependentSequence",
    "InfeasibleIndicesError",
    "MomentConsistencyError",
    "MomentVector",
    "OccupancyProfile",
    "PerEventMoments",
    "VARIANTS",
    "bc_lower_estimate",
    "bc_upper_estimate",
    "build_system",
    "compare_bounds",
    "exact_union_probability",
    "general_bound",
    "holder_union_bound",
    "kochen_stone_ratio",
    "lower_bound_three_moments",
    "lower_bound_two_moments",
    "lower_bound_two_moments_simple",
    "occupancy_moment_vector",
    "occupancy_profile",
    "per_event_moments",
    "power_moments",
    "random_system",
    "union_bound",
    "upper_bound_three_moments",
    "upper_bound_two_moments",
    "__version__",
]

# Imported on first use (PEP 562), so that the report path never loads them.
_BOREL_CANTELLI = (
    "BCEstimate", "ExplicitSequence", "IdenticalSequence", "IndependentSequence",
    "bc_lower_estimate", "bc_upper_estimate", "kochen_stone_ratio",
)


def __getattr__(name: str):
    if name in _BOREL_CANTELLI:
        from . import borel_cantelli as module
    elif name in _GENERAL:
        from . import _general as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
