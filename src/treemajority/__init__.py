"""Absolute-majority social-learning dynamics on rooted m-ary trees.

The analytic layers (``model``, ``update_map``, ``dynamics``) run on, and
return, Python floats, without numpy.  The simulator's names resolve from
``mc``, which needs numpy, on first access.
"""

from .model import (
    MAX_CHILDREN,
    ModelParams,
    binomial_pmf,
    policy_table,
    policy_value,
)
from .update_map import UpdateMap, df_dp, g_double_prime, g_eval, g_prime, g_prime_at_half
from .dynamics import (
    ATTRACTIVE,
    NEUTRAL,
    REPULSIVE,
    FixedPoint,
    FixedPointSet,
    IdentityMapError,
    SolverError,
    ThresholdResult,
    Trajectory,
    UnsupportedRegimeError,
    classify_stability,
    find_fixed_points,
    iterate_dynamics,
    m3_pb1_closed_form,
    predict_limit,
    solve_threshold,
)

__version__ = "0.1.0"

_MC_NAMES = frozenset(
    {"SimConfig", "SimResult", "estimate_g_one_step", "independence_check", "simulate_tree"}
)


def __getattr__(name: str):
    # Looked up in mc on every access, never stored here, so the package always
    # hands out mc's current binding of the name.
    if name in _MC_NAMES:
        from . import mc

        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_CHILDREN",
    "ModelParams",
    "binomial_pmf",
    "policy_value",
    "policy_table",
    "UpdateMap",
    "g_eval",
    "g_prime",
    "g_double_prime",
    "g_prime_at_half",
    "df_dp",
    "ATTRACTIVE",
    "REPULSIVE",
    "NEUTRAL",
    "FixedPoint",
    "FixedPointSet",
    "Trajectory",
    "ThresholdResult",
    "SolverError",
    "UnsupportedRegimeError",
    "IdentityMapError",
    "find_fixed_points",
    "classify_stability",
    "iterate_dynamics",
    "predict_limit",
    "solve_threshold",
    "m3_pb1_closed_form",
    "SimConfig",
    "SimResult",
    "estimate_g_one_step",
    "simulate_tree",
    "independence_check",
    "__version__",
]
