"""Wave-packet collapse and revival dynamics on compact domains."""

from .params import (CapacityError, ContractViolation, DegenerateStateError,
                     DomainError, MethodUnavailable, OracleFailure,
                     PhasePoint, PhysicalParams, RangeError, wrap_position)
from .theta import dispersion, gaussian_overlap, gaussian_packet, theta
from .circle import (LimitProfile, RevivalStructure, TimeScales, WaveState,
                     circle_norm_sq, circle_overlap, eval_state, evolve,
                     limit_profile, make_circle_state,
                     profile_position_density, revival_structure,
                     time_scales)
from .box import box_norm_sq, box_overlap, make_box_state
from .husimi import (ClassicalDensity, DensityOperatorMixture,
                     SemiclassicalSchedule, TestFamily, classical_transport,
                     gaussian_mixture_density, husimi, husimi_grid,
                     kozlov_limit, make_schedule, pair_classical,
                     pair_profile, pair_sampled, residual_trend_ok,
                     rho_from_classical, transition_grid)
from .randombox import (RandomBoxModel, delta_correction, p_xt,
                        time_average_density, uniform_part)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ClassicalDensity", "ContractViolation",
    "DegenerateStateError", "DensityOperatorMixture", "DomainError",
    "LimitProfile", "MethodUnavailable", "OracleFailure", "PhasePoint",
    "PhysicalParams", "RandomBoxModel", "RangeError", "RevivalStructure",
    "SemiclassicalSchedule", "TestFamily", "TimeScales", "WaveState",
    "box_norm_sq", "box_overlap", "circle_norm_sq", "circle_overlap",
    "classical_transport", "delta_correction", "dispersion", "eval_state",
    "evolve", "gaussian_mixture_density", "gaussian_overlap",
    "gaussian_packet", "husimi", "husimi_grid", "kozlov_limit",
    "limit_profile", "make_box_state", "make_circle_state", "make_schedule",
    "p_xt", "pair_classical", "pair_profile", "pair_sampled",
    "profile_position_density", "residual_trend_ok", "revival_structure",
    "rho_from_classical", "theta", "time_average_density", "time_scales",
    "transition_grid", "uniform_part", "wrap_position",
]
