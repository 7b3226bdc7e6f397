"""coalflow: coalescing stochastic flows on the line.

Simulation of n-point coalescing motions (Brownian, diffusion, Harris),
skeleton-plus-envelope construction of evaluable flow elements, the shift
group and perfect cocycle over them, and a statistical battery verifying the
defining axioms and quantitative bounds.
"""

__version__ = "0.1.0"

from .errors import (AboveRange, CoalflowError, ConfigError, EmptyStarts,
                     InvalidGap, InvalidTimePair, NegativeDuration,
                     NoAnalyticLaw, NonPositiveDiffusion, OffGridTime,
                     OutOfHorizon)
from .flows import (AnalyticFlow, ConstantFlow, EvalQuery, FlowElement,
                    SkeletonEnvelope, analytic_flow_element, characterize_lt,
                    check_flow_axioms, cocycle, evaluate, range_at, shift,
                    skeleton_flow_element)
from .motions import (DiffusionSpec, HarrisSpec, bridge_cross_probability,
                      pair_no_meet_probability_exact, sample_npoint_motion,
                      scale_function, step_system)
from .rng import RngStream
from .skeleton import (SkeletonConfig, SkeletonFlow, build_skeleton,
                       check_sp_properties)

__all__ = [
    "AboveRange", "AnalyticFlow", "CoalflowError", "ConfigError",
    "ConstantFlow", "DiffusionSpec", "EmptyStarts",
    "EvalQuery", "FlowElement", "HarrisSpec", "InvalidGap", "InvalidTimePair",
    "NegativeDuration", "NoAnalyticLaw", "NonPositiveDiffusion", "OffGridTime",
    "OutOfHorizon", "RngStream", "SkeletonConfig", "SkeletonEnvelope",
    "SkeletonFlow", "analytic_flow_element",
    "bridge_cross_probability", "build_skeleton", "characterize_lt",
    "check_flow_axioms", "check_sp_properties", "cocycle", "evaluate",
    "pair_no_meet_probability_exact", "range_at", "sample_npoint_motion",
    "scale_function", "shift", "skeleton_flow_element", "step_system",
]
