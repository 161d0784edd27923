"""Worst-case feedback information rates for families of finite-state channels.

The library models a channel family with a shared kernel format, evaluates
directed information under causally conditioned input laws, solves the
max-min information rate by certify-then-ascend (a Frank-Wolfe upper bound
at the uniform input, with projected supergradient ascent only when it does
not close the gap), and closes the loop with code-tree encoders,
merged-ranking decoding, and seeded Monte Carlo against exact error sums.

The package namespace carries the documented entry points only; every other
name is imported from the module that defines it.
"""

from .capacity import SolverConfig, compute_Cn, ge_feedback_gap
from .causal import CausalConditioning, uniform_policy
from .channel import CompoundFamily, FeedbackMap, FscSpec, bsc, identity_feedback, load_family, no_feedback, save_family
from .codetree import sample_codebook
from .decoder import MLDecoder
from .directed_info import directed_information
from .errors import CapExceededError, ValidationError
from .presets import ge_gap_family, load_preset
from .simulate import TrialConfig, exact_error_probability, run_trials
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CausalConditioning",
    "CompoundFamily",
    "FeedbackMap",
    "FscSpec",
    "MLDecoder",
    "SolverConfig",
    "TrialConfig",
    "ValidationError",
    "bsc",
    "compute_Cn",
    "directed_information",
    "exact_error_probability",
    "ge_feedback_gap",
    "ge_gap_family",
    "identity_feedback",
    "load_family",
    "load_preset",
    "no_feedback",
    "run_suites",
    "run_trials",
    "sample_codebook",
    "save_family",
    "uniform_policy",
]
