"""Optimal input states for discriminating families of quantum channels.

The package namespace holds the library entry points: family construction,
the sweep comparison, its feasibility certificate and the binary Bayes
risk, one constructor or certifier per optimal-input result, the
entanglement and adaptation analyses, and the phase-closure geometry.
Helpers live in their modules (``chanopt.channels``, ``chanopt.numerics``,
...); the command line is ``chanopt.cli``.
"""

from .channels import apply_extended, gen_pauli, make_family, weyl_ops
from .comparison import bayes_binary_risk, cptp_feasible, dominance_check, gap_curve
from .entanglement import entanglement_breaking_gp, separable_suffices
from .geometry import ang_nonempty, ang_sample, closure_residual
from .numerics import SystemShape, partial_transpose, trace_norm
from .optimal_inputs import (
    IrrepBlocks,
    PureState,
    covariant_optimal_state,
    group_correction_simulator,
    pair_unitary_optimal_input,
    phi_pv,
    su2_cover_check,
    unital_qubit_protocol,
    universal_not_pair,
)
from .repetition import (
    AdaptivePlan,
    Strategy,
    adaptive_vs_identical,
    fresh_swap_interleavers,
    identical_matches_sequential,
    random_unitary_interleavers,
    repeated_output,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptivePlan",
    "IrrepBlocks",
    "PureState",
    "Strategy",
    "SystemShape",
    "adaptive_vs_identical",
    "ang_nonempty",
    "ang_sample",
    "apply_extended",
    "bayes_binary_risk",
    "closure_residual",
    "covariant_optimal_state",
    "cptp_feasible",
    "dominance_check",
    "entanglement_breaking_gp",
    "fresh_swap_interleavers",
    "gap_curve",
    "gen_pauli",
    "group_correction_simulator",
    "identical_matches_sequential",
    "make_family",
    "pair_unitary_optimal_input",
    "partial_transpose",
    "phi_pv",
    "random_unitary_interleavers",
    "repeated_output",
    "separable_suffices",
    "su2_cover_check",
    "trace_norm",
    "unital_qubit_protocol",
    "universal_not_pair",
    "weyl_ops",
]
