"""Optimal input states for discriminating families of quantum channels.

The package namespace holds the library entry points: family construction,
the sweep comparison, its feasibility certificate and the binary Bayes
risk, one constructor or certifier per optimal-input result, the
entanglement and adaptation analyses, and the phase-closure geometry.
Helpers live in their modules (``chanopt.channels``, ``chanopt.numerics``,
...); the command line is ``chanopt.cli``.

Names resolve on first use. ``import chanopt`` registers each module in
``sys.modules`` without running it (numpy is not imported either); a
module's source is compiled and run when one of its attributes is first
read, through ``chanopt.<name>`` or through an import from it.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# module: the names the package namespace exports from it
_EXPORTS = {
    "numerics": ("PureState", "SystemShape", "partial_transpose", "trace_norm"),
    "channels": ("apply_extended", "gen_pauli", "make_family", "weyl_ops"),
    "comparison": ("bayes_binary_risk", "cptp_feasible", "dominance_check", "gap_curve"),
    "entanglement": ("entanglement_breaking_gp", "separable_suffices"),
    "geometry": ("ang_nonempty", "ang_sample", "closure_residual"),
    "optimal_inputs": (
        "IrrepBlocks",
        "covariant_optimal_state",
        "group_correction_simulator",
        "pair_unitary_optimal_input",
        "phi_pv",
        "su2_cover_check",
        "unital_qubit_protocol",
        "universal_not_pair",
    ),
    "presets": (),
    "repetition": (
        "AdaptivePlan",
        "Strategy",
        "adaptive_vs_identical",
        "fresh_swap_interleavers",
        "identical_matches_sequential",
        "random_unitary_interleavers",
        "repeated_output",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _register(module: str):
    """chanopt.<module> in sys.modules, to be compiled and run on its first
    attribute access; also a package attribute, so that ``from chanopt
    import <module>`` returns it without running it."""
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    mod = module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    setattr(sys.modules[__name__], module, mod)
    return mod


_MODULES = {module: _register(module) for module in _EXPORTS}
# exported name -> the module that defines it
_HOME = {name: _MODULES[module] for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # PEP 562: read from the module at each call, not copied into the
    # package, so that a wrapper set on the module attribute (as the
    # benchmark's tracer sets) is what chanopt.<name> returns
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
