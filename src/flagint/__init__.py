"""Numerics for fractional integration along flag kernels.

Exact rational bookkeeping for the exponent conditions, a singularity-aware
quadrature engine for the convolution operator, atom construction and
validation, and the scan experiments behind the boundedness frontier.

`import flagint` loads no numpy: the names of errors and exponents are bound
at import, and every other public name is looked up in its module on first
use (PEP 562), which loads the engine then.
"""

import importlib

from . import errors, exponents

# each public name, by the module that defines it
_EXPORTS = {
    "errors": (
        "AccuracyError", "ConfigIncompleteError", "ExponentRangeError", "FitWindowError",
        "FlagIntError", "PreconditionError", "RegionError", "SingularityError", "UsageError",
    ),
    "exponents": (
        "DerivedExponents", "ExponentConfig", "as_rational", "check_formula_one",
        "check_formula_two", "derive_ab", "heisenberg_map", "strict_consequences",
    ),
    "spec": ("QuadratureSpec",),
    "kernel": (
        "FlagKernel", "PointPair", "dominating_kernel_eval", "kernel_eval", "point_pair",
        "product_kernel_points",
    ),
    "domain": (
        "CounterexampleRegion", "Cube", "GapRegion", "Shell", "Window", "centered_window",
        "shell_case", "shell_family",
    ),
    "quadrature": (
        "TestFunction", "apply_operator", "apply_riesz_1d", "indicator_box", "lp_norm",
        "lq_mass", "lq_mass_dominating", "piecewise_constant", "smooth_bump",
        "sufficient_inner_cutoff",
    ),
    "atoms": (
        "Atom", "AtomReport", "atom_from_json", "atom_to_json", "make_random_atom",
        "make_signum_atom", "noncancelling_counterpart", "signum_atom_at_scale",
        "validate_atom",
    ),
    "experiments": (
        "DecayFit", "ScanResult", "counterexample_growth", "dilation_scan", "fit_loglog",
        "frontier_map", "hls_iteration_check", "shell_decay_profile",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"

# neither module imports numpy, so their names are bound now
globals().update({name: getattr(globals()[module], name)
                  for module in ("errors", "exponents") for name in _EXPORTS[module]})


def __getattr__(name: str):
    # an engine name is looked up in its module on every access and never
    # bound here, so that whoever rebinds it in that module (bench/tracing.py
    # wraps it while tracing) is seen here, and undone here too
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
