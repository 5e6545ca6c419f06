"""Exact-arithmetic toolkit for probabilistic q-Bernstein polynomials.

Everything is computed over arbitrary-precision rationals: bracket calculus
at coherent rational points, truncated power series over exact rings, moment
providers for the supported probability laws, the polynomial and special
number families defined by their generating functions, closed-form q-measure
integral operators, and an audit registry that checks a catalogue of claimed
identities by comparing independently computed sides for literal equality.

The package's names are exported lazily (PEP 562): the first read of
``qbernstein.<name>`` imports the module that defines it, so importing the
package, or ``qbernstein.cli`` to parse a command line, loads no engine
module.
"""

# module -> the public names it defines
_EXPORTS = {
    "distributions": (
        "Bernoulli", "Binomial", "Constant", "CustomMoments", "Distribution",
        "Geometric", "NegBinomial", "Poisson", "Uniform01",
    ),
    "families": (
        "bell_poly", "bernstein_classical", "euler_poly", "frobenius_euler",
        "higher_bernoulli", "prob_bernoulli", "prob_bernoulli_higher", "prob_euler",
        "prob_qbernstein", "prob_qbernstein_gf", "prob_qbernstein_laurent",
        "prob_stirling2", "qbernstein", "stirling2",
    ),
    "padic": (
        "carlitz_beta", "fermionic", "integrate_corollaries",
        "integrate_weighted_term", "q_euler", "volkenborn",
    ),
    "qcalc": ("QPoint", "one_minus_bracket_power"),
    "rings": ("Laurent", "LogPoly", "Poly", "falling_factorial", "laurent_x_derivation"),
    "series": ("Series", "exp_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and keep its value here, so
    the next read is a plain attribute read."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
