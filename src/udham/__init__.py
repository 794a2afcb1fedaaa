"""udham: a numerical laboratory for ultra-differentiable Hamiltonian
perturbation theory.

Subpackages by topic: ``weights`` (weight-sequence calculus and the
Cauchy/growth functions), ``dioph`` (small-denominator profiles, rational
approximation, the dyadic arithmetic test), ``series`` (truncated
Fourier-Taylor algebra with norm certificates), ``flows`` (affine
flows, Lie flows, symplectic integrators, pendulum orbits),
``normal_forms`` (averaging, periodic/multi-frequency/local normal forms,
the parameterized KAM iteration, stability-time predictors),
``instability`` (linear diffusion, the coupled-map drift machine,
single-resonance Liouville pairs), ``errors`` (the exceptions of every
layer), ``cli`` (batch experiment driver).  Each loads on first use (PEP 562).
"""

import importlib

__all__ = ["weights", "dioph", "series", "flows", "normal_forms",
           "instability", "errors", "cli"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
