"""udham: a numerical laboratory for ultra-differentiable Hamiltonian
perturbation theory.

Subpackages by topic: ``weights`` (weight-sequence calculus and the
Cauchy/growth functions), ``dioph`` (small-denominator profiles, rational
approximation, the dyadic arithmetic test), ``series`` (truncated
Fourier-Taylor algebra with norm certificates), ``flows`` (exact shears,
affine flows, Lie flows, symplectic integrators, pendulum orbits),
``normal_forms`` (averaging, periodic/multi-frequency/local normal forms,
the parameterized KAM iteration, stability-time predictors),
``instability`` (linear diffusion, the coupled-map drift machine,
single-resonance Liouville pairs), ``cli`` (batch experiment driver).
"""

# cli is left out so that `python -m udham.cli` imports it only once
from . import dioph, flows, instability, normal_forms, series, weights

__all__ = ["weights", "dioph", "series", "flows", "normal_forms",
           "instability", "cli"]
__version__ = "0.1.0"
