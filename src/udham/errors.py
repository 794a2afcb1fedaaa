"""The exceptions of every udham layer, in a module that loads no numpy: each
library module exports those it raises, and the CLI catches them from here."""


class ParameterError(ValueError):
    """Invalid family parameters."""


class HorizonError(RuntimeError):
    """A sup/argmax ran off the stored horizon; carries the partial value
    and, when the horizon is a weight sequence's, its L_max."""

    def __init__(self, msg, partial=None, l_max=None):
        super().__init__(msg)
        self.partial = partial
        self.l_max = l_max


class ResonanceError(ValueError):
    """An exact resonance k.omega = 0 was found; carries the resonant k."""

    def __init__(self, msg, k):
        super().__init__(msg)
        self.k = tuple(int(x) for x in k)


class BudgetError(RuntimeError):
    """Enumeration budget exceeded."""


class UnsupportedError(RuntimeError):
    """Requested construction is outside the implemented range."""


class LieDivergence(RuntimeError):
    """Lie-series tail stopped decreasing before the tolerance was met."""


class TaylorTailError(RuntimeError):
    """Taylor tail of an angle composition not met by the order cap."""


class StiffnessError(RuntimeError):
    """Integrator step-size underflow."""


class QuadratureError(RuntimeError):
    """Quadrature panels or root-bracket steps exhausted before the tolerance."""


class DomainMismatch(ValueError):
    """Incompatible dimensions between two series."""
