"""Exception hierarchy.

Everything raised on purpose by this package derives from EquicountError, so
callers (and the CLI exit-code mapping) can discriminate our failures from
genuine bugs.
"""

from __future__ import annotations


class EquicountError(Exception):
    """Base class for all errors raised by equicount."""


class DomainError(EquicountError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConstraintError(EquicountError, ValueError):
    """Model parameters violate a structural constraint.

    The message always names the violated inequality, e.g.
    ``requires 0 < phi1 < dphi1``.
    """


class QuadratureToleranceError(EquicountError):
    """Adaptive quadrature exhausted its panel budget before the tolerance.

    Carries the best estimate and the residual error bound so callers can
    decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class EigensolverError(EquicountError):
    """The Schur/eigenvalue backend failed to converge.

    The offending matrix is attached for offline reproduction.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class SampleFlaggedError(EquicountError):
    """A brute-force field sample hit a degenerate configuration.

    Flagged samples are excluded from batch summaries; the exclusion rate is
    reported alongside the results. ``reason`` is a short machine-readable tag.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"sample flagged: {reason}" + (f" ({detail})" if detail else ""))
        self.reason = reason
