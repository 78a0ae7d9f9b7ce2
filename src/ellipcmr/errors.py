"""Exception types shared across the library."""


class EllipcmrError(Exception):
    """Base class for all library errors."""

    code = "error"


class DomainError(EllipcmrError):
    """Invalid half-periods, nome, or parameter ranges."""

    code = "domain"


class TailBoundError(EllipcmrError):
    """The certified truncation bound cannot be met within the term cap."""

    code = "tail-bound"


class PoleError(EllipcmrError):
    """Evaluation requested at or too close to a pole or zero argument."""

    code = "pole"


class BranchError(EllipcmrError):
    """Fractional power requested outside the principal-branch domain."""

    code = "branch"


class ResonanceError(EllipcmrError):
    """Vanishing recursion divisor with a non-vanishing source term."""

    code = "resonance"


class ConvergenceError(EllipcmrError):
    """Iteration or quadrature failed to reach its certified tolerance."""

    code = "convergence"


class SeamError(EllipcmrError):
    """Contour endpoints disagree: integrand is not periodic on the contour."""

    code = "seam"


class WindowError(EllipcmrError):
    """Contour radii outside the admissible annulus."""

    code = "window"
