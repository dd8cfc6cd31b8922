"""Exception types shared across the package."""


class ShapeError(ValueError):
    """A partition does not satisfy a length/containment precondition."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size/term budget."""


class DivergenceError(ArithmeticError):
    """A specialization pairing falls outside its convergence radius."""


class StabilityError(ValueError):
    """A specialization is not regular where an expansion needs it."""


class OrderError(ValueError):
    """A truncated series does not carry enough terms for the request."""


class DeficitError(RuntimeError):
    """A transition row's truncation tail mass exceeds the configured bound."""
