"""Exception types shared across the package."""

from __future__ import annotations


class RectboundError(Exception):
    """Base class for all library errors."""


class ParameterRangeError(RectboundError, ValueError):
    """A parameter is outside its documented range."""


class SupportEmptyError(RectboundError, ValueError):
    """A distribution was requested whose support is empty."""


class DimensionMismatchError(RectboundError, ValueError):
    """Objects with incompatible universe sizes were combined."""


class CapExceededError(RectboundError, RuntimeError):
    """An enumeration would exceed its configured resource cap."""


class KindMismatchError(RectboundError, TypeError):
    """An operation was applied to an object of the wrong kind."""


class ProtocolContractError(RectboundError, RuntimeError):
    """A protocol run broke its declared contract (cost, bits, output)."""


class ConvergenceError(RectboundError, RuntimeError):
    """An iterative solver hit its iteration cap before converging."""
