"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the input."""


class NoGoodPairingError(ValueError):
    """No index pairing with equal roots and odd index sum exists."""


class ClassificationError(ValueError):
    """A vanishing six-term sum did not fit any of the three known shapes."""


class InvariantError(ArithmeticError):
    """A case analysis proved to be exhaustive met a case outside it."""


class WorkLimitError(ValueError):
    """An exact search would exceed the module's fixed work limit."""
