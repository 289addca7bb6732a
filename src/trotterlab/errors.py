"""Exception types shared across the package."""


class TrotterlabError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(TrotterlabError):
    """Input contains NaN or Inf entries."""


class NonHermitian(TrotterlabError):
    """Matrix is not Hermitian within the accepted tolerance."""


class EmptyInput(TrotterlabError):
    """A transform was requested on an empty vector."""


class NotSplit(TrotterlabError):
    """A flow generator or a sampled symbol depends on both phase-space variables."""


class PacketTouchesBoundary(TrotterlabError):
    """Wavepacket amplitude at the domain boundary is not negligible."""


class UnnormalizedState(TrotterlabError):
    """State vector does not have unit norm."""


class TooFewPoints(TrotterlabError):
    """Not enough usable points for a least-squares slope fit."""


class Unreachable(TrotterlabError):
    """Step-count search exceeded its cap without meeting the target."""


class NonMonotone(TrotterlabError):
    """Error curve rises again above the step count a search returned."""


class ParseError(TrotterlabError):
    """Configuration document is not syntactically valid."""


class ValidationError(TrotterlabError):
    """Configuration document is well-formed but semantically invalid."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def check(condition: bool, field: str, message: str) -> None:
    """Raise ValidationError(field, message) unless ``condition`` holds."""
    if not condition:
        raise ValidationError(field, message)
