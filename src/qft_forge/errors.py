"""Exception types raised by the design pipeline.

Everything derives from QftError so callers can catch the whole family at the
CLI boundary and map it onto an exit code.  A failed check is not an error: a
loop exactly on -1, for one, fails its bound probe and reads +inf dB in the
verification envelope.
"""


class QftError(Exception):
    """Base class for all library errors."""


class ConfigError(QftError):
    """Configuration file is missing, malformed, or fails validation."""


class PoleOnAxis(QftError):
    """Transfer function evaluated at (or numerically on) one of its poles."""


class ZeroMagnitude(QftError):
    """Nichols coordinates requested for a response with zero magnitude."""


class InvalidM(QftError):
    """M-circle value must be a real number greater than 1."""


class ExpressionSyntaxError(QftError):
    """Coefficient expression failed to parse.

    Carries the zero-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownParameter(QftError):
    """Coefficient expression references a parameter that was not declared."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown parameter '{name}' (at position {position})")
        self.name = name
        self.position = position


class UndefinedCoefficient(QftError, ValueError):
    """Coefficient expression has no finite real value at a parameter point."""


class OutOfBox(QftError):
    """Parameter point lies outside the declared uncertainty box."""


class TemplateTooWide(QftError):
    """Template spans more than 180 degrees of phase; single-branch hulls
    are no longer meaningful."""


class DegenerateSpread(QftError):
    """Tracking models are too close together to define a usable spread."""


class BoundBelowUContour(QftError):
    """A finite performance bound lies below the bottom of the high-frequency
    stability contour; the max-combination would silently hide the conflict."""


class EmptyWindow(QftError):
    """No phase-grid point falls inside the +/-90 degree controller window."""


class RankDeficient(QftError):
    """Phase-constraint matrix lost rank; its kernel is not one-dimensional."""


class NegativeMappedGain(QftError):
    """Inverse filtered-derivative map produced a negative physical gain."""


class NoFeasiblePoint(QftError):
    """Exhaustive search found no feasible gain triple in the box."""
