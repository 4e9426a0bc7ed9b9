"""Exception hierarchy shared across the package."""


class Hyp321Error(Exception):
    """Base class for all package-specific errors."""


class ShapeError(Hyp321Error, ValueError):
    """Input of the wrong form: a parameter set that is not 3F2-shaped where
    one is required, an unknown contiguous family, a contiguous offset
    that is not an integer or is beyond ``contiguous.MAX_OFFSET``, a
    tolerance that is not finite and positive, or fewer than 3 trials."""


class PoleError(Hyp321Error):
    """A gamma/polygamma argument landed (numerically) on a non-positive integer."""


class GammaOverflow(Hyp321Error, OverflowError):
    """A gamma value overflows a float or underflows to 0, or a power
    overflows a complex float."""


class UnboundSymbol(Hyp321Error):
    """An expression was evaluated with a free symbol missing from the assignment."""


class NonIntegerSumBound(Hyp321Error):
    """A finite-sum bound did not bind to an integer."""


class DivergentSeries(Hyp321Error):
    """Non-terminating series at unit argument with Re(excess) <= 0, or an
    excess within POLE_TOL of 0."""


class LowerPole(Hyp321Error):
    """A lower parameter hits a non-positive integer before the series terminates."""


class NonFiniteParameter(Hyp321Error):
    """A numeric series or contiguous-element parameter is NaN or infinite."""


class NonFiniteValue(Hyp321Error):
    """A computed value (a contiguous element) is NaN or infinite."""


class NoConvergence(Hyp321Error):
    """The truncation cap was exceeded before the requested tolerance was met."""


class ParseError(Hyp321Error):
    """Malformed input text (parameter grammar or database file)."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class UnknownEntry(Hyp321Error, KeyError):
    """No database entry has the requested id."""


class SchemaVersionMismatch(Hyp321Error):
    """Database file declares an unsupported schema version."""


class InsufficientSamples(Hyp321Error):
    """verify_entry could not find enough convergent, pole-free samples."""


class SingularRecursionPath(Hyp321Error):
    """A contiguous-recursion denominator vanished along the chosen path."""


class AnchorPole(Hyp321Error):
    """A recursion anchor could not be evaluated (gamma pole in its closed form)."""


class NoConvergentCheck(Hyp321Error):
    """A value was produced but no convergent series cross-check is available."""


class ExceptionalCase(Hyp321Error):
    """Parameter configuration for which the requested conversion formula fails."""
