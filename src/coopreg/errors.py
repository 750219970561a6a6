"""Exception types shared across the toolkit, and the one reader of input text."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatch(ToolkitError):
    """Operands are sampled on different grids."""


class NonPositiveBound(ToolkitError):
    """A positive spectral lower bound was required but does not exist."""


class DuplicateFrequency(ToolkitError):
    """A signal-model block was requested twice at the same frequency."""


class ResonantSpectrum(ToolkitError):
    """Spectra that must be disjoint intersect within tolerance."""


class SingularSystem(ToolkitError):
    """A discretized boundary-value system is numerically singular."""


class NotControllable(ToolkitError):
    """A controllability hypothesis fails."""


class NewtonDivergence(ToolkitError):
    """The Riccati iteration did not reach its residual tolerance."""


class SingularStep(ToolkitError):
    """A time step cannot be solved: the Crank-Nicolson matrix is not positive
    definite (dt at or above 2 / lambda_max of the stencil, named in the
    message) or its coupling matrix is singular."""


class NumericalBlowup(ToolkitError):
    """A simulated state left the configured bound, or a closed-loop matrix
    left the floating-point range."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ParseError(ToolkitError):
    """An input file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(ToolkitError):
    """A parsed scenario violates the schema; lists every violation."""

    def __init__(self, violations):
        violations = list(violations)
        super().__init__(
            "scenario schema violations:\n  - " + "\n  - ".join(violations)
        )
        self.violations = violations


def read_text(path, encoding: str) -> str:
    """The file decoded as ``encoding``; a byte that does not decode is a
    ParseError naming the file and the line of that byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        message = f"{path}: byte {data[exc.start]:#04x} is not {encoding} text"
        raise ParseError(message, line=line) from None
