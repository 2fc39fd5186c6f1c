"""Exception types shared across the package."""


class DdpError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DdpError):
    """Invalid pipeline configuration."""


class ParseError(DdpError):
    """Malformed input file content."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(ParseError):
    """Input parsed but violates a value constraint (non-finite, wrong width)."""


class TruncationError(ParseError):
    """A data-burst ended before the configured number of samples."""


class ContractViolation(DdpError):
    """Two in-process objects disagree on shape or pairing."""


class GroupUnavailable(DdpError):
    """A requested subject group has no usable values."""
