"""Exception hierarchy shared across the pipeline.

Each class carries the CLI's exit code and the label its one stderr
line opens with, so cli.main reads both from the error it catches.
"""


class PesignalError(Exception):
    """Base class for all pipeline errors."""


class UsageError(PesignalError):
    """Bad command line or configuration file."""

    exit_code, label = 1, "usage error"


class DataError(PesignalError):
    """Malformed, inconsistent, or insufficient input data."""

    exit_code, label = 2, "data error"


class InsufficientHistoryError(DataError):
    """Not enough quarters to standardize, estimate, and predict."""

    label = "insufficient history"


class NumericalError(PesignalError):
    """Non-finite values encountered during estimation."""

    exit_code, label = 3, "numerical failure"
