"""Exception types raised by the library's validation contracts, and the
typed field checks that every config section and input file shares."""

import numbers


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """A scalar hyperparameter violates its domain (e.g. temperature <= 0)."""


class DegenerateInputError(ValueError):
    """An input row is degenerate for the operation (e.g. zero-norm row)."""


class BatchTooSmallError(ValueError):
    """The batch has too few rows for the operation."""


class NormalizationError(ValueError):
    """Embeddings were expected to be row L2-normalized but are not."""


class DegenerateClassError(ValueError):
    """A class appears in the batch with too few members."""


class InvalidGraphError(ValueError):
    """A similarity matrix is not a valid instance-graph adjacency."""


class UndefinedBoundError(ValueError):
    """A class-wise lower bound is undefined (empty complement set)."""


class InfeasibleSplitError(ValueError):
    """A balanced label split cannot be produced from the given data."""


class ParseError(ValueError):
    """A delimited data file is malformed; message carries the line number."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, gradient or parameter value;
    carries the last good epoch."""

    def __init__(self, message: str, last_good_epoch: int):
        super().__init__(message)
        self.last_good_epoch = last_good_epoch


def check_integer(name: str, value) -> None:
    """Raise unless ``value`` is an int; a bool or an integral float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise unless ``value`` is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ParameterError(f"{name} must be true or false, got {value!r}")
