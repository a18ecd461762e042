"""Exception types raised by the library's validation contracts, and the
checks that every input boundary shares.

Every JSON input (config, ``--case`` file, checkpoint, run record) is read
by :func:`read_json_object`, so a missing file, text that is not UTF-8 JSON
and a payload that is not an object fail alike and name the file.  Every
object with a fixed set of fields (each config section, ``train.augment``,
the config's top level, the case file) rejects unknown ones through
:func:`check_fields`, and each field is typed by :func:`check_integer`,
:func:`check_real`, :func:`check_bool` or :func:`check_integer_list`.
Callers add the file (and the config section) to the message once, where
the object is read.
"""

import json
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

    def __reduce__(self):  # pickled from a worker process: both arguments
        return type(self), (str(self), self.last_good_epoch)


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


def check_integer_list(name: str, value) -> tuple[int, ...]:
    """Raise unless ``value`` is a list (or tuple) of ints; return it as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list, got {value!r}")
    for entry in value:
        check_integer(f"{name} entry", entry)
    return tuple(int(entry) for entry in value)


def check_fields(given, known, kind: str = "config") -> None:
    """Raise unless every key of ``given`` is one of the ``known`` field names."""
    unknown = set(given) - set(known)
    if unknown:
        raise ParameterError(f"unknown {kind} fields: {sorted(unknown)}")


def read_json_object(path, kind: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; every error names the
    file, and ``kind`` ("config", "checkpoint", ...) says what it should be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"{path}: {kind} file not found") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ParameterError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: {kind} must be a JSON object, got {type(doc).__name__}")
    return doc
