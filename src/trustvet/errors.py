"""Exception types shared across the package.

Every error raised deliberately by this package derives from TrustvetError,
so callers (and the CLI) can catch one base class and map it to exit code 2.
"""

from __future__ import annotations


class TrustvetError(Exception):
    """Base class for all errors raised by this package."""


class IdentityMismatchError(TrustvetError):
    """Two artifacts that must describe the same function disagree on function_id."""


class MalformedExplanationError(TrustvetError):
    """An explanation violates its structural contract (duplicate lines, bad scores)."""


class ParseError(TrustvetError):
    """Source text could not be parsed (unbalanced braces, truncated input)."""


class UnsupportedConstructError(TrustvetError):
    """Source uses syntax outside the supported C-like subset."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ImportSchemaError(TrustvetError):
    """An external graph export does not follow the documented import schema."""


class DiffMismatchError(TrustvetError):
    """A unified diff does not apply to the source it was paired with."""


class UndefinedInputError(TrustvetError):
    """An operation was asked to work on input for which it is undefined (empty
    candidate, empty vote vector, empty normalized line)."""


class DegenerateTrainingError(TrustvetError):
    """A training set does not contain both classes."""


class AdapterError(TrustvetError):
    """An external classifier adapter timed out or violated the wire protocol."""

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


class ClassificationError(TrustvetError):
    """A classifier failed while scoring a specific line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownEdgeError(TrustvetError):
    """An edge handed to a graph operation does not belong to the graph."""


class ContractError(TrustvetError):
    """A caller violated an operation precondition (e.g. start line not benign)."""


class UndefinedGroundTruthError(TrustvetError):
    """Ground-truth construction was attempted with an empty vulnerable-line set."""


class CalibrationError(TrustvetError):
    """Threshold calibration is impossible (single-class labels)."""


class SchemaError(TrustvetError):
    """A persisted artifact has an unknown schema version or a malformed layout."""


class PipelineError(TrustvetError):
    """A pipeline stage failed; wraps the underlying error with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
