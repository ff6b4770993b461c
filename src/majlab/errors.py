"""Exception taxonomy shared by the library and the CLI.

Every domain error carries a short machine-parsable ``code`` that the CLI
prints as the first token of its one-line error message (exit status 1).
"""

from __future__ import annotations


class MajlabError(Exception):
    """Base class for all domain errors."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class TreeFormatError(MajlabError):
    code = "TREE_FORMAT"


class DegreeParityError(MajlabError):
    code = "DEGREE_PARITY"


class NotATreeError(MajlabError):
    """Cyclic, disconnected, or wrong edge count."""

    code = "NOT_A_TREE"


class TooSmallError(MajlabError):
    """Input below the size threshold an operation requires."""

    code = "TOO_SMALL"


class LengthMismatchError(MajlabError):
    """Opinion vector length does not match the host vertex count."""

    code = "INIT_LENGTH_MISMATCH"


class OpinionFormatError(MajlabError):
    """Opinion text or file is malformed: a character outside the +/-
    alphabet, bytes that are not UTF-8, or not exactly one non-empty line."""

    code = "OPINION_FORMAT"


class BadVertexError(MajlabError):
    code = "BAD_VERTEX"


class BadPathError(MajlabError):
    """Candidate path violates the worst-case search side conditions."""

    code = "BAD_PATH"


class BadTimeError(MajlabError):
    """Time index outside an operation's admissible range."""

    code = "BAD_TIME"


class BadHostError(MajlabError):
    """Host shape outside an operation's admissible family."""

    code = "BAD_HOST"


class BudgetExceededError(MajlabError):
    """Exhaustive enumeration would exceed the configured budget."""

    code = "BUDGET_EXCEEDED"


class PartitionError(MajlabError):
    code = "BAD_PARTITION"


class InvariantViolationError(MajlabError):
    """A guaranteed property failed at runtime; always a bug, never silenced."""

    code = "INVARIANT_VIOLATION"
