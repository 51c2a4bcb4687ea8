"""Exception types shared across the package.

Every error carries a stable machine-readable ``kind`` string that the CLI
maps onto exit codes and ``error.json``.
"""


class BseError(Exception):
    """Base class; ``kind`` is a stable kebab-case identifier."""

    kind = "error"
    exit_code = 3


class InvalidArgumentError(BseError):
    kind = "invalid-argument"
    exit_code = 2


class ParseError(BseError):
    kind = "parse-error"
    exit_code = 2

    def __init__(self, message, offset=None, line=None):
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class DomainError(BseError):
    kind = "domain-error"
    exit_code = 2


class InvariantViolationError(BseError):
    kind = "invariant-violation"
    exit_code = 2


class DimensionMismatchError(BseError):
    kind = "dimension-mismatch"
    exit_code = 2


class DegenerateConstraintError(BseError):
    kind = "degenerate-constraint"
    exit_code = 2


class IncompatibleSourceError(BseError):
    kind = "incompatible-source"
    exit_code = 2


class SingularSystemError(BseError):
    kind = "singular-system"
    exit_code = 3


class IncompatibleRhsError(BseError):
    kind = "incompatible-rhs"
    exit_code = 3


class NoConvergenceError(BseError):
    kind = "no-convergence"
    exit_code = 3
