"""Exception types shared across the package."""


class ContractError(ValueError):
    """A precondition of an operation was violated by the caller."""


class CycleError(ValueError):
    """An order relation with a cycle; `vertex` is its lowest vertex on one."""

    def __init__(self, vertex: int):
        super().__init__(f"order has a cycle through vertex {vertex}")
        self.vertex = vertex


class CapacityError(RuntimeError):
    """An input exceeds a documented brute-force size bound."""


class FormatError(ValueError):
    """A file or JSON document does not follow the expected format."""


class PatternSyntaxError(FormatError):
    """Syntax error in a .mcpat pattern file, with source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class RewriteError(RuntimeError):
    """A pattern cannot be standardized with disjoint-qubit commutations only."""
