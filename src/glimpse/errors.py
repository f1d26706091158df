"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class CacheMismatchError(ContractError):
    """A cache slot's valid length or content disagrees with the given context."""


class CapacityError(RuntimeError):
    """A preallocated buffer would have to grow past its fixed capacity."""


class TableParseError(ValueError):
    """An n-gram table file could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(ValueError):
    """Invalid run configuration (bad file, unknown method, bad value)."""
