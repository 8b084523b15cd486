"""Exception types shared across the package."""


class FluxGraphError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FluxGraphError):
    """A configuration value or file is invalid."""


def check_type(name: str, value, default) -> None:
    """Raise ConfigError naming name unless value has default's type.
    bool is not an int, an int may stand for a float, and a default of
    None admits any value."""
    kind = type(default)
    if not (default is None or type(value) is kind
            or (kind is float and type(value) is int)):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


class MalformedRecordError(FluxGraphError):
    """A ledger record line or a CSV row could not be parsed.

    Carries the 1-based line number (None when parsing a bare string),
    the file path when known (it may be set after construction, by the
    reader that knows the file), and a human-readable reason.
    """

    def __init__(self, reason: str, line_no=None, path=None):
        super().__init__(reason)
        self.reason = reason
        self.line_no = line_no
        self.path = path

    def __str__(self) -> str:
        where = f"line {self.line_no}: " if self.line_no is not None else ""
        if self.path is not None:
            where = f"{self.path}:{self.line_no}: "
        return where + self.reason


class MissingFieldError(MalformedRecordError):
    """A mandatory record field is absent."""

    def __init__(self, field: str, line_no=None):
        self.field = field
        super().__init__(f"missing mandatory field '{field}'", line_no=line_no)


class UnknownAccountError(FluxGraphError):
    """An account id was referenced that does not exist in the graph."""


class LabelFileError(FluxGraphError):
    """The address/label CSV could not be opened."""


class ClusterOverlapError(FluxGraphError):
    """Two clusters claim the same account."""


class PartialColoringError(FluxGraphError):
    """A node of the graph has no assigned color."""


class ConsistencyError(FluxGraphError):
    """Aggregate accounting does not add up; the run must not be trusted."""


class VerificationError(FluxGraphError):
    """The independent contraction check disagreed with the result."""
