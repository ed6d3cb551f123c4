"""Exception types shared across the package."""

from __future__ import annotations


class FedmeshError(Exception):
    """Base class for every error raised by this package."""


# --- identifiers and secrets ---


class InvalidIdentifier(FedmeshError):
    """Identifier is empty after trimming."""


class SecretNotFound(FedmeshError):
    """Named secret is not present in any configured source."""


class WeakSecret(FedmeshError):
    """Secret material is shorter than the minimum key length."""


# --- datastore and configuration ---


def shown_name(name: str) -> str:
    """A name an input file chose, as an error text shows it: printable and
    at most 32 characters, so no text grows with the file."""
    shown = name if name.isprintable() else repr(name)[1:-1]
    return shown if len(shown) <= 32 else shown[:29] + "..."


class SchemaError(FedmeshError):
    """A required column or heading is missing from an input file."""

    def __init__(self, name: str, message: str | None = None) -> None:
        super().__init__(message or f"missing required element: {name}")
        self.name = name


class RowError(FedmeshError):
    """A data row could not be parsed."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(FedmeshError):
    """Node or topology configuration is invalid."""


class TraceFormatError(FedmeshError):
    """A trace file line is not a valid envelope record."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- runtime ---


class OperationNotFound(FedmeshError):
    """Request addressed an operation the node does not expose."""


class AuthError(FedmeshError):
    """Access key does not match the addressed operation."""


class LoopLimitExceeded(FedmeshError):
    """Policy kept requesting tools past the iteration bound."""


class ToolNotPermitted(FedmeshError):
    """Policy requested a tool outside the operation's permitted set."""


class ToolError(FedmeshError):
    """A permitted tool failed while executing."""


# --- relay ---


class TargetNotConfigured(FedmeshError):
    """Relay call named a target absent from the node's configuration."""


class LeakBlocked(FedmeshError):
    """The guard found a request that breaks a locality rule; nothing was
    sent.

    The message names the edge, the rules and the source columns but never
    the offending values themselves; the structured findings
    (``locality.Finding``) carry those for local use.
    """

    def __init__(self, message: str, findings: tuple = ()) -> None:
        super().__init__(message)
        self.findings = findings


class RelayAuthError(FedmeshError):
    """Remote node rejected the relay access key."""


class RelayRemoteError(FedmeshError):
    """Remote node answered with a non-auth error response."""


class RelayTransportError(FedmeshError):
    """Relay transport failed before a response could be read."""


# --- message templates ---


class ParseError(FedmeshError):
    """Message body does not match the expected template."""

    def __init__(self, field: str, message: str | None = None) -> None:
        super().__init__(message or f"missing or malformed field: {field}")
        self.field = field
