"""Exception hierarchy shared across the package.

Everything raised on purpose derives from ChainforgeError so callers can
catch one base class at the CLI boundary and still get specific types in
library code.
"""


class ChainforgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ChainforgeError):
    """An input file is malformed (bad JSON, missing or mistyped keys)."""


class ValidationError(ChainforgeError):
    """Structurally well-formed data violates a model invariant."""


class ConfigError(ChainforgeError):
    """A configuration value is unusable (bad scale, mismatched inputs)."""


class DomainError(ChainforgeError):
    """An index evaluation was asked outside its mathematical domain."""


class InfeasibleConfigError(ConfigError):
    """A requested facility layout cannot be satisfied."""


class NumericalError(ChainforgeError):
    """The linear solver could not make progress within tolerance."""
