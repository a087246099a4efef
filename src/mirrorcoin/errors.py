"""Shared exception types."""


class DomainViolation(ValueError):
    """A primal point sits on or outside the boundary of its domain."""


class NumericalOverflow(FloatingPointError):
    """An intermediate quantity left the representable float64 range."""


class NumericalFailure(RuntimeError):
    """A computation produced NaN/Inf where a finite value is required."""


class Unsupported(NotImplementedError):
    """The requested operation has no implementation for these inputs."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration.

    Carries the full list of violations so a caller can report them all
    at once instead of failing on the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
