"""Exception types shared across the package."""


class HypkmError(Exception):
    """Base class for all package errors."""


class ArgumentError(HypkmError, ValueError):
    """A parameter is outside its admissible range (bad lambda, eps <= 0, ...)."""


class MeshCapError(ArgumentError):
    """A finite mesh would exceed the sanity cap on its point count."""


class DomainError(HypkmError):
    """A point does not belong to the space it was used with."""


class DomainEscapeError(DomainError):
    """An iterate left the domain of its map; carries the offending step."""

    def __init__(self, step: int, point, message: str = ""):
        self.step = step
        self.point = point
        detail = message or f"iterate left the domain at step {step}: {point!r}"
        super().__init__(detail)


class ScheduleError(HypkmError):
    """A step-size schedule fails its witnessed divergence/boundedness hypothesis."""


class ConfigError(HypkmError):
    """A configuration file is malformed or references unknown catalog entries."""


class SelectionError(HypkmError):
    """A selection function returned a point outside its required slice."""


class OracleError(HypkmError):
    """An approximate-fixed-point oracle could not meet (or violated) its contract."""


class ProbeContractError(HypkmError):
    """A user-supplied probe violated its stated displacement/residual bounds."""


class InvariantError(HypkmError):
    """A certified inequality failed where theory guarantees it; implementation bug."""


class BudgetExhausted(HypkmError):
    """The iteration budget ran out before a certificate was produced."""

    def __init__(self, best_residual: float, message: str = ""):
        self.best_residual = best_residual
        super().__init__(message or f"budget exhausted; best residual {best_residual!r}")


class RateOverflowError(HypkmError):
    """An exact rate value does not fit in the configured digit/step budgets.

    ``log10_upper`` is a sound upper bound on log10 of the true value when one
    is available, so callers can still report the value as ``<= 10^log10_upper``.
    When even the digit count is astronomical, ``log10_log10_upper`` bounds
    log10(log10(value)) instead; the message renders it by ``describe_overflow``.
    """

    def __init__(self, log10_upper=None, log10_log10_upper=None, context: str = ""):
        self.log10_upper = log10_upper
        self.log10_log10_upper = log10_log10_upper
        self.context = context

    def __str__(self) -> str:
        from .rates import describe_overflow  # rates imports this module

        msg = f"rate value exceeds exact-computation budget; value {describe_overflow(self)}"
        return f"{msg} ({self.context})" if self.context else msg
