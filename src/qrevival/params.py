"""Physical parameter bundles shared by every solver module."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(ArithmeticError):
    """A series term overflowed double precision."""


class CapacityError(RuntimeError):
    """A truncation window grew past the hard mode cap."""


class ContractViolation(ValueError):
    """A documented precondition was violated."""


class MethodUnavailable(RuntimeError):
    """The requested evaluation path does not apply to this state."""


class DegenerateStateError(DomainError):
    """Construction requested inside the zero-state exclusion region."""


class OracleFailure(RuntimeError):
    """An independent verification computation failed to converge."""


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """The quadruple (hbar, m, alpha, l) fixing one simulation instance.

    Attributes
    ----------
    hbar : float
        Action quantum, > 0.
    mass : float
        Particle mass, > 0.
    alpha : float
        Width parameter of the Gaussian packet, > 0.
    half_length : float
        Half-size l of the domain ([-l, l]), > 0.
    """

    hbar: float
    mass: float
    alpha: float
    half_length: float

    def __post_init__(self) -> None:
        _require_positive("hbar", self.hbar)
        _require_positive("mass", self.mass)
        _require_positive("alpha", self.alpha)
        _require_positive("half_length", self.half_length)

    def gamma(self, t: float) -> float:
        """Dimensionless spreading factor hbar*t / (2 m alpha^2)."""
        return self.hbar * t / (2.0 * self.mass * self.alpha**2)


@dataclass(frozen=True)
class PhasePoint:
    """A classical phase-space label (q, p)."""

    q: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise DomainError(f"phase point must be finite, got {self!r}")


def wrap_position(q: float, half_length: float) -> float:
    """Reduce q into the fundamental domain [-l, l)."""
    l = half_length
    return (q + l) % (2.0 * l) - l
