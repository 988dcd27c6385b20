"""Dispersion relations for the guided wave and their parabolic approximation.

Two branches:

* ``KLEIN_GORDON`` -- the exact relativistic relation
  omega(k) = sqrt(omega0^2 + k^2), cutoff at omega0.
* ``SCHRODINGER_APPROX`` -- the low-energy parabolic approximation
  omega(k) = omega0 + V + k^2 / (2 omega0), optionally shifted
  by a constant potential V (normalized units, hbar = 1, so V is an
  angular frequency).

Both branches take the wave speed c = 1 (z -> z / c absorbs any other).
Wavenumbers are angular (rad per length) throughout, and returned
frequencies are angular (rad per time).  The parabolic kinetic term is
k^2 / (2 omega0): this is the unique form whose group velocity is
k / omega0, which anchors the approximation.

``evanescent_kappa`` works in cyclic frequencies (Hz) because cutoff
bookkeeping in the kinematics module is cyclic; it returns the angular
spatial decay rate obtained by continuing the exact branch to imaginary
wavenumber.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError


class BranchKind(enum.Enum):
    KLEIN_GORDON = "klein_gordon"
    SCHRODINGER_APPROX = "schrodinger_approx"


@dataclass(frozen=True)
class DispersionBranch:
    """One dispersion branch: cutoff f0 (cyclic), optional potential shift.

    ``f0`` is a cyclic frequency (Hz, or 1.0 in normalized units); the
    angular cutoff used internally is omega0 = 2 pi f0.  ``potential_V``
    (an angular frequency, hbar = 1) only participates in the parabolic
    branch; the exact branch has no potential term and rejects a nonzero
    one.
    """

    kind: BranchKind
    f0: float = 1.0
    potential_V: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.f0 or not math.isfinite(3.0 * self.omega0):
            raise DomainError(f"f0 must be positive with 3 omega0 = 6 pi f0 finite, got {self.f0}")
        if self.kind is BranchKind.KLEIN_GORDON and self.potential_V != 0.0:
            raise DomainError("the exact branch has no potential term")

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.f0


def omega(branch: DispersionBranch, k: float) -> float:
    """Angular frequency of the branch at angular wavenumber k."""
    if not math.isfinite(k):
        raise DomainError(f"wavenumber must be finite, got {k}")
    w0 = branch.omega0
    if branch.kind is BranchKind.KLEIN_GORDON:
        return math.hypot(w0, k)
    return w0 + branch.potential_V + k * k / (2.0 * w0)


def group_velocity(branch: DispersionBranch, k: float) -> float:
    """d omega / d k, analytically.

    Parabolic branch: exactly k / omega0 (linear in k, exceeds c = 1 for
    k > omega0 -- a documented artifact of the approximation).  Exact
    branch: k / omega(k), always below 1.
    """
    if not math.isfinite(k):
        raise DomainError(f"wavenumber must be finite, got {k}")
    if branch.kind is BranchKind.SCHRODINGER_APPROX:
        return k / branch.omega0
    return k / omega(branch, k)


def evanescent_kappa(f: float, f0_eff: float, c: float = 1.0) -> float:
    """Spatial decay rate below cutoff: kappa = 2 pi sqrt(f0_eff^2 - f^2) / c.

    f and f0_eff are cyclic frequencies with f < f0_eff; the result is the
    magnitude of the imaginary angular wavenumber of the exact branch.
    At or above cutoff the wave propagates and this quantity is undefined.
    """
    if f < 0.0 or f0_eff <= 0.0:
        raise DomainError("frequencies must be non-negative, cutoff positive")
    if f >= f0_eff:
        raise DomainError(
            f"f = {f} is not below the effective cutoff {f0_eff}: propagating, not evanescent"
        )
    return 2.0 * math.pi * math.sqrt(f0_eff * f0_eff - f * f) / c
