"""Closed-form relativistic kinematics of a particle guided between two walls.

A particle bouncing at light speed between the side walls of a guide of
width ``w`` advances along the axis at ``v = c sin(phi)``.  Everything
else (clock/wave/zigzag frequencies, phase velocity, wavelengths, zigzag
period) follows in closed form from the bounce angle ``phi``.  All
functions are pure and operate on immutable value types.

Convention warning: ``gamma_recip = sqrt(1 - beta^2)`` is the *reciprocal*
of the conventional Lorentz factor.  The guided-wave formulas are all
written in terms of this quantity, so it is kept under an explicit name
instead of being silently inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


class PhysicalConstants:
    """CODATA 2018 constants in SI units, the one set every computation uses;
    it takes no arguments and its instances are read-only.

    e2_coulomb is the Coulomb coupling e^2/(4 pi eps0) in J*m, i.e. the
    quantity that makes the hydrogen force balance read m v^2 r = e2.
    """

    __slots__ = ()
    c = 299792458.0
    h = 6.62607015e-34
    hbar = 6.62607015e-34 / (2.0 * math.pi)
    m0 = 9.1093837015e-31
    e2_coulomb = 2.3070775523417355e-28
    eV = 1.602176634e-19

    @property
    def rest_energy(self) -> float:
        """m0 c^2 in J."""
        return self.m0 * self.c**2

    @property
    def cutoff_frequency(self) -> float:
        """f0 = m0 c^2 / h in Hz, the lowest propagating frequency."""
        return self.rest_energy / self.h


def electron_constants() -> PhysicalConstants:
    """The fixed CODATA 2018 constant set for the electron."""
    return PhysicalConstants()


def guide_width(m0: float) -> float:
    """Guide width w = h / (2 m0 c) set by the rest mass (zero potential).

    Equivalently c / (2 f0) with f0 = m0 c^2 / h.  For the electron this
    is half the Compton wavelength, 1.2132e-12 m.
    """
    if m0 <= 0.0 or not math.isfinite(m0):
        raise DomainError(f"mass must be positive and finite, got {m0}")
    k = electron_constants()
    return k.h / (2.0 * m0 * k.c)


@dataclass(frozen=True)
class KinematicState:
    """Every derived quantity of the guided particle at axial velocity v.

    ``v_phase`` and ``lambda_phase`` are None at v = 0, where the phase
    velocity diverges; consumers must handle the rest case deliberately
    rather than receive a floating-point infinity.

    ``lambda_guide = 2 w cos(phi)`` and ``lambda_phase = v_phase / f_wave``
    are both exposed: they are distinct readings of "the wavelength along
    the guide" and do not agree; neither is silently corrected.
    """

    v: float
    beta: float
    gamma_recip: float          # sqrt(1 - beta^2); reciprocal Lorentz factor
    phi: float                  # zigzag angle, sin(phi) = beta
    f0: float                   # cutoff / rest frequency, Hz
    f_clock: float              # f0 * gamma_recip
    f_wave: float               # f0 / gamma_recip
    f_zigzag: float             # equal to f_clock
    v_phase: float | None       # c / sin(phi); None (unbounded) at v = 0
    w: float                    # guide width h / (2 m0 c)
    lambda_guide: float         # 2 w cos(phi)
    lambda_phase: float | None  # v_phase / f_wave; None at v = 0
    t_zigzag: float             # cos(phi) / f0
    l_zigzag: float             # 2 w tan(phi), axial length of one bounce cycle


def kinematic_state(v: float) -> KinematicState:
    """Populate the electron's full kinematic state for axial velocity 0 <= v < c.

    The model has no superluminal particle branch: v < 0 or v >= c is a
    domain error.
    """
    k = electron_constants()
    if not (0.0 <= v < k.c) or not math.isfinite(v):
        raise DomainError(f"velocity must satisfy 0 <= v < c, got {v}")

    beta = v / k.c
    gamma_recip = math.sqrt(1.0 - beta * beta)
    phi = math.asin(beta)
    f0 = k.m0 * k.c**2 / k.h
    f_clock = f0 * gamma_recip
    f_wave = f0 / gamma_recip
    w = k.h / (2.0 * k.m0 * k.c)
    # sin(phi) = beta by construction, so c/sin(phi) is computed as c/beta:
    # identical analytically, and avoids an asin/sin round trip.
    v_phase = k.c / beta if beta > 0.0 else None
    lambda_phase = v_phase / f_wave if v_phase is not None else None
    return KinematicState(
        v=v,
        beta=beta,
        gamma_recip=gamma_recip,
        phi=phi,
        f0=f0,
        f_clock=f_clock,
        f_wave=f_wave,
        f_zigzag=f_clock,
        v_phase=v_phase,
        w=w,
        lambda_guide=2.0 * w * gamma_recip,
        lambda_phase=lambda_phase,
        t_zigzag=gamma_recip / f0,
        l_zigzag=2.0 * w * math.tan(phi),
    )
