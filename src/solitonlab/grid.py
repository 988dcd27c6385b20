"""Uniform periodic 1-D grid, complex fields, packets, and observables.

All solver-facing quantities live in normalized units (hbar = m = 1, and
c = 1 where a light speed appears); :class:`UnitScaling` is the explicit
record mapping normalized values back to SI.  Grids are periodic with a
power-of-two point count so spectral transforms are cheap and the
wavenumber ladder is unambiguous (the Nyquist mode is zeroed on
odd-order differentiation to keep fields real-compatible).  Grid arrays
are computed once, at construction, and are read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateFieldError, DomainError
from .kinematics import PhysicalConstants, electron_constants

#: localized packets must stay below this fraction of their peak at the
#: periodic boundary, otherwise wrap-around contaminates the run
BOUNDARY_AMPLITUDE_FRACTION = 1e-8
#: largest grid: 2^20 points keep a field at 16 MiB and a step in milliseconds
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of n points on [z_min, z_max), n a power of two
    between 16 and MAX_GRID_POINTS."""

    n: int
    z_min: float
    z_max: float

    def __post_init__(self):
        if not 16 <= self.n <= MAX_GRID_POINTS or (self.n & (self.n - 1)) != 0:
            raise ConfigurationError(
                f"n must be a power of two between 16 and {MAX_GRID_POINTS}, got {self.n}")
        if not self.z_max > self.z_min:
            raise ConfigurationError("z_max must exceed z_min")
        # cached outside the dataclass fields, so eq/hash/repr ignore them;
        # _ik_half is i k on the real-FFT half spectrum, Nyquist zeroed
        z = self.z_min + self.dz * np.arange(self.n)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dz)
        ik_half = 1j * k[: self.n // 2 + 1]
        ik_half[-1] = 0.0
        for name, arr in (("_z", z), ("_k", k), ("_ik_half", ik_half)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n

    @property
    def length(self) -> float:
        return self.z_max - self.z_min

    @property
    def z(self) -> np.ndarray:
        """Grid points z_min + j dz, j = 0..n-1 (z_max excluded, periodic); read-only."""
        return self._z

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumber ladder matching numpy FFT ordering; read-only."""
        return self._k


def spectral_derivative(values: np.ndarray, grid: Grid1D, order: int = 1) -> np.ndarray:
    """Spectral d^order/dz^order of a periodic sampled field.

    Odd orders zero the Nyquist mode (its derivative has no
    real-compatible representation on the grid).
    """
    k = grid.k
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[grid.n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(values))


def real_spectral_derivative(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """spectral_derivative(values, grid, 1).real, up to roundoff, of a real
    field through real FFTs (about half the transform cost)."""
    return np.fft.irfft(grid._ik_half * np.fft.rfft(values), grid.n)


@dataclass(frozen=True)
class ComplexField:
    """A complex amplitude sampled on a Grid1D; immutable after construction."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != (self.grid.n,):
            raise ConfigurationError(
                f"field must have exactly {self.grid.n} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def scaled(self, factor: complex) -> "ComplexField":
        return ComplexField(self.grid, factor * self.values)


class PacketKind(enum.Enum):
    SECH_BREATHER = "sech_breather"
    GAUSSIAN = "gaussian"
    PLANE_WAVE = "plane_wave"


@dataclass(frozen=True)
class PacketSpec:
    """Declarative initial condition.

    kind-specific parameters:
      SECH_BREATHER  amplitude a, center z0, carrier velocity v
                     (profile a*exp(i v z / 2)*sech(scale (z - z0));
                     scale defaults to a, the amplitude-width locking of
                     the cubic equation's soliton -- set it separately
                     only to build deliberate non-solitons)
      GAUSSIAN       amplitude a, center z0, width sigma, carrier k0
                     (profile a*exp(-(z - z0)^2 / (2 sigma^2))*exp(i k0 z))
      PLANE_WAVE     amplitude a, wavenumber k0 (must sit on the grid ladder)
    """

    kind: PacketKind
    amplitude: float = 1.0
    center: float = 0.0
    velocity: float = 0.0
    sigma: float = 1.0
    k0: float = 0.0
    scale: float | None = None

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ConfigurationError("packet amplitude must be positive")
        if self.kind is PacketKind.GAUSSIAN and self.sigma <= 0.0:
            raise ConfigurationError("gaussian width sigma must be positive")
        if self.scale is not None and self.scale <= 0.0:
            raise ConfigurationError("sech scale must be positive")

    @property
    def sech_scale(self) -> float:
        return self.amplitude if self.scale is None else self.scale


def build_packet(spec: PacketSpec, grid: Grid1D) -> ComplexField:
    """Sample the packet at t = 0, guarding against boundary contamination.

    Localized kinds must satisfy |psi| < 1e-8 * peak at the periodic
    boundary; a plane wave's k0 must sit on the grid's wavenumber ladder
    (otherwise it is discontinuous across the seam).
    """
    z = grid.z
    if spec.kind is PacketKind.SECH_BREATHER:
        with np.errstate(over="ignore"):  # cosh overflows to inf, where a/inf = 0 is the sech
            vals = (spec.amplitude * np.exp(0.5j * spec.velocity * z)
                    / np.cosh(spec.sech_scale * (z - spec.center)))
    elif spec.kind is PacketKind.GAUSSIAN:
        envelope = np.exp(-((z - spec.center) ** 2) / (2.0 * spec.sigma**2))
        vals = spec.amplitude * envelope * np.exp(1j * spec.k0 * z)
    elif spec.kind is PacketKind.PLANE_WAVE:
        dk = 2.0 * np.pi / grid.length
        mode = spec.k0 / dk
        if abs(mode - round(mode)) > 1e-9:
            raise ConfigurationError(
                f"plane-wave k0 = {spec.k0} is not on the grid ladder (spacing {dk})"
            )
        vals = spec.amplitude * np.exp(1j * spec.k0 * z)
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown packet kind {spec.kind}")

    if spec.kind is not PacketKind.PLANE_WAVE:
        peak = float(np.max(np.abs(vals)))
        edge = max(abs(vals[0]), abs(vals[-1]))
        if edge >= BOUNDARY_AMPLITUDE_FRACTION * peak:
            raise ConfigurationError(
                f"packet touches the periodic boundary (|psi|_edge/peak = {edge / peak:.2e} "
                f">= {BOUNDARY_AMPLITUDE_FRACTION:.0e}); enlarge the domain or recenter"
            )
    return ComplexField(grid, vals)


def observables(psi: ComplexField) -> dict[str, float]:
    """Norm, centroid, rms width, and refined peak position of |psi|^2.

    The norm integral uses the rectangle rule, which on a periodic grid
    coincides with the trapezoid rule and is spectrally accurate for
    smooth data.  peak_position refines argmax|psi| with a 3-point
    parabolic fit (periodic neighbors).  It is arbitrary when |psi| is
    flat to roundoff: for a plane wave the argmax lands anywhere on the
    grid and moves between records.

    A finite field whose density overflows gives inf or nan values,
    without a floating-point warning; callers check finiteness.
    """
    vals = psi.values
    grid = psi.grid
    z = grid.z
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.abs(vals) ** 2
        norm = float(np.sum(density) * grid.dz)
        if norm <= 0.0:
            raise DegenerateFieldError("zero field has no observables")
        centroid = float(np.sum(z * density) * grid.dz / norm)
        rms_width = float(math.sqrt(np.sum((z - centroid) ** 2 * density) * grid.dz / norm))

        amp = np.abs(vals)
        j = int(np.argmax(amp))
        ym, y0, yp = amp[j - 1], amp[j], amp[(j + 1) % grid.n]
        denom = ym - 2.0 * y0 + yp
        offset = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
        peak_position = float(z[j] + offset * grid.dz)

    return {
        "norm": norm,
        "centroid": centroid,
        "rms_width": rms_width,
        "peak_position": peak_position,
    }


@dataclass(frozen=True)
class UnitScaling:
    """Mapping between normalized (hbar = m = 1, c = 1) and SI units.

    For reference mass m the natural scales are the reduced Compton
    length hbar/(m c), time hbar/(m c^2), and energy m c^2.
    """

    mass_kg: float
    constants: PhysicalConstants = field(default_factory=electron_constants)

    def __post_init__(self):
        if self.mass_kg <= 0.0:
            raise DomainError("reference mass must be positive")

    @property
    def length_m(self) -> float:
        return self.constants.hbar / (self.mass_kg * self.constants.c)

    @property
    def energy_J(self) -> float:
        return self.mass_kg * self.constants.c**2

    def length_to_si(self, value: float) -> float:
        return value * self.length_m

    def length_from_si(self, value: float) -> float:
        return value / self.length_m

    def energy_to_si(self, value: float) -> float:
        return value * self.energy_J

    def energy_from_si(self, value: float) -> float:
        return value / self.energy_J
