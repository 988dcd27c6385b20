"""Uniform periodic 1-D grid, complex fields, packets, and observables.

All solver-facing quantities live in normalized units (hbar = m = 1, and
c = 1 where a light speed appears); the module converts nothing to SI.
Grids are periodic with a power-of-two point count so spectral
transforms are cheap and the wavenumber ladder is unambiguous (the
Nyquist mode is zeroed on odd-order differentiation to keep fields
real-compatible).  Grid arrays are computed once, at construction, and
are read-only.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DegenerateFieldError

#: localized packets must stay below this fraction of their peak at the
#: periodic boundary, otherwise wrap-around contaminates the run
BOUNDARY_AMPLITUDE_FRACTION = 1e-8
#: packets must keep at most this fraction of their spectral power
#: sum|psi^|^2 above two thirds of the Nyquist wavenumber, otherwise the
#: grid does not resolve them (Boyd 2001, Chebyshev and Fourier Spectral
#: Methods: the decay of the spectrum is the test of resolution)
SPECTRAL_TAIL_FRACTION = 1e-8
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
        if not 0.0 < self.z_max - self.z_min < math.inf:
            raise ConfigurationError("z_max must exceed z_min by a finite length")
        if not (self.dz > 0.0 and math.pi / self.dz < math.inf):
            raise ConfigurationError(f"grid spacing dz = {self.dz:.3g} is too fine: "
                                     "the Nyquist wavenumber pi/dz must be finite")
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
        if not np.isfinite(vals).all():
            raise ConfigurationError("field values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class PacketKind(enum.Enum):
    SECH_BREATHER = "sech_breather"
    GAUSSIAN = "gaussian"
    PLANE_WAVE = "plane_wave"


#: the PacketSpec fields each kind leaves unread (see build_packet)
_UNREAD = {
    PacketKind.SECH_BREATHER: ("sigma", "k0"),
    PacketKind.GAUSSIAN: ("velocity", "scale"),
    PacketKind.PLANE_WAVE: ("center", "velocity", "sigma", "scale"),
}


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

    A field the kind does not read must keep its default.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _UNREAD[self.kind] and value != f.default:
                raise ConfigurationError(
                    f"a {self.kind.value} packet does not read {f.name}; "
                    f"{f.name} must keep its default {f.default}, got {value}")

    @property
    def sech_scale(self) -> float:
        return self.amplitude if self.scale is None else self.scale


def build_packet(spec: PacketSpec, grid: Grid1D) -> ComplexField:
    """Sample the packet at t = 0, guarding against boundary contamination.

    The carrier wavenumber (|k0|, or |velocity| / 2 for a breather) must
    sit at or below (2/3) k_max: the grid samples a faster carrier as an
    aliased slower one, so no later guard could see it.  Localized kinds
    must satisfy |psi| < 1e-8 * peak at the periodic boundary; a plane
    wave's k0 must sit on the grid's wavenumber ladder (otherwise it is
    discontinuous across the seam).  Every kind must keep its spectral
    tail, the fraction of |psi^|^2 at |k| > (2/3) k_max, within
    SPECTRAL_TAIL_FRACTION; the tail is taken on psi / peak, so it cannot
    overflow, and the peak must be a finite normal float (an extreme
    amplitude, width or center samples to zero, inf or nan).
    """
    k_cut = (2.0 / 3.0) * math.pi / grid.dz
    breather = spec.kind is PacketKind.SECH_BREATHER
    name, carrier = ("velocity", abs(spec.velocity) / 2.0) if breather else ("k0", abs(spec.k0))
    if not carrier <= k_cut:
        raise ConfigurationError(
            f"packet {name} puts the carrier at |k| = {carrier:.4g}, above (2/3) k_max = "
            f"{k_cut:.4g}, where the grid aliases it; lower {name} or refine the grid")
    z = grid.z
    # extreme values sample to 0 (cosh or the square overflowing), inf or
    # nan without a warning; the peak check below rejects all three
    with np.errstate(all="ignore"):
        if breather:
            vals = (spec.amplitude * np.exp(0.5j * spec.velocity * z)
                    / np.cosh(spec.sech_scale * (z - spec.center)))
        elif spec.kind is PacketKind.GAUSSIAN:
            envelope = np.exp(-((z - spec.center) ** 2) / (2.0 * spec.sigma * spec.sigma))
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

    peak = float(np.max(np.abs(vals)))
    if not sys.float_info.min <= peak < math.inf:
        raise ConfigurationError(
            f"packet peak |psi| = {peak:.3g} on the grid is zero, subnormal or not finite; "
            "check the amplitude, width and center against the grid")
    if spec.kind is not PacketKind.PLANE_WAVE:
        edge = max(abs(vals[0]), abs(vals[-1]))
        if edge >= BOUNDARY_AMPLITUDE_FRACTION * peak:
            raise ConfigurationError(
                f"packet touches the periodic boundary (|psi|_edge/peak = {edge / peak:.2e} "
                f">= {BOUNDARY_AMPLITUDE_FRACTION:.0e}); enlarge the domain or recenter"
            )
    power = np.abs(np.fft.fft(vals / peak)) ** 2
    tail = float(np.sum(power[np.abs(grid.k) > k_cut]) / np.sum(power))
    if tail > SPECTRAL_TAIL_FRACTION:
        raise ConfigurationError(
            f"packet is not resolved by the grid (spectral tail at |k| > (2/3) k_max = "
            f"{tail:.2e} > {SPECTRAL_TAIL_FRACTION:.0e}); widen the packet or refine the grid"
        )
    return ComplexField(grid, vals)


def observables(psi: ComplexField) -> dict[str, float]:
    """Norm, centroid, rms width, and refined peak position of |psi|^2:
    the one-row case of row_observables."""
    return {key: values[0] for key, values in row_observables(psi.grid, psi.values[None]).items()}


def row_observables(grid: Grid1D, rows: np.ndarray) -> dict[str, list[float]]:
    """The observables of each row of an (m, n) block of fields on grid, m floats a name.

    The norm integral uses the rectangle rule, which on a periodic grid
    coincides with the trapezoid rule and is spectrally accurate for
    smooth data.  peak_position refines argmax|psi| with a 3-point
    parabolic fit (periodic neighbors).  It is arbitrary when |psi| is
    flat to roundoff: for a plane wave the argmax lands anywhere on the
    grid and moves between records.  The sums run over the last axis; the
    few operations per row after them run on Python floats, which round
    as numpy's do and cost less for one row.  A row that is not finite, or
    whose density overflows, gives inf or nan values, without a
    floating-point warning; callers check finiteness.
    """
    z, dz = grid.z, grid.dz
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.abs(rows)
        density = amp * amp
        norm = [total * dz for total in density.sum(axis=-1).tolist()]
        if any(value <= 0.0 for value in norm):
            raise DegenerateFieldError("zero field has no observables")
        centroid = [total * dz / value
                    for total, value in zip((z * density).sum(axis=-1).tolist(), norm)]
        spread = (z - np.array(centroid)[:, None]) ** 2 * density
        rms_width = [math.sqrt(total * dz / value)
                     for total, value in zip(spread.sum(axis=-1).tolist(), norm)]
        peak_position = []
        for row, j in zip(amp, amp.argmax(axis=-1).tolist()):
            ym, y0, yp = row[j - 1], row[j], row[(j + 1) % grid.n]
            denom = ym - 2.0 * y0 + yp
            offset = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
            peak_position.append(float(z[j] + offset * dz))
    return {"norm": norm, "centroid": centroid, "rms_width": rms_width,
            "peak_position": peak_position}
