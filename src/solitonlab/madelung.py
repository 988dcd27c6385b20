"""Polar decomposition psi = R exp(i S) and the transport dynamics
obtained when the curvature (quantum-potential) term is removed.

Units are the solvers' normalized ones, hbar = m = 1, so the action S is
measured in units of hbar and the velocity field is S_z.  The polar
split turns the linear Schrodinger equation into a Hamilton-Jacobi
equation for S carrying one extra term,

    Q = -(1/2) (d^2 R / dz^2) / R,

plus a continuity equation for the density R^2 in conservation form.
Adding -Q as a nonlinearity deletes that term symbolically, so the pair
(R, S) obeys purely classical transport: S follows the classical
Hamilton-Jacobi equation and R^2 is advected by the velocity field S_z.
We integrate that classical pair directly in (R, S) variables -- in psi
form the cancelling term requires dividing by |psi|, which is
numerically hostile -- and reconstruct psi for comparison with the
linear solver.

Because the action of a moving packet grows linearly in z, which has no
periodic representation, phase fields are handled as (linear slope in
z) + (periodic remainder); the slope also absorbs a linear-in-z part of
the potential.  Spatial derivatives of phase-like quantities are taken
through the gauge-invariant current Im(psi* psi_z) of the reconstructed
psi, never through a direct spectral derivative of the unwrapped S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, NodeError, NumericalError
from .grid import ComplexField, Grid1D, real_spectral_derivative, spectral_derivative
from .kinematics import electron_constants
from .report import RunReport, Snapshot
from .solvers import Scheme, SolverConfig, _Recorder, _require_valid, evolve_linear_schrodinger

DEFAULT_NODE_THRESHOLD = 1e-6
#: advective CFL factor of the transport: dt max|S_z| <= TRANSPORT_CFL dz
TRANSPORT_CFL = 0.5


def check_node_threshold(node_threshold: float) -> float:
    """node_threshold if it lies in (0, 1), where a support can be defined."""
    if not 0.0 < node_threshold < 1.0:
        raise DomainError(f"node_threshold must lie in (0, 1), got {node_threshold}")
    return node_threshold


@dataclass(frozen=True)
class MadelungField:
    """Polar form of a wavefunction: amplitude R >= 0 and unwrapped action S.

    ``support`` marks where R is large enough (relative to its peak) for
    the decomposition to be meaningful; S is continuous there (no 2 pi
    jumps), and diagnostics are only reported there.
    """

    grid: Grid1D
    R: np.ndarray
    S: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        r = np.array(self.R, dtype=float, copy=True)
        s = np.array(self.S, dtype=float, copy=True)
        if r.shape != (self.grid.n,) or s.shape != (self.grid.n,):
            raise ConfigurationError("R and S must match the grid length")
        if np.any(r < 0.0) or not np.all(np.isfinite(r)):
            raise ConfigurationError("R must be finite and non-negative everywhere")
        if not np.all(np.isfinite(s)):
            raise ConfigurationError("S must be finite")
        sup = self.support
        sup = np.ones(self.grid.n, bool) if sup is None else np.array(sup, bool, copy=True)
        for arr in (r, s, sup):
            arr.setflags(write=False)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "support", sup)


def _node_gaps(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """(start, gaps) of a boolean mask on the periodic grid that holds at
    least one True point.

    Read the ring from its first False point (from 0 if there is none):
    start is the index of the first True point and gaps are the False
    points strictly between the first and the last True point, the
    interior nodes of the mask.
    """
    order = np.roll(np.arange(mask.size), -int(np.argmin(mask)))
    above = np.flatnonzero(mask[order])
    inner = order[above[0]:above[-1] + 1]
    return int(inner[0]), inner[~mask[inner]]


def decompose(psi: ComplexField, node_threshold: float = DEFAULT_NODE_THRESHOLD) -> MadelungField:
    """R = |psi|, S = arg(psi) unwrapped along the grid.

    The support is where R >= node_threshold * max R.  Unwrapping starts
    at the left edge of the (single, wrap-joined) support and walks the
    full ring; values outside the support are carried along but not
    meaningful.  A below-threshold point between two above-threshold
    regions is a node: unwrapping across it is ill-defined, so a NodeError
    carrying the node positions is raised instead.
    """
    vals = psi.values
    r = np.abs(vals)
    peak = float(r.max())
    if peak == 0.0:
        raise NodeError("field is identically zero", psi.grid.z)
    mask = r >= check_node_threshold(node_threshold) * peak
    start, gaps = _node_gaps(mask)
    if gaps.size:
        raise NodeError(
            f"amplitude crosses the node threshold at {gaps.size} interior point(s)",
            psi.grid.z[gaps],
        )
    order = (np.arange(psi.grid.n) + start) % psi.grid.n
    s = np.empty(psi.grid.n)
    s[order] = np.unwrap(np.angle(vals[order]))
    return MadelungField(psi.grid, r, s, support=mask)


def recompose(field: MadelungField) -> ComplexField:
    """Inverse of decompose: R * exp(i S)."""
    return ComplexField(field.grid, field.R * np.exp(1j * field.S))


def quantum_potential(field: MadelungField) -> np.ndarray:
    """Q = -(1/2) R'' / R with a spectral second derivative.

    Reported only on the support (zeros elsewhere, where the division
    by R would amplify the spectral noise floor).
    """
    rzz = spectral_derivative(field.R, field.grid, order=2).real
    q = np.zeros(field.grid.n)
    sup = field.support & (field.R > 0.0)
    q[sup] = -0.5 * rzz[sup] / field.R[sup]
    return q


def _current(field: MadelungField) -> np.ndarray:
    """Im(psi* psi_z) of recompose(field), which equals R^2 S_z.

    It only ever differentiates the periodic complex field, so it stays
    valid for actions with a linear-in-z part.
    """
    psi = recompose(field).values
    return np.imag(np.conj(psi) * spectral_derivative(psi, field.grid, order=1))


def _pair_midpoint(before: MadelungField, after: MadelungField,
                   dt: float) -> tuple[MadelungField, np.ndarray, np.ndarray]:
    """Midpoint field, dS/dt and d(R^2)/dt from a centered snapshot pair.

    after.S drops the median 2 pi multiple by which separate unwraps differ.
    """
    if before.grid != after.grid:
        raise ConfigurationError("snapshot pair must share a grid")
    if dt <= 0.0:
        raise ConfigurationError("pair separation dt must be positive")
    support = before.support & after.support
    two_pi = 2.0 * math.pi
    s_after = after.S - two_pi * np.round(np.median((after.S - before.S)[support]) / two_pi)
    s_dot = (s_after - before.S) / dt
    rho_dot = (after.R**2 - before.R**2) / dt
    mid = MadelungField(
        before.grid,
        0.5 * (before.R + after.R),
        0.5 * (before.S + s_after),
        support=support,
    )
    return mid, s_dot, rho_dot


def hj_residual_from_rate(field: MadelungField, s_dot: np.ndarray,
                          potential: np.ndarray | float = 0.0,
                          include_q: bool = True) -> np.ndarray:
    """Pointwise dS/dt + (S_z)^2/2 + V [+ Q] on the support.

    With the curvature term included, solutions of the linear Schrodinger
    equation zero this residual; without it, solutions of the classical
    transport system do.  Zeros outside the support.
    """
    s_z = np.zeros(field.grid.n)
    nonzero = field.support & (field.R > 0.0)
    s_z[nonzero] = _current(field)[nonzero] / field.R[nonzero] ** 2
    residual = np.zeros(field.grid.n)
    sup = field.support
    v = np.broadcast_to(np.asarray(potential, dtype=float), (field.grid.n,))
    residual[sup] = s_dot[sup] + s_z[sup] ** 2 / 2.0 + v[sup]
    if include_q:
        residual[sup] += quantum_potential(field)[sup]
    return residual


def hj_residual(before: MadelungField, after: MadelungField, dt: float,
                potential: np.ndarray | float = 0.0,
                include_q: bool = True) -> np.ndarray:
    """hj_residual_from_rate with dS/dt from a centered snapshot pair.

    The pair (t - dt/2, t + dt/2) yields the residual at the midpoint
    time, evaluated on the averaged field; accuracy is O(dt^2).
    """
    mid, s_dot, _ = _pair_midpoint(before, after, dt)
    return hj_residual_from_rate(mid, s_dot, potential, include_q)


def continuity_residual_from_rate(field: MadelungField, rho_dot: np.ndarray) -> np.ndarray:
    """Pointwise d(R^2)/dt + d/dz(R^2 S_z), conservation form.

    The flux R^2 S_z is the current Im(psi* psi_z), which is periodic even
    when S itself is not, so its divergence is spectral.
    """
    div = spectral_derivative(_current(field), field.grid, order=1).real
    residual = np.zeros(field.grid.n)
    sup = field.support
    residual[sup] = rho_dot[sup] + div[sup]
    return residual


def continuity_residual(before: MadelungField, after: MadelungField,
                        dt: float) -> np.ndarray:
    """continuity_residual_from_rate with d(R^2)/dt from a snapshot pair."""
    mid, _, rho_dot = _pair_midpoint(before, after, dt)
    return continuity_residual_from_rate(mid, rho_dot)


def polar_residuals(report: RunReport, config: SolverConfig,
                    node_threshold: float = DEFAULT_NODE_THRESHOLD
                    ) -> tuple[list[dict], list[Snapshot]]:
    """Polar-form diagnostics on the snapshots of a linear run.

    config is the run's SolverConfig.  Each snapshot field is advanced two
    more steps, so the residuals use a tight centered pair (gap 2 dt, the
    same order as the scheme) instead of the coarse snapshot cadence.
    Each pair's midpoint field and rates are built once, and both
    residuals are evaluated on them.  Returns one residual row per
    snapshot (midpoint time, pair gap and the max |.| of the
    Hamilton-Jacobi and continuity residuals) and the snapshots with R,
    S and Q columns added.
    """
    potential = config.potential if config.potential is not None else 0.0
    pair_config = replace(config, t_final=2.0 * config.dt,
                          snapshot_every=0, observe_every=0, probe_index=None)
    gap = 2.0 * config.dt
    rows = []
    enriched = []
    for snap in report.snapshots:
        before = decompose(snap.field, node_threshold=node_threshold)
        after_field = evolve_linear_schrodinger(snap.field, pair_config).final_field()
        after = decompose(after_field, node_threshold=node_threshold)
        mid, s_dot, rho_dot = _pair_midpoint(before, after, gap)
        hj = hj_residual_from_rate(mid, s_dot, potential, include_q=True)
        cont = continuity_residual_from_rate(mid, rho_dot)
        rows.append({
            "t_mid": snap.t + config.dt,
            "pair_gap": gap,
            "max_hj_residual": float(np.max(np.abs(hj))),
            "max_continuity_residual": float(np.max(np.abs(cont))),
        })
        enriched.append(Snapshot(snap.t, snap.field, {
            "R": before.R, "S": before.S, "Q": quantum_potential(before),
        }))
    return rows, enriched


def dispersionless_initial(grid: Grid1D, amplitude: float = 1.0, scale: float = 1.0,
                           velocity: float = 0.0, center: float = 0.0) -> MadelungField:
    """Canonical initial state for the transport solver: a sech envelope
    with uniform velocity, R = amplitude sech(scale (z - center)),
    S = velocity z.  The sech is unimodal, so its support is one run with
    no interior node."""
    if amplitude <= 0.0 or scale <= 0.0:
        raise ConfigurationError("envelope amplitude and scale must be positive")
    z = grid.z
    r = amplitude / np.cosh(scale * (z - center))
    return MadelungField(grid, r, velocity * z,
                         support=r >= DEFAULT_NODE_THRESHOLD * amplitude)


def _extract_linear_slope(field: MadelungField) -> tuple[float, np.ndarray]:
    """Split S into slope * z + periodic remainder; reject non-conforming S.

    The endpoint slope makes the remainder's endpoint VALUES agree by
    construction, so conformance is judged on the seam curvature: the
    second difference across the wrap must look like the interior ones
    (a quadratic action, for instance, leaves an O(z_max dz) derivative
    kink at the seam that a spectral derivative would turn into ringing).
    """
    grid = field.grid
    z = grid.z
    n = grid.n
    s = field.S
    slope = (s[-1] - s[0]) / (z[-1] - z[0]) if n > 1 else 0.0
    remainder = s - slope * z
    first = np.diff(remainder)
    wrap_step = remainder[0] - remainder[-1]
    second_interior = np.diff(first)
    seam_curvature = max(abs(wrap_step - first[-1]), abs(first[0] - wrap_step))
    scale = float(np.max(np.abs(second_interior))) if second_interior.size else 0.0
    tol = max(10.0 * scale, 1e-9 * (1.0 + float(np.max(np.abs(remainder)))))
    if seam_curvature > tol:
        raise ConfigurationError(
            "initial action is not (linear in z) + (periodic remainder); "
            f"seam curvature {seam_curvature:.3g} exceeds tolerance {tol:.3g}"
        )
    return float(slope), remainder


def evolve_dispersionless(initial: MadelungField, config: SolverConfig) -> RunReport:
    """Integrate the curvature-cancelled transport pair with RK4 in time.

    d(R^2)/dt = -d/dz(R^2 (kappa + s_z))          (conservation form)
    d s/dt    = -[(kappa + s_z)^2 / 2 + V_periodic] (periodic action part)
    d kappa/dt = -potential_slope                   (linear action slope)

    All spatial derivatives are spectral (real FFTs) on periodic quantities.
    The state carries u = ds/dz as a third row next to (R^2, s): the
    derivative is linear and commutes with the RK4 combination, so u
    equals the derivative of s at every stage up to roundoff, and each
    stage takes d/dz of the flux and of (kappa + u)^2/2 + V together
    in one batched rfft/irfft pair (u_t = -d/dz of the latter).  By
    construction there is no curvature term, so any node-free envelope is
    transported by the classical flow; with a uniform action slope it
    translates rigidly.  A mid-run CFL violation (possible: the classical
    Hamilton-Jacobi flow can form shocks under focusing potentials)
    aborts with a diagnostic rather than regularizing; the advective CFL
    guard dt <= TRANSPORT_CFL dz / max|S_z| is checked every step.
    """
    grid = initial.grid
    _require_valid(config, grid, Scheme.DISPERSIONLESS_TRANSPORT)
    if not initial.support.any():
        raise ConfigurationError("initial envelope is empty")
    v_per = (np.zeros(grid.n) if config.potential is None
             else np.asarray(config.potential, dtype=float))
    dt = config.dt
    n = grid.n
    minus_ik = -grid._ik_half  # real-FFT half spectrum of -d/dz, Nyquist zeroed
    kappa, s_tilde = _extract_linear_slope(initial)
    z = grid.z
    cfl_limit = TRANSPORT_CFL * grid.dz
    dkappa = -config.potential_slope
    # y = (rho, s, u = d s/dz); k holds the four stage derivatives of y
    y = np.empty((3, n))
    y[0] = initial.R ** 2
    y[1] = s_tilde
    y[2] = real_spectral_derivative(s_tilde, grid)
    k = np.empty((4, 3, n))
    tmp = np.empty((3, n))
    acc = np.empty((3, n))
    s_z = np.empty(n)
    pair = np.empty((2, n))
    spec = np.empty((2, n // 2 + 1), dtype=complex)

    def rhs(y_c, kappa_c, out):
        """Write d/dt (rho, s, u) at (y_c, kappa_c) into out; s_z holds kappa_c + u."""
        np.add(y_c[2], kappa_c, out=s_z)
        np.multiply(y_c[0], s_z, out=pair[0])
        np.square(s_z, out=pair[1])
        pair[1] /= 2.0
        pair[1] += v_per
        np.fft.rfft(pair, out=spec)
        np.multiply(spec, minus_ik, out=spec)
        np.fft.irfft(spec, n, out=out[::2])  # rho_t and u_t
        np.negative(pair[1], out=out[1])

    def advance(done, block):
        nonlocal kappa
        for step in range(done + 1, block.steps[0] + 1):
            rhs(y, kappa, k[0])
            u_max = float(np.max(np.abs(s_z)))
            if u_max * dt > cfl_limit:
                raise NumericalError(
                    f"advective CFL violated at step {step} (t = {step * dt:.6g}): "
                    f"max|S_z| dt = {u_max * dt:.3g} > {TRANSPORT_CFL} dz = {cfl_limit:.3g}; "
                    "the classical flow may be forming a shock")
            for j, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
                np.multiply(k[j - 1], h, out=tmp)
                np.add(tmp, y, out=tmp)
                rhs(tmp, kappa + h * dkappa, k[j])
            # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
            np.multiply(k[1], 2.0, out=acc)
            np.add(acc, k[0], out=acc)
            np.multiply(k[2], 2.0, out=tmp)
            np.add(acc, tmp, out=acc)
            np.add(acc, k[3], out=acc)
            np.multiply(acc, dt / 6.0, out=acc)
            np.add(y, acc, out=y)
            kappa = kappa + dt / 6.0 * (dkappa + 2.0 * dkappa + 2.0 * dkappa + dkappa)
            if not np.all(np.isfinite(y)):
                raise NumericalError(f"transport state blew up at step {step}")
        r_now = np.sqrt(np.clip(y[0], 0.0, None))
        s_full = kappa * z + y[1]
        columns = None
        if block.snapped:
            fld = MadelungField(grid, r_now, s_full,
                                support=r_now >= DEFAULT_NODE_THRESHOLD * float(r_now.max()))
            columns = {"R": r_now, "S": s_full, "Q": quantum_potential(fld)}
        extra = {"rho_integral": float(np.sum(y[0]) * grid.dz)} if block.observed else None
        # recompose as a one-row block: the recorder copies it only for a snapshot
        return r_now * np.exp(1j * s_full), extra, columns

    return _Recorder(config, grid).run(advance)


@dataclass(frozen=True)
class SolitonAmplitude:
    """Envelope amplitude in SI meters and in normalized (Compton) units."""

    si: float
    normalized: float


def soliton_amplitude(potential_energy: float) -> SolitonAmplitude:
    """Envelope amplitude r = c h / (4 (m0 c^2 + V)) of the electron.

    At V = 0 this is half the guide width h/(2 m0 c); it decreases
    monotonically as the potential rises.  Requires m0 c^2 + V > 0.  The
    normalized value is r in units of the reduced Compton length
    hbar/(m0 c).
    """
    k = electron_constants()
    denom = k.rest_energy + potential_energy
    if denom <= 0.0:
        raise DomainError(
            f"m0 c^2 + V must be positive, got {denom} (V = {potential_energy})"
        )
    r_si = k.c * k.h / (4.0 * denom)
    return SolitonAmplitude(si=r_si, normalized=r_si / (k.hbar / (k.m0 * k.c)))
