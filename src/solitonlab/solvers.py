"""Time integration of the linear, nonlinear, and second-order wave
equations, and the run config and recorder shared with the polar layer's
curvature-cancelled transport.

Normalized conventions (documented side by side because they differ by a
factor of two in the kinetic term):

* linear Schrodinger (hbar = m = 1):   i psi_t = -(1/2) psi_zz + V psi
* cubic NLS (as-printed normalization): i phi_t + phi_zz + 2|phi|^2 phi = 0
* second-order (Klein-Gordon form):     psi_tt = c^2 psi_zz - omega0^2 psi
  at omega0 = c = 1 (t -> omega0 t, z -> (omega0/c) z absorbs both); no V
* dispersionless transport (madelung): the Hamilton-Jacobi and continuity
  pair of the first equation with the curvature term removed

All four schemes take one SolverConfig.  It checks its own fields when it
is built, and each solver checks the rules that need the grid
(_require_valid) before it steps.

The Schrodinger-type equations share one Strang split-step loop: half
steps of an outer factor, diagonal in z for the linear scheme (the
potential phase) and in k for the cubic one (the kinetic step), around a
full step of the inner factor in the other space.  Adjacent outer halves
are merged (Weideman & Herbst 1986), so a step costs one FFT pair per
sub-step, in place on buffers allocated once per run; without a potential
the linear step is a single diagonal multiplication.  At
SolverConfig.order = 4 the cubic step is Suzuki's symmetric composition
of five Strang sub-steps (Suzuki 1990), O(dt^4) instead of O(dt^2), and
at order 6 Kahan & Li's of nine (Kahan & Li 1997), O(dt^6).
Every factor is a phase, so both schemes are unitary up to roundoff.  The
second-order equation, diagonal in k with no potential, is not stepped:
each mode's closed form is evaluated at the record steps, in blocks of
rows, and its energy summed over the spectra (Parseval).  Its initial
time derivative is caller-supplied because the equation genuinely needs
two Cauchy data.

Observable extraction and snapshot recording run on a configurable
cadence decoupled from stepping; only a record step transforms a
spectral state back to z.  The recorder alone knows the record plan, and
one record loop serves all four schemes: it walks the plan in blocks of
rows (one row for a stepping scheme), asks the scheme to advance to a
block's steps and return their fields, with the extra quantities its
observation and snapshot flags ask for, and records them.  The recorder
copies only the snapshot rows, so a reused step buffer never reaches a
record.  A record step whose field or recorded quantity is not finite
raises NumericalError.  The recorder also builds the report: each scheme
names the observable it conserves (the norm, the energy for the
second-order equation, the density integral for the transport), and the
report's conservation block is that series' drift.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import ComplexField, Grid1D, row_observables
from .report import RunReport, Snapshot

#: accuracy guard for split-step potential phases
MAX_POTENTIAL_PHASE_PER_STEP = 0.1
#: complex values in one block of Klein-Gordon record rows (16 rows at n = 512;
#: one row at a time from n = 2^13 up)
KG_BLOCK_VALUES = 2**13
_SUZUKI_W1 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
#: first half and middle of Kahan & Li's nine-stage symmetric sixth-order
#: composition (Kahan & Li 1997, Math. Comp. 66:1089, scheme s9odr6a)
_KAHAN_LI_HALF = (0.39216144400731413928, 0.33259913678935943860, -0.70624617255763935981,
                  0.08221359629355080023, 0.79854399093482996340)
#: the cubic scheme's step per order, as the weights of its Strang sub-steps:
#: order 4 is Suzuki's symmetric five-stage composition (w1, w1, w0, w1, w1)
#: (Suzuki 1990, Phys. Lett. A 146:319), with w0 = 1 - 4 w1 and max|w| =
#: |w0| about 0.658, where Yoshida's three-stage one has |w0| about 1.702;
#: order 6 is Kahan & Li's, nine symmetric weights with max|w| about 0.799
#: (Hairer, Lubich & Wanner 2006, Geometric Numerical Integration, II.4, V.3)
ORDERS = {2: (1.0,), 4: (_SUZUKI_W1,) * 2 + (1.0 - 4.0 * _SUZUKI_W1,) + (_SUZUKI_W1,) * 2,
          6: _KAHAN_LI_HALF + _KAHAN_LI_HALF[-2::-1]}

CONVENTIONS = {
    "linear_schrodinger": "i psi_t = -(1/2) psi_zz + V psi  (hbar = m = 1)",
    "nls": "i phi_t + phi_zz + 2|phi|^2 phi = 0  (kinetic coefficient 1, not 1/2)",
    "klein_gordon": "psi_tt = c^2 psi_zz - omega0^2 psi",
    "dispersionless_transport": "dS/dt = -[(S_z)^2/2 + V]; d(R^2)/dt = -d_z(R^2 S_z)",
}


def step_count(dt: float, t_final: float) -> int:
    """Number of steps dt spanning t_final; rejects a non-integer ratio,
    a t_final that is not positive and a dt that is not positive and finite."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if not t_final > 0.0:
        raise ConfigurationError(f"t_final must be positive, got {t_final}")
    ratio = t_final / dt
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - t_final) > 1e-6 * max(t_final, dt):
        raise ConfigurationError(
            f"t_final = {t_final} is not an integer multiple of dt = {dt}"
        )
    return steps


class Scheme(enum.Enum):
    LINEAR_SCHRODINGER = "linear_schrodinger"
    NLS = "nls"
    KLEIN_GORDON = "klein_gordon"
    DISPERSIONLESS_TRANSPORT = "dispersionless_transport"


#: the observable series whose drift backs each scheme's run
CONSERVED = {
    Scheme.LINEAR_SCHRODINGER: "norm",
    Scheme.NLS: "norm",
    Scheme.KLEIN_GORDON: "energy",
    Scheme.DISPERSIONLESS_TRANSPORT: "rho_integral",
}


@dataclass(frozen=True)
class SolverConfig:
    """Integrator settings.  Building one checks the cadences, the step
    count, potential_slope and order (ConfigurationError names the first
    problem); the solvers check potential and probe_index against the grid
    before any stepping.

    snapshot_every / observe_every are step counts (0 disables mid-run
    snapshots; initial and final states are always recorded).
    probe_index, when set, records the complex field value at that grid
    point in the observable series (for frequency regression).
    potential is the periodic part of V tabulated on the grid;
    potential_slope, the transport's only, is the coefficient g of an
    additional linear part V = g z, kept separate because a linear ramp
    has no honest periodic tabulation.  order is the cubic scheme's order
    of accuracy, a key of ORDERS (2, Strang; 4, Suzuki; or 6, Kahan &
    Li); the other schemes have order 2 only.
    """

    scheme: Scheme
    dt: float
    t_final: float
    snapshot_every: int = 0
    observe_every: int = 10
    potential: np.ndarray | None = None
    probe_index: int | None = None
    potential_slope: float = 0.0
    order: int = 2

    def __post_init__(self):
        for name in ("snapshot_every", "observe_every"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        step_count(self.dt, self.t_final)
        if self.potential_slope != 0.0 and self.scheme is not Scheme.DISPERSIONLESS_TRANSPORT:
            raise ConfigurationError(
                f"{self.scheme.value} has no linear potential part; "
                f"potential_slope must be zero, got {self.potential_slope}")
        if self.order not in ORDERS:
            raise ConfigurationError(f"order must be one of {sorted(ORDERS)}, got {self.order}")
        if self.order != 2 and self.scheme is not Scheme.NLS:
            raise ConfigurationError(f"{self.scheme.value} has only a second-order step; "
                                     f"order must be 2, got {self.order}")

    def n_steps(self) -> int:
        return step_count(self.dt, self.t_final)

    def config_echo(self, grid: Grid1D) -> dict:
        echo = {
            "scheme": self.scheme.value,
            "convention": CONVENTIONS[self.scheme.value],
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_every": self.snapshot_every,
            "observe_every": self.observe_every,
            "grid": {"n": grid.n, "z_min": grid.z_min, "z_max": grid.z_max, "dz": grid.dz},
            "potential": "zero" if self.potential is None else "tabulated",
        }
        if self.scheme is Scheme.KLEIN_GORDON:
            echo.update(omega0=1.0, c=1.0)
        if self.scheme is Scheme.NLS:
            echo["order"] = self.order
        if self.scheme is Scheme.DISPERSIONLESS_TRANSPORT:
            echo["potential_slope"] = self.potential_slope
        return echo


def _require_valid(config: SolverConfig, grid: Grid1D, scheme: Scheme) -> None:
    """Raise ConfigurationError unless config is for scheme and its rules
    that need the grid hold: the potential's shape, checked before any
    reduction over its values, no nonzero potential on the cubic or
    second-order scheme, the dt max|V| accuracy guard and probe_index."""
    if config.scheme is not scheme:
        raise ConfigurationError(
            f"config.scheme is {config.scheme.value}, solver needs {scheme.value}"
        )
    if config.potential is not None:
        pot = np.asarray(config.potential, dtype=float)
        if pot.shape != (grid.n,):
            raise ConfigurationError(
                f"potential must have grid length {grid.n}, got shape {pot.shape}"
            )
        if scheme in (Scheme.NLS, Scheme.KLEIN_GORDON) and np.any(pot != 0.0):
            raise ConfigurationError(f"{scheme.value} has no potential term; "
                                     "potential must be zero")
        phase = config.dt * float(np.max(np.abs(pot)))
        if phase > MAX_POTENTIAL_PHASE_PER_STEP:
            raise ConfigurationError(
                f"dt * max|V| = {phase:.3g} exceeds the "
                f"accuracy guard {MAX_POTENTIAL_PHASE_PER_STEP}"
            )
    if config.probe_index is not None and not (0 <= config.probe_index < grid.n):
        raise ConfigurationError(f"probe_index {config.probe_index} outside grid")


def require_nonlinear_phase(psi0: ComplexField, config: SolverConfig) -> None:
    """Reject a cubic run whose largest nonlinear sub-step phase
    2 max|w| max|phi0|^2 dt, w over ORDERS[config.order], exceeds
    MAX_POTENTIAL_PHASE_PER_STEP.  Each sub-flow is exact, but the
    splitting error grows with that phase while the norm stays exact, so a
    coarse dt would pass the drift check with a wrong field."""
    peak = float(np.max(np.abs(psi0.values)))
    phase = 2.0 * max(abs(w) for w in ORDERS[config.order]) * peak * peak * config.dt
    if phase > MAX_POTENTIAL_PHASE_PER_STEP:
        raise ConfigurationError(
            f"nonlinear phase per step 2 max|w| max|phi0|^2 dt = {phase:.3g} exceeds the "
            f"accuracy guard {MAX_POTENTIAL_PHASE_PER_STEP}; reduce dt = {config.dt}")


class _Block(NamedTuple):
    """Ascending record steps with the indices of their observation and snapshot rows."""

    steps: list[int]
    observed: list[int]
    snapped: list[int]


class _Recorder:
    """Owns a run's record plan, keeps its record and builds its report.

    The plan, from the config's step count and two cadences, is step 0,
    every multiple of either cadence and the final step; a step observes
    when it is 0, final or a multiple of observe_every, and snapshots
    likewise with snapshot_every.  build names the report after the
    config's scheme and backs it with the drift of its CONSERVED series
    (norm, energy or rho_integral): the initial and final values and
    max |x - x0| / x0 over the reported series, under the keys
    {conserved}_initial, {conserved}_final and max_relative_{w}_drift, w
    the first word of the name.  A record step whose field or recorded
    quantity is not finite raises NumericalError, so a run that blew up
    cannot report success.
    """

    def __init__(self, config: SolverConfig, grid: Grid1D):
        self.config = config
        self.grid = grid
        self.conserved = CONSERVED[config.scheme]
        self.times: list[float] = []
        self.series: dict[str, list[float]] = {}
        self.snapshots: list[Snapshot] = []

    def blocks(self, rows: int) -> Iterator[_Block]:
        """The plan: step 0 alone, then blocks of up to rows later steps,
        each with its observation and snapshot rows.  The steps are merged
        from the two cadences as the blocks are taken, so the plan holds
        one block at a time, whatever the step count."""
        n = self.config.n_steps()
        # a cadence of 0 records only the first and final steps, as n would
        observe, snapshot = self.config.observe_every or n, self.config.snapshot_every or n
        merged = heapq.merge(range(observe, n, observe), range(snapshot, n, snapshot), (n,))
        steps = (step for step, _ in groupby(merged))
        yield _Block([0], [0], [0])
        while block := list(islice(steps, rows)):
            yield _Block(block, [i for i, s in enumerate(block) if s == n or s % observe == 0],
                         [i for i, s in enumerate(block) if s == n or s % snapshot == 0])

    def record(self, block: _Block, rows: np.ndarray, extra: dict | None = None,
               snapshot_extra: dict[str, np.ndarray] | None = None) -> None:
        """Record rows[i], the field at record step block.steps[i] (a 1-D
        field makes a one-row block), with extra quantities, a value per
        observation row, and snapshot_extra columns, a row per snapshot
        row.  Only the snapshot rows are copied.  The block is checked
        before anything is kept: the first row that is not finite raises
        NumericalError naming its step and first failing quantity, in the
        order field, extra, observables, probe.  A row that is not finite
        has a norm that is not, and ComplexField checks the snapshot rows,
        so no row is scanned twice."""
        steps, observed, snapped = block
        rows = rows.reshape(len(steps), -1)
        dt = self.config.dt
        extra = extra or {}
        series = {}
        if observed:
            at = rows if len(observed) == len(rows) else rows[observed]
            series = row_observables(self.grid, at)
            series.update((name, np.atleast_1d(value).tolist()) for name, value in extra.items())
            if self.config.probe_index is not None:
                probe = at[:, self.config.probe_index]
                series.update(probe_re=probe.real.tolist(), probe_im=probe.imag.tolist())
        columns = {name: np.atleast_2d(value) for name, value in (snapshot_extra or {}).items()}
        try:
            snapshots = [Snapshot(steps[i] * dt, ComplexField(self.grid, rows[i]),
                                  {name: value[j] for name, value in columns.items()})
                         for j, i in enumerate(snapped)]
        except ConfigurationError:
            snapshots = None
        if snapshots is None or not all(map(math.isfinite, chain(*series.values()))):
            finite = np.isfinite(rows).all(axis=-1)
            names = sorted(series, key=lambda name: name not in extra)
            for i, step in enumerate(steps):
                failed = [] if finite[i] else ["field"]
                if i in observed:
                    j = observed.index(i)
                    failed += [name for name in names if not math.isfinite(series[name][j])]
                if failed:
                    raise NumericalError(
                        f"{failed[0]} is not finite at step {step} (t = {step * dt:.6g})")
        self.times.extend([steps[i] * dt for i in observed])
        for name, values in series.items():
            self.series.setdefault(name, []).extend(values)
        self.snapshots.extend(snapshots)

    def run(self, advance: Callable, rows: int = 1) -> RunReport:
        """The record loop of every scheme: walk the plan in blocks of up to
        rows; advance(done, block) goes on from record step done and returns
        the block's rows, extra and snapshot_extra, as its flags ask; record
        them, and build the report."""
        done = 0
        for block in self.blocks(rows):
            self.record(block, *advance(done, block))
            done = block.steps[-1]
        return self.build()

    def build(self) -> RunReport:
        series = {k: np.array(v) for k, v in self.series.items()}
        kept = series[self.conserved]
        x0 = kept[0]
        word = self.conserved.split("_")[0]
        return RunReport(
            scheme=self.config.scheme.value,
            config=self.config.config_echo(self.grid),
            times=np.array(self.times),
            observables=series,
            snapshots=self.snapshots,
            conservation={
                f"{self.conserved}_initial": float(x0),
                f"{self.conserved}_final": float(kept[-1]),
                f"max_relative_{word}_drift": float(np.max(np.abs(kept - x0)) / x0),
            },
        )


def _split_step(psi0: ComplexField, config: SolverConfig,
                inner: Callable[[np.ndarray, float], None], outer: np.ndarray | None,
                outer_in_k: bool) -> RunReport:
    """The Strang loop of both Schrodinger-type schemes: a step composes the
    sub-steps O(w dt / 2) I(w dt) O(w dt / 2) over w in ORDERS[config.order].
    O(tau) = exp(-i outer tau) is diagonal in k if outer_in_k, else in z
    (outer None: the identity); inner(state, w) applies I(w dt) in place in
    the other space, where the state is held.  Adjacent outer halves are
    merged, so a sub-step makes one FFT pair, and with outer None the state
    changes space only on record steps.  A record step reads the closing
    half off a copy and does not perturb the run.
    """
    n_steps, dt = config.n_steps(), config.dt
    weights = ORDERS[config.order]
    last = len(weights) - 1
    to_outer, to_inner = (np.fft.fft, np.fft.ifft) if outer_in_k else (np.fft.ifft, np.fft.fft)
    if outer is None:
        half = merged = None
    else:
        # the weights are symmetric: the opening and closing halves agree
        half = np.exp(-0.5j * outer * (weights[0] * dt))
        # after the inner factor of sub-step j: the outer step to the next
        # sub-step's inner factor, or from the last one to the first of the next step
        merged = [np.exp(-1j * outer * (0.5 * (w + w_next) * dt))
                  for w, w_next in zip(weights, weights[1:] + weights[:1])]

    state = np.fft.fft(psi0.values) if outer_in_k else psi0.values
    state = to_inner(state if half is None else half * state)
    buf = np.empty_like(state)

    def advance(done: int, block: _Block):
        target = block.steps[0]
        for step in range(done + 1, target + 1):
            for j, w in enumerate(weights):
                inner(state, w)
                closing = j == last and step == target
                if merged is None and not closing:
                    continue
                to_outer(state, out=buf)
                if closing:
                    closed = buf if half is None else half * buf
                    row = np.fft.ifft(closed) if outer_in_k else closed
                if merged is None or (closing and step == n_steps):
                    continue
                np.multiply(merged[j], buf, out=state)
                to_inner(state, out=state)
        return psi0.values if target == 0 else row, None, None

    return _Recorder(config, psi0.grid).run(advance)


def evolve_linear_schrodinger(psi0: ComplexField, config: SolverConfig) -> RunReport:
    """Strang split-step for i psi_t = -(1/2) psi_zz + V psi: the potential
    phase exp(-i V tau) is the outer factor, in z, and the kinetic step
    exp(-i k^2 dt / 2) the inner one, on the spectrum.  Without a potential
    only record steps make an FFT; with one, a step makes one FFT pair.
    """
    _require_valid(config, psi0.grid, Scheme.LINEAR_SCHRODINGER)
    k2 = psi0.grid.k**2
    kinetic = {w: np.exp(-0.5j * k2 * (w * config.dt)) for w in ORDERS[config.order]}

    def kinetic_step(spectrum: np.ndarray, w: float) -> None:
        spectrum *= kinetic[w]

    potential = None if config.potential is None else np.asarray(config.potential, float)
    return _split_step(psi0, config, kinetic_step, potential, outer_in_k=False)


def evolve_nls(psi0: ComplexField, config: SolverConfig) -> RunReport:
    """Split-step for i phi_t + phi_zz + 2|phi|^2 phi = 0, of config.order:
    the kinetic step exp(-i k^2 tau) is the outer factor, on the spectrum,
    and the nonlinear phase exp(2 i |phi|^2 w dt) the inner one, in z,
    exact for its sub-flow since |phi| is invariant under it.
    """
    grid = psi0.grid
    _require_valid(config, grid, Scheme.NLS)
    require_nonlinear_phase(psi0, config)
    theta = np.empty(grid.n)
    phase = np.empty(grid.n, dtype=complex)

    def nonlinear_phase(psi: np.ndarray, w: float) -> None:
        # exp(i theta), theta = 2 w dt |psi|^2
        np.abs(psi, out=theta)
        np.multiply(theta, theta, out=theta)
        np.multiply(theta, 2.0 * w * config.dt, out=theta)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        psi *= phase

    return _split_step(psi0, config, nonlinear_phase, grid.k**2, outer_in_k=True)


def _spectral_energy(spec: np.ndarray, spec_t: np.ndarray, lam: np.ndarray,
                     dz: float):
    """dz/n sum(|spec_t|^2 + lam |spec|^2) over the last axis: by Parseval, the
    energy integral of each row of the fields whose spectra are spec and spec_t."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.vecdot(spec_t, spec_t).real + np.vecdot(spec, lam * spec).real
        return total * dz / spec.shape[-1]


def kg_energy(psi: np.ndarray, psi_t: np.ndarray, grid: Grid1D):
    """Discrete energy integral(|psi_t|^2 + |psi_z|^2 + |psi|^2) dz of each row
    (a float for one field) with the spectral psi_z (Nyquist mode kept), summed
    over the spectra by Parseval; inf or nan, without a floating-point
    warning, when the density overflows."""
    lam = 1.0 + grid.k**2
    return _spectral_energy(np.fft.fft(psi), np.fft.fft(psi_t), lam, grid.dz)


def one_branch_time_derivative(psi0: ComplexField) -> ComplexField:
    """psi_t(0) for a forward-propagating (single-branch) initial condition.

    Applies -i omega(k) mode by mode with omega(k) = sqrt(1 + k^2), so the
    packet contains no counter-propagating admixture.
    """
    grid = psi0.grid
    om = np.hypot(1.0, grid.k)
    return ComplexField(grid, np.fft.ifft(-1j * om * np.fft.fft(psi0.values)))


def evolve_klein_gordon(psi0: ComplexField, dpsi0_dt: ComplexField,
                        config: SolverConfig) -> RunReport:
    """The exact flow of psi_tt = psi_zz - psi at its record steps: with
    omega = sqrt(1 + k^2), each mode has the closed form (Hochbruck &
    Ostermann 2010, Acta Numerica 19:209)
      psi^(t)   = psi^_0 cos(omega t) + psi^_t0 sin(omega t) / omega
      psi^_t(t) = psi^_t0 cos(omega t) - psi^_0 omega sin(omega t),
    so dt is only the unit of the record cadence.  After step 0 (psi0
    itself) the record steps go in blocks of max(1, KG_BLOCK_VALUES // n)
    rows, one inverse FFT each.  The "energy" observable is summed over
    the spectra by Parseval, dz/n sum(|psi_t^|^2 + omega^2 |psi^|^2).
    """
    grid = psi0.grid
    _require_valid(config, grid, Scheme.KLEIN_GORDON)
    if dpsi0_dt.grid != grid:
        raise ConfigurationError("psi0 and dpsi0_dt must share a grid")
    omega = np.hypot(1.0, grid.k)
    spec0, vel0 = np.fft.fft(psi0.values), np.fft.fft(dpsi0_dt.values)

    def advance(done: int, block: _Block):
        if block.steps == [0]:
            return psi0.values, {"energy": _spectral_energy(spec0, vel0, omega**2, grid.dz)}, None
        phase = np.multiply.outer(np.array(block.steps) * config.dt, omega)
        cos, sin = np.cos(phase), np.sin(phase)
        spec = cos * spec0 + sin * (vel0 / omega)
        spec_t = cos[block.observed] * vel0 - sin[block.observed] * (omega * spec0)
        energy = _spectral_energy(spec[block.observed], spec_t, omega**2, grid.dz)
        return np.fft.ifft(spec), {"energy": energy}, None

    return _Recorder(config, grid).run(advance, rows=max(1, KG_BLOCK_VALUES // grid.n))


def nls_breather_exact(z, t: float, a: float, v: float, z0: float = 0.0):
    """Exact moving-breather solution of the cubic equation.

    a * exp(i v z / 2 + i (a^2 - v^2/4) t) * sech(a (z - v t - z0));
    at v = 0 this reduces to the stationary breather a e^{i a^2 t} sech(a z).
    """
    z = np.asarray(z, dtype=float)
    phase = 0.5 * v * z + (a * a - 0.25 * v * v) * t
    return a * np.exp(1j * phase) / np.cosh(a * (z - v * t - z0))


def nls_breather_time_derivative(z, t: float, a: float, v: float, z0: float = 0.0):
    """Analytic d/dt of nls_breather_exact (for residual checks)."""
    z = np.asarray(z, dtype=float)
    u = a * (z - v * t - z0)
    phi = nls_breather_exact(z, t, a, v, z0)
    return phi * (1j * (a * a - 0.25 * v * v) + a * v * np.tanh(u))


def nls_residual(grid: Grid1D, t: float, a: float, v: float, z0: float = 0.0) -> np.ndarray:
    """Pointwise i phi_t + phi_zz + 2|phi|^2 phi on the exact breather.

    phi_t is analytic; phi_zz is spectral.  Bounding this residual before
    trusting any solver output is the transcription gate for the exact
    solution.
    """
    z = grid.z
    phi = nls_breather_exact(z, t, a, v, z0)
    phi_t = nls_breather_time_derivative(z, t, a, v, z0)
    phi_zz = np.fft.ifft(-(grid.k**2) * np.fft.fft(phi))
    return 1j * phi_t + phi_zz + 2.0 * np.abs(phi) ** 2 * phi

