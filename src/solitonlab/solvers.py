"""Time integration of the linear, nonlinear, and second-order wave equations.

Normalized conventions (documented side by side because they differ by a
factor of two in the kinetic term):

* linear Schrodinger (hbar = m = 1):   i psi_t = -(1/2) psi_zz + V psi
* cubic NLS (as-printed normalization): i phi_t + phi_zz + 2|phi|^2 phi = 0
* second-order (Klein-Gordon form):     psi_tt = c^2 psi_zz - omega0^2 psi

The Schrodinger-type equations use Strang split-step Fourier: half
sub-steps of the potential (linear) or kinetic (cubic) part around a full
step of the other.  Each scheme merges the closing half step of one step
with the opening one of the next (Weideman & Herbst 1986).  The cubic
scheme then costs one FFT pair per step.  The linear scheme holds its
state as a spectrum between steps: with a potential a step costs one FFT
pair, without one the step is a single diagonal multiplication.  Every
sub-step is a pointwise or diagonal phase multiplication, so the scheme
is exactly unitary up to roundoff, and the nonlinear sub-flow of the
cubic equation integrates exactly (|phi| is invariant under it).  The
second-order equation is integrated by leapfrog with a spectral
Laplacian.  It has constant coefficients, so the leapfrog steps the
spectra mode by mode and makes no FFT per step.  Its initial time
derivative is caller-supplied because the equation genuinely needs two
Cauchy data.

Observable extraction and snapshot recording run on a configurable
cadence decoupled from stepping; only a record step transforms a
spectral state back to z.  A record step whose field or recorded
quantity is not finite raises NumericalError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import ComplexField, Grid1D, observables
from .report import RunReport, Snapshot

#: accuracy guard for split-step potential phases
MAX_POTENTIAL_PHASE_PER_STEP = 0.1
#: CFL safety factor for the leapfrog scheme
LEAPFROG_SAFETY = 0.9

CONVENTIONS = {
    "linear_schrodinger": "i psi_t = -(1/2) psi_zz + V psi  (hbar = m = 1)",
    "nls": "i phi_t + phi_zz + 2|phi|^2 phi = 0  (kinetic coefficient 1, not 1/2)",
    "klein_gordon": "psi_tt = c^2 psi_zz - omega0^2 psi",
}


def step_count(dt: float, t_final: float) -> int:
    """Number of steps dt spanning t_final; rejects a non-integer ratio
    and a dt that is not positive and finite."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
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


@dataclass(frozen=True)
class SolverConfig:
    """Integrator settings; validated against the grid before any stepping.

    snapshot_every / observe_every are step counts (0 disables mid-run
    snapshots; initial and final states are always recorded).
    probe_index, when set, records the complex field value at that grid
    point in the observable series (for frequency regression).
    """

    scheme: Scheme
    dt: float
    t_final: float
    snapshot_every: int = 0
    observe_every: int = 10
    potential: np.ndarray | None = None
    omega0: float = 1.0
    c: float = 1.0
    probe_index: int | None = None

    def n_steps(self) -> int:
        return step_count(self.dt, self.t_final)

    def config_echo(self, grid: Grid1D) -> dict:
        return {
            "scheme": self.scheme.value,
            "convention": CONVENTIONS[self.scheme.value],
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_every": self.snapshot_every,
            "observe_every": self.observe_every,
            "omega0": self.omega0,
            "c": self.c,
            "grid": {"n": grid.n, "z_min": grid.z_min, "z_max": grid.z_max, "dz": grid.dz},
            "potential": "zero" if self.potential is None else "tabulated",
        }


def validate_solver_config(config: SolverConfig, grid: Grid1D) -> list[str]:
    """All guard violations for this config on this grid (empty = runnable)."""
    problems = []
    for name in ("snapshot_every", "observe_every"):
        if getattr(config, name) < 0:
            problems.append(f"{name} must be >= 0, got {getattr(config, name)}")
    try:
        config.n_steps()
    except ConfigurationError as err:
        problems.append(str(err))
    if config.potential is not None:
        pot = np.asarray(config.potential, dtype=float)
        if pot.shape != (grid.n,):
            problems.append(
                f"potential must have grid length {grid.n}, got shape {pot.shape}"
            )
        elif config.scheme is Scheme.NLS and np.any(pot != 0.0):
            problems.append("the cubic scheme has no potential term; potential must be zero")
        elif config.dt * float(np.max(np.abs(pot))) > MAX_POTENTIAL_PHASE_PER_STEP:
            problems.append(
                f"dt * max|V| = {config.dt * float(np.max(np.abs(pot))):.3g} exceeds the "
                f"accuracy guard {MAX_POTENTIAL_PHASE_PER_STEP}"
            )
    if config.scheme is Scheme.KLEIN_GORDON and not config.c > 0.0:
        problems.append(f"c must be positive, got {config.c}")
    elif config.scheme is Scheme.KLEIN_GORDON:
        bound_cfl = LEAPFROG_SAFETY * grid.dz / config.c
        k_max = math.pi / grid.dz
        bound_spectral = LEAPFROG_SAFETY * 2.0 / math.hypot(config.omega0, config.c * k_max)
        if config.dt > bound_cfl:
            problems.append(
                f"leapfrog dt = {config.dt} violates dt <= {LEAPFROG_SAFETY} dz/c = {bound_cfl:.3g}"
            )
        if config.dt > bound_spectral:
            problems.append(
                f"leapfrog dt = {config.dt} violates the spectral stability bound "
                f"2/sqrt(omega0^2 + (c k_max)^2) (= {bound_spectral:.3g} with safety factor)"
            )
    if config.probe_index is not None and not (0 <= config.probe_index < grid.n):
        problems.append(f"probe_index {config.probe_index} outside grid")
    return problems


def _require_valid(config: SolverConfig, grid: Grid1D, scheme: Scheme) -> None:
    if config.scheme is not scheme:
        raise ConfigurationError(
            f"config.scheme is {config.scheme.value}, solver needs {scheme.value}"
        )
    problems = validate_solver_config(config, grid)
    if problems:
        raise ConfigurationError("; ".join(problems))


def _require_finite(quantities: dict, step: int, t: float) -> None:
    """Raise NumericalError naming the first quantity (float or array) that is not finite."""
    for name, value in quantities.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise NumericalError(f"{name} is not finite at step {step} (t = {t:.6g})")


class _Recorder:
    """Accumulates the observable series and snapshots on the set cadence.

    config is a SolverConfig or a madelung.DispersionlessConfig: both give
    dt, the two cadences and config_echo; only the former has a probe.
    A record step whose field or recorded quantity is not finite raises
    NumericalError, so a run that blew up cannot report success.
    """

    def __init__(self, config, n_steps: int, grid: Grid1D):
        self.config = config
        self.n_steps = n_steps
        self.grid = grid
        self.probe_index = getattr(config, "probe_index", None)
        self.times: list[float] = []
        self.series: dict[str, list[float]] = {}
        self.snapshots: list[Snapshot] = []

    def observe_now(self, step: int) -> bool:
        if step == 0 or step == self.n_steps:
            return True
        return self.config.observe_every > 0 and step % self.config.observe_every == 0

    def snapshot_now(self, step: int) -> bool:
        if step == 0 or step == self.n_steps:
            return True
        return self.config.snapshot_every > 0 and step % self.config.snapshot_every == 0

    def record(self, step: int, values: np.ndarray, extra: dict[str, float] | None = None,
               snapshot_extra: dict[str, np.ndarray] | None = None) -> None:
        t = step * self.config.dt
        extra = extra or {}
        _require_finite({"field": values, **extra}, step, t)
        field = ComplexField(self.grid, values)
        if self.observe_now(step):
            obs = {**observables(field), **extra}
            if self.probe_index is not None:
                probe = field.values[self.probe_index]
                obs["probe_re"] = float(probe.real)
                obs["probe_im"] = float(probe.imag)
            # the observables of a finite field can still overflow
            _require_finite(obs, step, t)
            self.times.append(t)
            for key, value in obs.items():
                self.series.setdefault(key, []).append(value)
        if self.snapshot_now(step):
            self.snapshots.append(Snapshot(t, field, snapshot_extra or {}))

    def build(self, scheme: str, conservation: dict[str, float]) -> RunReport:
        return RunReport(
            scheme=scheme,
            config=self.config.config_echo(self.grid),
            times=np.array(self.times),
            observables={k: np.array(v) for k, v in self.series.items()},
            snapshots=self.snapshots,
            conservation=conservation,
        )


def _norm_drift(series: dict[str, np.ndarray]) -> dict[str, float]:
    norms = series["norm"]
    n0 = norms[0]
    return {
        "norm_initial": float(n0),
        "norm_final": float(norms[-1]),
        "max_relative_norm_drift": float(np.max(np.abs(norms - n0)) / n0),
    }


def evolve_linear_schrodinger(psi0: ComplexField, config: SolverConfig) -> RunReport:
    """Strang split-step for i psi_t = -(1/2) psi_zz + V psi.

    Half potential phase H = exp(-i V dt / 2), full spectral kinetic step
    exp(-i k^2 dt / 2), half potential phase.  The state is held as its
    spectrum between steps, and the closing half phase of one step and the
    opening one of the next are applied as one full phase exp(-i V dt).  A
    record step reads H ifft(spectrum) and does not perturb the run.  Without
    a potential every phase is the identity, so only record steps make an
    FFT; with one, a step makes one FFT pair.  Exactly norm-preserving up to
    roundoff.
    """
    grid = psi0.grid
    _require_valid(config, grid, Scheme.LINEAR_SCHRODINGER)
    n_steps = config.n_steps()
    kinetic = np.exp(-0.5j * grid.k**2 * config.dt)
    if config.potential is None:
        half_pot = full_pot = None
    else:
        v = np.asarray(config.potential, float)
        half_pot = np.exp(-0.5j * v * config.dt)
        full_pot = np.exp(-1j * v * config.dt)

    rec = _Recorder(config, n_steps, grid)
    rec.record(0, psi0.values)
    spec = np.fft.fft(psi0.values if half_pot is None else half_pot * psi0.values)
    for step in range(1, n_steps + 1):
        spec *= kinetic
        recording = rec.observe_now(step) or rec.snapshot_now(step)
        kick = full_pot is not None and step < n_steps
        if recording or kick:
            psi = np.fft.ifft(spec)
        if recording:
            rec.record(step, psi if half_pot is None else half_pot * psi)
        if kick:
            psi *= full_pot
            spec = np.fft.fft(psi)
    report = rec.build("linear_schrodinger", {})
    report.conservation = _norm_drift(report.observables)
    return report


def evolve_nls(psi0: ComplexField, config: SolverConfig) -> RunReport:
    """Strang split-step for i phi_t + phi_zz + 2|phi|^2 phi = 0.

    Half spectral kinetic step exp(-i k^2 dt / 2), full nonlinear phase
    exp(2 i |phi|^2 dt) -- exact for its sub-flow since |phi| is
    invariant under it -- then the second kinetic half step.  The closing
    and opening half steps of consecutive steps are applied as one full
    multiplier exp(-i k^2 dt); a record step reads its state off the same
    spectrum with one more inverse FFT and does not perturb the run.
    """
    grid = psi0.grid
    _require_valid(config, grid, Scheme.NLS)
    n_steps = config.n_steps()
    k2 = grid.k**2
    half_kinetic = np.exp(-0.5j * k2 * config.dt)
    kinetic = np.exp(-1j * k2 * config.dt)

    rec = _Recorder(config, n_steps, grid)
    rec.record(0, psi0.values)
    psi = np.fft.ifft(half_kinetic * np.fft.fft(psi0.values))
    for step in range(1, n_steps + 1):
        psi = psi * np.exp(2j * config.dt * np.abs(psi) ** 2)
        spectrum = np.fft.fft(psi)
        if rec.observe_now(step) or rec.snapshot_now(step):
            rec.record(step, np.fft.ifft(half_kinetic * spectrum))
        if step < n_steps:
            psi = np.fft.ifft(kinetic * spectrum)
    report = rec.build("nls", {})
    report.conservation = _norm_drift(report.observables)
    return report


def kg_energy(psi: np.ndarray, psi_t: np.ndarray, grid: Grid1D,
              omega0: float, c: float) -> float:
    """Discrete energy integral(|psi_t|^2 + c^2 |psi_z|^2 + omega0^2 |psi|^2) dz;
    inf or nan, without a floating-point warning, when the density overflows."""
    psi_z = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.abs(psi_t) ** 2 + c**2 * np.abs(psi_z) ** 2 + omega0**2 * np.abs(psi) ** 2
        return float(np.sum(density) * grid.dz)


def one_branch_time_derivative(psi0: ComplexField, omega0: float = 1.0,
                               c: float = 1.0) -> ComplexField:
    """psi_t(0) for a forward-propagating (single-branch) initial condition.

    Applies -i omega(k) mode by mode with omega(k) = sqrt(omega0^2 + c^2 k^2),
    so the packet contains no counter-propagating admixture.
    """
    grid = psi0.grid
    om = np.hypot(omega0, c * grid.k)
    return ComplexField(grid, np.fft.ifft(-1j * om * np.fft.fft(psi0.values)))


def evolve_klein_gordon(psi0: ComplexField, dpsi0_dt: ComplexField,
                        config: SolverConfig) -> RunReport:
    """Leapfrog for psi_tt = c^2 psi_zz - omega0^2 psi with spectral Laplacian.

    The equation is diagonal in k, psi_tt = -lambda(k) psi with
    lambda = omega0^2 + c^2 k^2, so the leapfrog recursion is stepped on the
    spectra: the same scheme mode by mode, with no FFT per step.  Only a
    record step transforms back, for the field and its centered-difference
    time derivative; the reported "energy" observable uses that derivative,
    so it is available on interior observation steps and at the endpoints
    via the supplied/extended derivative.
    """
    grid = psi0.grid
    _require_valid(config, grid, Scheme.KLEIN_GORDON)
    if dpsi0_dt.grid != grid:
        raise ConfigurationError("psi0 and dpsi0_dt must share a grid")
    n_steps = config.n_steps()
    dt = config.dt
    # eigenvalues of -(c^2 d_zz - omega0^2) on the Fourier ladder
    lam = config.omega0**2 + (config.c * grid.k) ** 2
    lam_dt2 = dt**2 * lam

    rec = _Recorder(config, n_steps, grid)
    energies: list[float] = []

    prev = np.fft.fft(psi0.values)
    vel0 = np.fft.fft(dpsi0_dt.values)
    # third-order Taylor start keeps the startup error below the scheme order
    cur = prev + dt * vel0 - (dt**2 / 2.0) * lam * prev - (dt**3 / 6.0) * lam * vel0

    e0 = kg_energy(psi0.values, dpsi0_dt.values, grid, config.omega0, config.c)
    energies.append(e0)
    rec.record(0, psi0.values, extra={"energy": e0})

    for step in range(1, n_steps + 1):
        nxt = 2.0 * cur - prev - lam_dt2 * cur
        # centered time derivative at `step` uses the freshly computed state
        if rec.observe_now(step) or rec.snapshot_now(step):
            cur_z = np.fft.ifft(cur)
            psi_t = np.fft.ifft((nxt - prev) / (2.0 * dt))
            energy = kg_energy(cur_z, psi_t, grid, config.omega0, config.c)
            energies.append(energy)
            rec.record(step, cur_z, extra={"energy": energy})
        prev, cur = cur, nxt

    earr = np.array(energies)
    conservation = {
        "energy_initial": float(earr[0]),
        "energy_final": float(earr[-1]),
        "max_relative_energy_drift": float(np.max(np.abs(earr - earr[0])) / earr[0]),
    }
    return rec.build("klein_gordon", conservation)


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

