"""Headline numerical experiments built on the solver stack.

* the dispersion/soliton dichotomy: one sech packet through the linear,
  cubic, and curvature-cancelled solvers, with a width-ratio verdict;
* the hidden-phase barrier Monte Carlo: a uniform bounce phase decides
  reflection vs transmission at a guide narrowing, with an analytic
  transfer-matrix transmission as the linear-equation comparator;
* the planetary-orbit quantization chain and its phase-accordance law;
* the frequency-converter relations for a guided photon mode.

Monte Carlo trial i owns words 2i and 2i+1 of a counter-based Philox
stream keyed by the seed, so reports are bit-identical regardless of
execution order or worker count.  A trial's outcome is a pure function of
those two raw 64-bit words: the gap and the tunnel coin are turned once
per spec into exact integer word thresholds, and each block counts its
trials with unsigned compares on the raw words, giving the same counts
as evaluating the float draws u = (w >> 11) 2^-53 trial by trial.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dispersion import evanescent_kappa
from .errors import ConfigurationError, DomainError
from .grid import ComplexField, Grid1D, PacketKind, PacketSpec, build_packet, observables
from .kinematics import KinematicState, PhysicalConstants, electron_constants, kinematic_state
from .madelung import DispersionlessConfig, dispersionless_initial, evolve_dispersionless
from .report import RunReport
from .solvers import Scheme, SolverConfig, evolve_linear_schrodinger, evolve_nls, step_count

#: draws consumed per Monte Carlo trial (position phase, tunneling coin)
_DRAWS_PER_TRIAL = 2
#: Generator.random maps a raw 64-bit word w to u = (w >> 11) 2^-53
_UNIFORM_BITS = 53
_WORD_SHIFT = 64 - _UNIFORM_BITS
#: trials per RNG block; fixed so worker count cannot affect substreams
_TRIALS_PER_BLOCK = 1 << 16

#: width-ratio bands for the dichotomy verdicts
DISPERSED_MIN_RATIO = 3.0
SOLITON_BAND = 0.01
TRANSPORT_BAND = 0.001


# ---------------------------------------------------------------------------
# dispersion vs soliton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomySettings:
    """Resolution settings for the three-way width comparison.

    ``scale`` defaults to the amplitude (the cubic equation's
    amplitude-width locking); setting it separately builds a deliberate
    non-soliton as a negative control.
    """

    n: int = 1024
    z_min: float = -51.2
    z_max: float = 51.2
    amplitude: float = 1.0
    scale: float | None = None
    dt: float = 1e-3
    t_final: float = 10.0
    observe_every: int = 100

    def __post_init__(self):
        if self.observe_every < 0:
            raise ConfigurationError(f"observe_every must be >= 0, got {self.observe_every}")
        if self.t_final != 0.0:
            step_count(self.dt, self.t_final)

    @property
    def sech_scale(self) -> float:
        return self.amplitude if self.scale is None else self.scale

    def initial_field(self) -> ComplexField:
        """The sech packet all three schemes start from."""
        packet = PacketSpec(kind=PacketKind.SECH_BREATHER, amplitude=self.amplitude,
                            scale=self.sech_scale)
        return build_packet(packet, Grid1D(self.n, self.z_min, self.z_max))


@dataclass
class DichotomyReport:
    settings: DichotomySettings
    times: np.ndarray
    widths: dict[str, np.ndarray]
    ratios: dict[str, float]
    verdicts: dict[str, str]
    runs: dict[str, RunReport] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": "soliton-vs-dispersion",
            "settings": {
                "n": self.settings.n,
                "z_min": self.settings.z_min,
                "z_max": self.settings.z_max,
                "amplitude": self.settings.amplitude,
                "scale": self.settings.sech_scale,
                "dt": self.settings.dt,
                "t_final": self.settings.t_final,
            },
            "series": {"t": self.times.tolist(),
                       **{k: v.tolist() for k, v in self.widths.items()}},
            "width_ratios": self.ratios,
            "verdicts": self.verdicts,
        }


def run_dispersion_vs_soliton(settings: DichotomySettings | None = None) -> DichotomyReport:
    """Evolve one sech packet under all three schemes and compare widths.

    The same initial data spreads monotonically under the linear solver,
    holds its width under the cubic solver (amplitude-width locking), and
    is transported rigidly by the curvature-cancelled solver.
    """
    s = settings or DichotomySettings()
    psi0 = s.initial_field()

    if s.t_final == 0.0:
        ratios = {"linear": 1.0, "nls": 1.0, "transport": 1.0}
        verdicts = {k: "no evolution requested" for k in ratios}
        w0 = observables(psi0)["rms_width"]
        widths = {k: np.array([w0]) for k in ratios}
        return DichotomyReport(s, np.array([0.0]), widths, ratios, verdicts)

    lin = evolve_linear_schrodinger(psi0, SolverConfig(
        scheme=Scheme.LINEAR_SCHRODINGER, dt=s.dt, t_final=s.t_final,
        observe_every=s.observe_every))
    nls = evolve_nls(psi0, SolverConfig(
        scheme=Scheme.NLS, dt=s.dt, t_final=s.t_final, observe_every=s.observe_every))
    transport_config = DispersionlessConfig(
        dt=s.dt, t_final=s.t_final, amplitude=s.amplitude, scale=s.sech_scale,
        velocity=0.0, observe_every=s.observe_every)
    transport = evolve_dispersionless(
        dispersionless_initial(transport_config, psi0.grid), transport_config)

    runs = {"linear": lin, "nls": nls, "transport": transport}
    widths = {k: r.observable("rms_width") for k, r in runs.items()}
    ratios = {k: float(w[-1] / w[0]) for k, w in widths.items()}
    verdicts = {
        "linear": "dispersed" if ratios["linear"] >= DISPERSED_MIN_RATIO
        else f"spreading (ratio {ratios['linear']:.3f})",
        "nls": "shape-preserved" if abs(ratios["nls"] - 1.0) <= SOLITON_BAND
        else f"not a soliton (ratio {ratios['nls']:.4f})",
        "transport": "shape-preserved" if abs(ratios["transport"] - 1.0) <= TRANSPORT_BAND
        else f"not a soliton (ratio {ratios['transport']:.4f})",
    }
    return DichotomyReport(s, lin.times, widths, ratios, verdicts, runs)


# ---------------------------------------------------------------------------
# hidden-phase barrier Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierSpec:
    """Rectangular barrier scattering setup, SI units.

    height (J) raises the effective cutoff inside the barrier; length (m)
    is the barrier extent; energy (J) is the electron kinetic energy;
    gap_offset (m) displaces the narrowed-guide gap from the guide center
    (default centered).
    """

    height: float
    length: float
    energy: float
    trials: int
    seed: int
    gap_offset: float = 0.0

    def __post_init__(self):
        if self.height <= 0.0 or self.length <= 0.0 or self.energy <= 0.0:
            raise ConfigurationError("height, length and energy must be positive")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")

    def geometry(self, constants: PhysicalConstants | None = None) -> tuple[float, ...]:
        """(shifted cutoff f0', guide width w, narrowed width w', gap_lo, gap_hi);
        ConfigurationError when the gap does not fit inside the guide."""
        k = constants or electron_constants()
        f0 = k.cutoff_frequency
        f0_shifted = f0 + self.height / k.h
        width = k.c / (2.0 * f0)
        width_narrowed = k.c / (2.0 * f0_shifted)
        gap_lo = 0.5 * width + self.gap_offset - 0.5 * width_narrowed
        gap_hi = 0.5 * width + self.gap_offset + 0.5 * width_narrowed
        if gap_lo < 0.0 or gap_hi > width:
            raise ConfigurationError(
                f"gap [{gap_lo:.3e}, {gap_hi:.3e}] does not fit inside the guide width {width:.3e}"
            )
        return f0_shifted, width, width_narrowed, gap_lo, gap_hi


@dataclass(frozen=True)
class MonteCarloReport:
    transmitted: int
    reflected: int
    tunneled: int
    transmission_fraction: float
    standard_error: float
    geometric_gap_fraction: float
    expected_fraction: float
    z_score: float | None
    linear_transmission: float
    trials: int
    seed: int
    model: dict[str, Any]

    def to_dict(self) -> dict:
        return {
            "experiment": "barrier",
            "transmitted": self.transmitted,
            "reflected": self.reflected,
            "tunneled": self.tunneled,
            "transmission_fraction": self.transmission_fraction,
            "standard_error": self.standard_error,
            "geometric_gap_fraction": self.geometric_gap_fraction,
            "expected_fraction": self.expected_fraction,
            "z_score": self.z_score,
            "linear_transmission": self.linear_transmission,
            "trials": self.trials,
            "seed": self.seed,
            "model": self.model,
        }


def _trial_words(seed: int, block: int, count: int) -> np.ndarray:
    """Raw Philox words for trials [block*B, block*B + count), shape (count, 2).

    Trial i always owns stream positions (2i, 2i+1) of the counter-based
    generator keyed by the seed, independent of blocking or threading.
    Philox advances in counter ticks of 4 output words, so block starts
    are kept 4-aligned (checked by a regression test against the
    single-stream sequence).
    """
    skip = _DRAWS_PER_TRIAL * block * _TRIALS_PER_BLOCK
    assert skip % 4 == 0, "block starts must be 4-aligned for Philox advance"
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    bitgen.advance(skip // 4)
    return bitgen.random_raw(_DRAWS_PER_TRIAL * count).reshape(count, 2)


def _gap_word_ranges(width: float, gap_lo: float, gap_hi: float) -> list[tuple[int, int]]:
    """Inclusive raw-word ranges [lo, hi] whose draw lands the trial in the gap.

    A word w gives u = m 2^-53 with m = w >> 11, and the transverse
    position width (1 - |1 - 2u|).  Each float operation there is
    correctly rounded and monotone, so the position does not decrease for
    m <= 2^52 (u <= 1/2) and does not increase above it.  The m with
    gap_lo <= position <= gap_hi are therefore one interval (possibly
    empty) on each half; bisection finds its ends with the same float
    expression, and interval [a, b] is the word range
    [a << 11, (b << 11) | 0x7FF].
    """
    def position(m: int) -> float:
        return width * (1.0 - abs(1.0 - 2.0 * (m * 2.0**-_UNIFORM_BITS)))

    def first(lo: int, hi: int, pred) -> int:
        """Smallest m in [lo, hi] with pred(m), else hi + 1; pred is false, then true."""
        while lo <= hi:
            mid = (lo + hi) // 2
            if pred(mid):
                hi = mid - 1
            else:
                lo = mid + 1
        return lo

    half, top = 1 << (_UNIFORM_BITS - 1), (1 << _UNIFORM_BITS) - 1
    rising = (first(0, half, lambda m: position(m) >= gap_lo),
              first(0, half, lambda m: position(m) > gap_hi) - 1)
    falling = (first(half + 1, top, lambda m: position(m) <= gap_hi),
               first(half + 1, top, lambda m: position(m) < gap_lo) - 1)
    return [(a << _WORD_SHIFT, ((b + 1) << _WORD_SHIFT) - 1)
            for a, b in (rising, falling) if a <= b]


def _tunnel_last_word(p: float) -> int:
    """Largest raw word whose draw u satisfies u < p, -1 when none (p = 0).
    u < p holds exactly when (w >> 11) < ceil(p 2^53), as scaling by 2^53
    is exact."""
    return (math.ceil(p * 2.0**_UNIFORM_BITS) << _WORD_SHIFT) - 1


def _count_trials(words: np.ndarray, gap_words: list[tuple[int, int]],
                  tunnel_last: int | None = None) -> int:
    """Trials (rows of raw words) whose first word lies in one of the
    disjoint inclusive gap ranges [lo, hi], given in increasing order, and,
    unless tunnel_last is None, whose second word is at most tunnel_last.

    Each range is one unsigned compare (w - lo) <= hi - lo, which wraps
    for words below lo; the differences are taken once and shifted in
    place from one range to the next.
    """
    tunnels = None
    if tunnel_last is not None:
        if tunnel_last < 0:
            return 0
        tunnels = words[:, 1] <= np.uint64(tunnel_last)
    total, diff, base = 0, None, 0
    for lo, hi in gap_words:
        if diff is None:
            diff = words[:, 0] - np.uint64(lo)
        else:
            diff -= np.uint64(lo - base)
        base = lo
        hit = diff <= np.uint64(hi - lo)
        if tunnels is not None:
            hit &= tunnels
        total += int(np.count_nonzero(hit))
    return total


def run_barrier_monte_carlo(spec: BarrierSpec,
                            constants: PhysicalConstants | None = None,
                            parallel_trials: int = 1) -> MonteCarloReport:
    """Hidden-phase statistics of barrier reflection/transmission.

    Model (all choices echoed in the report): the barrier raises the
    effective cutoff to f0' = f0 + V0/h, narrowing the guide to
    w' = c/(2 f0').  Each trial draws a bounce phase uniform in [0, 1);
    the particle's transverse position at the interface is the
    triangle-wave image of that phase across [0, w].  Landing inside the
    gap of width w' transmits if the wave frequency is above the shifted
    cutoff; below cutoff, a gap landing tunnels with probability
    exp(-2 kappa L) from the evanescent decay rate, otherwise reflects.
    The analytic transmission of the linear equation for the same
    rectangular barrier rides along as the comparator.

    Trials are counted on the raw Philox words: the gap becomes at most
    two exact word ranges (``_gap_word_ranges``) and the tunnel coin
    u < p one word bound, so each block makes unsigned integer compares
    and no float draw, with the counts of the float formulation.
    """
    k = constants or electron_constants()
    f0_shifted, width, width_narrowed, gap_lo, gap_hi = spec.geometry(k)
    f_wave = (k.rest_energy + spec.energy) / k.h
    above_cutoff = f_wave >= f0_shifted
    p_tunnel = 0.0
    kappa = 0.0
    if not above_cutoff:
        kappa = evanescent_kappa(f_wave, f0_shifted, c=k.c)
        p_tunnel = math.exp(-2.0 * kappa * spec.length)

    gap_words = _gap_word_ranges(width, gap_lo, gap_hi)
    tunnel_last = _tunnel_last_word(p_tunnel)
    n_blocks = -(-spec.trials // _TRIALS_PER_BLOCK)

    def run_block(block: int) -> tuple[int, int]:
        count = min(_TRIALS_PER_BLOCK, spec.trials - block * _TRIALS_PER_BLOCK)
        words = _trial_words(spec.seed, block, count)
        if above_cutoff:
            return _count_trials(words, gap_words), 0
        return 0, _count_trials(words, gap_words, tunnel_last)

    if parallel_trials > 1:
        with ThreadPoolExecutor(max_workers=parallel_trials) as pool:
            results = list(pool.map(run_block, range(n_blocks)))
    else:
        results = [run_block(b) for b in range(n_blocks)]

    transmitted = sum(r[0] for r in results)
    tunneled = sum(r[1] for r in results)
    reflected = spec.trials - transmitted - tunneled
    p_hat = (transmitted + tunneled) / spec.trials
    gap_fraction = width_narrowed / width
    # the triangle-wave image of a uniform phase is uniform on [0, w], so a
    # trial lands in the gap with probability exactly w'/w
    expected = gap_fraction if above_cutoff else gap_fraction * p_tunnel
    variance = expected * (1.0 - expected) / spec.trials
    return MonteCarloReport(
        transmitted=transmitted,
        reflected=reflected,
        tunneled=tunneled,
        transmission_fraction=p_hat,
        standard_error=math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / spec.trials),
        geometric_gap_fraction=gap_fraction,
        expected_fraction=expected,
        z_score=(p_hat - expected) / math.sqrt(variance) if variance > 0.0 else None,
        linear_transmission=linear_barrier_transmission(spec, k),
        trials=spec.trials,
        seed=spec.seed,
        model={
            "hidden_phase": "uniform on [0, 1) per trial (assumption: no ensemble is specified)",
            "transverse_position": "triangle-wave image of the phase across [0, w]",
            "shifted_cutoff_hz": f0_shifted,
            "guide_width_m": width,
            "narrowed_width_m": width_narrowed,
            "gap_m": [gap_lo, gap_hi],
            "gap_offset_m": spec.gap_offset,
            "wave_frequency_hz": f_wave,
            "above_cutoff": above_cutoff,
            "evanescent_kappa_per_m": kappa,
            "tunnel_probability": p_tunnel,
            "rng": "philox counter stream, 2 draws per trial",
        },
    )


# ---------------------------------------------------------------------------
# linear-equation transmission oracle
# ---------------------------------------------------------------------------

def _interface_matrix(k_from: complex, k_to: complex, z0: float) -> np.ndarray:
    """2x2 transfer matrix matching psi, psi' across a potential step."""
    ratio = k_from / k_to
    return 0.5 * np.array([
        [(1.0 + ratio) * np.exp(1j * (k_from - k_to) * z0),
         (1.0 - ratio) * np.exp(-1j * (k_from + k_to) * z0)],
        [(1.0 - ratio) * np.exp(1j * (k_from + k_to) * z0),
         (1.0 + ratio) * np.exp(-1j * (k_from - k_to) * z0)],
    ])


def rectangular_barrier_transmission(energy: float, height: float, length: float,
                                     mass: float = 1.0, hbar: float = 1.0) -> float:
    """Transmission coefficient through a rectangular barrier, any units.

    Transfer-matrix construction; the interior wavenumber continues to an
    imaginary value below the barrier top, which the complex matrices
    handle without a branch.  The marginal case E = V0 (degenerate
    interior basis) uses the analytic limit.
    """
    if energy <= 0.0:
        raise DomainError("incident energy must be positive")
    if height < 0.0 or length < 0.0:
        raise DomainError("height and length must be non-negative")
    if length == 0.0 or height == 0.0:
        return 1.0
    k1 = math.sqrt(2.0 * mass * energy) / hbar
    k2_sq = 2.0 * mass * (energy - height) / hbar**2
    if abs(k2_sq) * length**2 < 1e-16:
        # degenerate interior (linear solutions): analytic limit of the
        # matrix product as k2 -> 0
        return 1.0 / (1.0 + mass * height**2 * length**2 / (2.0 * energy * hbar**2))
    k2 = np.sqrt(complex(k2_sq))
    with np.errstate(over="ignore", invalid="ignore"):
        m_total = _interface_matrix(k2, k1, length) @ _interface_matrix(k1, k2, 0.0)
        m22 = m_total[1, 1]
        denom = abs(m22) ** 2
    if not math.isfinite(denom):
        return 0.0  # opaque barrier: interior growth overflowed
    return 1.0 / denom


def linear_barrier_transmission(spec: BarrierSpec,
                                constants: PhysicalConstants | None = None) -> float:
    """Transfer-matrix transmission for the spec's barrier, electron SI units."""
    k = constants or electron_constants()
    return rectangular_barrier_transmission(
        spec.energy, spec.height, spec.length, mass=k.m0, hbar=k.hbar)


# ---------------------------------------------------------------------------
# planetary-orbit quantization chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BohrOrbit:
    """Classical circular orbit quantized by angular momentum = N hbar."""

    N: int
    radius: float
    velocity: float
    period: float
    angular_momentum: float
    energy: float
    orbit_length: float
    de_broglie_wavelength: float


def bohr_orbit(N: int, constants: PhysicalConstants | None = None) -> BohrOrbit:
    """Solve m v^2 r = e2 and m v r = N hbar for the N-th circular orbit.

    Nonrelativistic construction; the velocity stays below 0.01 c for
    hydrogen, and a warning is emitted if a parameter choice pushes it
    above that regime.
    """
    if N < 1 or int(N) != N:
        raise DomainError(f"quantum number must be a positive integer, got {N}")
    k = constants or electron_constants()
    velocity = k.e2_coulomb / (N * k.hbar)
    if velocity >= k.c:
        raise DomainError(f"orbit velocity {velocity:.3e} is not below c")
    if velocity > 0.01 * k.c:
        warnings.warn(
            f"orbit velocity {velocity / k.c:.4f} c exceeds the nonrelativistic regime",
            stacklevel=2,
        )
    radius = N**2 * k.hbar**2 / (k.m0 * k.e2_coulomb)
    period = 2.0 * math.pi * radius / velocity
    return BohrOrbit(
        N=int(N),
        radius=radius,
        velocity=velocity,
        period=period,
        angular_momentum=k.m0 * velocity * radius,
        energy=-0.5 * k.m0 * velocity**2,
        orbit_length=2.0 * math.pi * radius,
        de_broglie_wavelength=k.h / (k.m0 * velocity),
    )


@dataclass(frozen=True)
class PhaseAccordance:
    """Extra-arc time and quantization residuals for the N-th orbit.

    ``phase_quanta`` is the clock-cycle count over the extra arc,
    f_clock * tau.  ``quantization_residual`` compares it against its
    exact relativistic value N / gamma_recip (pure algebra; roundoff
    sized).  ``nonrelativistic_gap`` compares it against the integer N
    itself; the orbit inputs being nonrelativistic leaves a genuine
    O(alpha^2 / N) gap, which is reported, not hidden.
    """

    N: int
    tau: float
    phase_quanta: float
    quantization_residual: float
    nonrelativistic_gap: float
    max_phase_mismatch: float


def phase_accordance_mismatch(state: KinematicState, z: np.ndarray) -> float:
    """Max relative mismatch between wave and clock phases along the path.

    At the moment the particle reaches z (t = z/v), the wave phase
    f_wave (t - z / v_phase) must equal the clock phase f_clock z / v.
    """
    if state.v <= 0.0 or state.v_phase is None:
        raise DomainError("phase accordance needs a moving state")
    z = np.asarray(z, dtype=float)
    t = z / state.v
    phase_wave = state.f_wave * (t - z / state.v_phase)
    phase_clock = state.f_clock * t
    scale = np.maximum(np.abs(phase_clock), 1e-300)
    return float(np.max(np.abs(phase_wave - phase_clock) / scale))


def bohr_phase_accordance(N: int,
                          constants: PhysicalConstants | None = None) -> PhaseAccordance:
    """Extra-arc time tau = v^2/(c^2 - v^2) T and the quantization check.

    Substituting tau into the cycle count f_clock tau collapses, given
    the orbit construction, to N / gamma_recip exactly; the residual
    against that value validates the transcription, while the gap
    against N itself measures the nonrelativistic approximation.
    """
    k = constants or electron_constants()
    orbit = bohr_orbit(N, k)
    state = kinematic_state(orbit.velocity, constants=k)
    tau = orbit.velocity**2 / (k.c**2 - orbit.velocity**2) * orbit.period
    phase_quanta = state.f_clock * tau
    z_samples = np.linspace(orbit.orbit_length / 100.0, orbit.orbit_length, 100)
    return PhaseAccordance(
        N=N,
        tau=tau,
        phase_quanta=phase_quanta,
        quantization_residual=phase_quanta - N / state.gamma_recip,
        nonrelativistic_gap=phase_quanta - N,
        max_phase_mismatch=phase_accordance_mismatch(state, z_samples),
    )


# ---------------------------------------------------------------------------
# photon frequency relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonRelations:
    """Guided-photon bounce frequency and its energy: f0^2 / f and h f0^2 / f."""

    f_zigzag: float
    E_zigzag: float


def photon_relations(f: float, f0: float,
                     constants: PhysicalConstants | None = None) -> PhotonRelations:
    """Pure calculator: f_zigzag = f0^2 / f, E_zigzag = h f0^2 / f."""
    if f <= 0.0 or f0 <= 0.0:
        raise DomainError("frequencies must be positive")
    k = constants or electron_constants()
    f_zz = f0 * f0 / f
    return PhotonRelations(f_zigzag=f_zz, E_zigzag=k.h * f_zz)
