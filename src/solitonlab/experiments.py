"""Headline numerical experiments built on the solver stack.

* the dispersion/soliton dichotomy: one sech packet through the linear,
  cubic, and curvature-cancelled solvers, with a width-ratio verdict;
* the hidden-phase barrier Monte Carlo: a uniform bounce phase decides
  reflection vs transmission at a guide narrowing, with an analytic
  transfer-matrix transmission as the linear-equation comparator;
* the planetary-orbit quantization chain and its phase-accordance law;
* the frequency-converter relations for a guided photon mode.

Monte Carlo trial i takes a 53-bit phase integer m, u = m 2^-53: its top
32 bits are 32-bit word i of PCG64 stream 0 (two words per draw), its low
21 bits the top of draw i of stream 2, drawn only for the few words the
top bits leave undecided; draw i of stream 1 is its tunnel coin (below
cutoff only).  Each worker advances its streams to its first trial, so
reports are bit-identical regardless of execution order, worker count or
buffer size.  The gap is turned once per spec into exact intervals of
u, so a trial is counted with plain integer compares, giving the same
counts as evaluating its transverse position trial by trial.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from .dispersion import evanescent_kappa
from .errors import ConfigurationError, DomainError, NumericalError
from .grid import (ComplexField, Grid1D, PacketKind, PacketSpec, build_packet,
                   real_spectral_derivative)
from .kinematics import KinematicState, electron_constants, kinematic_state
from .madelung import (MadelungField, _extract_linear_slope, dispersionless_initial,
                       evolve_dispersionless)
from .report import RunReport
from .solvers import (
    MAX_POTENTIAL_PHASE_PER_STEP,
    ORDERS,
    Scheme,
    SolverConfig,
    evolve_linear_schrodinger,
    evolve_nls,
    require_nonlinear_phase,
)

#: a trial's phase is u = m 2^-53 for an integer m in [0, 2^53), the
#: resolution of Generator.random
_UNIFORM_BITS = 53
#: low bits of m below its 32-bit word W: m = (W << _LOW_BITS) | L
_LOW_BITS = _UNIFORM_BITS - 32
#: trials per buffer fill of a Monte Carlo worker: sets the buffer size and
#: the split into worker chunks, never a result.  It must be even: a chunk
#: starts at a whole draw of stream 0, which holds two trials' words
_TRIALS_PER_BLOCK = 1 << 16
#: most Monte Carlo workers; fixed, not the machine's CPU count, so that
#: whether a worker count is accepted does not depend on the machine
MAX_PARALLEL_TRIALS = 64
#: most Monte Carlo trials in one run: about 25 s on one worker at the
#: 2.5 ns per trial measured on a 2-CPU Xeon
MAX_TRIALS = 10**10

#: width-ratio bands for the dichotomy verdicts
DISPERSED_MIN_RATIO = 3.0
SOLITON_BAND = 0.01
TRANSPORT_BAND = 0.001
#: each dichotomy leg steps at the largest multiple m dt of the settings'
#: dt that keeps its own error at the equal-error level (see _strided).  The free linear leg has no potential, so its split step is
#: exact at any step (Hochbruck & Ostermann 2010, Acta Numerica 19:209)
#: and it steps at the record cadence.  The transport leg's step is set by
#: its Courant number dt max|S_z| / dz <= TRANSPORT_COURANT (Courant,
#: Friedrichs & Lewy 1928, Math. Ann. 100:32).  Transport equal-error
#: table, max|R - R0(z - vt)| of a sech a=1, centre -5 at t=10, dz = 0.1,
#: by Courant number dt v / dz:
#:     grid     v    0.01      0.1       0.2
#:     n=512    1    1.2e-8    2.3e-8    3.6e-7
#:     n=1024   1    2.3e-8    2.5e-8    3.6e-7
#:     n=1024   3    4.3e-8    6.8e-8    1.1e-6
#: up to Courant 0.1 the error stays within 2x of the spatial floor, while
#: the fixed dt 1e-2 of a v=1 table reads 5.5e-6 at v=3 (Courant 0.3);
#: the width drifts 1e-11 or less and the density by roundoff at every
#: step.  Without a potential S_z is constant along characteristics, so
#: the initial max|S_z| bounds the run, and a packet at rest steps at the
#: record cadence.
TRANSPORT_COURANT = 0.1
#: largest step of the dichotomy's fourth-order cubic leg.  Its stride m
#: also keeps its largest sub-step phase 2 |w0| a^2 m dt within
#: MAX_POTENTIAL_PHASE_PER_STEP.  Cubic equal-error table, L2 error against
#: the stationary breather of amplitude a at t=10, n=1024, z in +-51.2,
#: each order-4 run at its derived stride (m, FFT pairs), for Suzuki's
#: five-stage composition and the Yoshida three-stage one it replaced
#: (under a 1e-2 cap, its |w0| about 1.702):
#:     a     Strang, dt 1e-3   Suzuki                   Yoshida
#:     1     1.02e-5           5.09e-7 (25, 2 000)      9.25e-7 (10, 3 000)
#:     1.1   1.87e-5           1.36e-6 (25, 2 000)      2.47e-6 (10, 3 000)
#:     1.5   1.41e-4           3.58e-5 (25, 2 000)      6.44e-5 (10, 3 000)
#:     2     9.10e-4           1.86e-5 (10, 5 000)      8.23e-5 (5, 6 000)
#:     3     1.27e-2           8.19e-5 (5, 10 000)      1.49e-4 (2, 15 000)
#: a cap of 5e-2 is not equal-error (8.62e-6 at a=1); without the phase
#: bound, Yoshida at a=3 and m=10 reads 1.0e-1, with its width ratio off by 8%
CUBIC_MAX_DT = 2.5e-2


# ---------------------------------------------------------------------------
# dispersion vs soliton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomySettings:
    """Resolution settings for the three-way width comparison.

    ``scale`` defaults to the amplitude (the cubic equation's
    amplitude-width locking); setting it separately builds a deliberate
    non-soliton as a negative control.  The three runs stride one base
    SolverConfig, so t_final must be a positive multiple of dt; that config
    and the cubic leg's nonlinear phase (require_nonlinear_phase) are
    checked at construction.  ``dt`` is the unit of the record cadence and the
    cubic leg's base step; every leg's step is derived from the settings
    (see legs), not a field.
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
        self.solver_config()
        require_nonlinear_phase(self.initial_field(), self.cubic_config())

    @property
    def sech_scale(self) -> float:
        return self.amplitude if self.scale is None else self.scale

    def grid(self) -> Grid1D:
        return Grid1D(self.n, self.z_min, self.z_max)

    def solver_config(self) -> SolverConfig:
        """The shared base config at dt; each leg strides it (see legs)."""
        return SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=self.dt,
                            t_final=self.t_final, observe_every=self.observe_every)

    def cubic_config(self) -> SolverConfig:
        """The cubic run's config: the base on the stride of _strided, with
        m dt <= CUBIC_MAX_DT, whose bound also keeps the largest sub-step
        phase 2 |w0| amplitude^2 m dt of Suzuki's composition (|w0| about
        0.658) within MAX_POTENTIAL_PHASE_PER_STEP.

        The leg stays at order 4 although ORDERS has 6: order 6's nine
        sub-steps make more FFT pairs at its own phase-bound stride under
        the CUBIC_MAX_DT cap at every amplitude (3 600 against 2 000 at 1
        and 1.5, 18 000 against 10 000 at 3).  A coarser cap does not
        restore equal error: order 6 at m dt = 5e-2 makes 1 800 pairs but
        reads an L2 error of 6.04e-7 at amplitude 1 and 2.94e-6 at 1.1,
        against 5.09e-7 and 1.36e-6 for this leg."""
        widest_phase = max(abs(w) for w in ORDERS[4])
        max_dt = min(CUBIC_MAX_DT,
                     MAX_POTENTIAL_PHASE_PER_STEP / (2.0 * widest_phase * self.amplitude**2))
        return _strided(self.solver_config(), Scheme.NLS, max_dt)

    def transport_initial(self) -> MadelungField:
        """The transport leg's polar initial state: the sech envelope at rest."""
        return dispersionless_initial(self.grid(), self.amplitude, self.sech_scale)

    def legs(self) -> dict[str, SolverConfig]:
        """Each leg's config: the base on the largest stride m its own
        error rule allows (see _strided), so all three record at the
        base's times.
        - linear: no potential, so its step is exact and takes no cap:
          one step per record when observe_every divides the step count.
        - nls: cubic_config, Strang at dt when m = 1.
        - transport: m dt max|S_z| <= TRANSPORT_COURANT dz
          (transport_max_dt); the dichotomy's packet is at rest, so no
          cap either.
        """
        base = self.solver_config()
        return {"linear": _strided(base, Scheme.LINEAR_SCHRODINGER, math.inf),
                "nls": self.cubic_config(),
                "transport": _strided(base, Scheme.DISPERSIONLESS_TRANSPORT,
                                      transport_max_dt(self.transport_initial()))}

    def initial_field(self) -> ComplexField:
        """The sech packet all three schemes start from."""
        packet = PacketSpec(kind=PacketKind.SECH_BREATHER, amplitude=self.amplitude,
                            scale=self.sech_scale)
        return build_packet(packet, self.grid())


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
            "settings": {**asdict(self.settings), "scale": self.settings.sech_scale},
            "series": {"t": self.times.tolist(),
                       **{k: v.tolist() for k, v in self.widths.items()}},
            "width_ratios": self.ratios,
            "verdicts": self.verdicts,
        }


def transport_max_dt(initial: MadelungField) -> float:
    """The transport's largest step at Courant number TRANSPORT_COURANT,
    TRANSPORT_COURANT dz / max|S_z|, and inf for a state at rest.

    S_z is the velocity the solver's CFL guard reads, the action slope
    plus the spectral derivative of the periodic remainder.  Without a
    potential it is constant along characteristics, so its initial maximum
    holds for the whole run."""
    slope, remainder = _extract_linear_slope(initial)
    speed = float(np.max(np.abs(slope + real_spectral_derivative(remainder, initial.grid))))
    return math.inf if speed == 0.0 else TRANSPORT_COURANT * initial.grid.dz / speed


def _strided(base: SolverConfig, scheme: Scheme, max_dt: float) -> SolverConfig:
    """base for scheme on a step of m dt, recording at base's times.

    m is the largest divisor of both observe_every and the step count with
    m dt <= max_dt (compared with step_count's relative tolerance), and 1
    when none fits; an unbounded max_dt (inf) takes their greatest common
    divisor.  On m > 1 the cubic scheme steps at fourth order; on m = 1
    every scheme keeps base's step and order.
    """
    common = math.gcd(base.observe_every, base.n_steps())
    limit = max_dt * (1.0 + 1e-6) / base.dt
    widest = common if limit >= common else int(limit)
    stride = next((m for m in range(widest, 1, -1) if common % m == 0), 1)
    if stride == 1:
        return replace(base, scheme=scheme)
    return replace(base, scheme=scheme, dt=stride * base.dt,
                   observe_every=base.observe_every // stride,
                   order=4 if scheme is Scheme.NLS else 2)


def run_dispersion_vs_soliton(settings: DichotomySettings | None = None) -> DichotomyReport:
    """Evolve one sech packet under all three schemes and compare widths.

    The same initial data spreads monotonically under the linear solver,
    holds its width under the cubic solver (amplitude-width locking), and
    is transported rigidly by the curvature-cancelled solver.  Each leg
    steps at its own multiple of ``settings.dt``, the largest its error
    rule allows (see DichotomySettings.legs), so all three record at
    exactly the same times.  DichotomySettings already rejected a cubic
    leg at m = 1 whose phase 2 amplitude^2 dt exceeds
    MAX_POTENTIAL_PHASE_PER_STEP.
    """
    s = settings or DichotomySettings()
    psi0 = s.initial_field()
    legs = s.legs()
    lin = evolve_linear_schrodinger(psi0, legs["linear"])
    nls = evolve_nls(psi0, legs["nls"])
    transport = evolve_dispersionless(s.transport_initial(), legs["transport"])

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
    (default centered); construction checks that the gap fits (geometry).
    """

    height: float
    length: float
    energy: float
    trials: int
    seed: int
    gap_offset: float = 0.0

    def __post_init__(self):
        for name in ("height", "length", "energy", "gap_offset"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.height <= 0.0 or self.length <= 0.0 or self.energy <= 0.0:
            raise ConfigurationError("height, length and energy must be positive")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.trials > MAX_TRIALS:
            raise ConfigurationError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        self.geometry()

    def geometry(self) -> tuple[float, ...]:
        """(shifted cutoff f0', guide width w, narrowed width w', gap_lo, gap_hi);
        ConfigurationError when the gap does not fit inside the guide."""
        k = electron_constants()
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
        return {"experiment": "barrier", **asdict(self)}


def _stream(seed: int, index: int, first: int) -> np.random.Generator:
    """Monte Carlo stream `index` (child `index` of SeedSequence(seed).spawn(3))
    positioned at its draw `first`: PCG64's advance jumps there exactly."""
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
    bitgen.advance(first)
    return np.random.Generator(bitgen)


def _gap_intervals(width: float, gap_lo: float, gap_hi: float) -> list[tuple[float, float]]:
    """Closed intervals [lo, hi] of the draw u that land the trial in the gap.

    A draw u = m 2^-53 gives the transverse position width (1 - |1 - 2u|).
    Each float operation there is correctly rounded and monotone, so the
    position does not decrease for m <= 2^52 (u <= 1/2) and does not
    increase above it.  The m with gap_lo <= position <= gap_hi are
    therefore one interval [a, b] (possibly empty) on each half; bisection
    finds its ends with the same float expression, and [a 2^-53, b 2^-53]
    holds exactly the draws of those m.
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
    return [(a * 2.0**-_UNIFORM_BITS, b * 2.0**-_UNIFORM_BITS)
            for a, b in (rising, falling) if a <= b]


def _count_chunk(seed: int, first: int, stop: int, gaps: list[tuple[float, float]],
                 p_tunnel: float | None) -> int:
    """Trials in [first, stop) whose phase u = m 2^-53 lies in one of the
    disjoint closed intervals `gaps` and, unless p_tunnel is None (above
    cutoff), whose coin draw is below p_tunnel; `first` must be even.

    Trial i's m is (W_i << 21) | L_i (see run_barrier_monte_carlo).  The
    position depends on m only through |m - 2^52|, so m and 2^53 - m land
    alike, and gaps[0], the interval [a, b] of m <= 2^52, decides every
    trial.  Folding the word to f = min(W, ~W) maps trial i to an m' =
    min(m, 2^53 - m) in [f 2^21, (f + 1) 2^21]: the cells f strictly
    between a >> 21 and (b >> 21) - 1 lie inside [a, b], those below and
    above the candidate cells (each end's cell, the one below it and cell
    0) outside.  Only a trial in a candidate cell draws its L and takes the
    float test.  The generators and buffers are made once per chunk; each
    block draws its words afresh.
    """
    if not gaps:
        return 0
    a, b = (int(u * 2.0**_UNIFORM_BITS) for u in gaps[0])
    low = a >> _LOW_BITS  # the cell of a
    high = (min(b, 1 << (_UNIFORM_BITS - 1)) >> _LOW_BITS) - 1  # the cell below b's
    inside = max(high - low - 1, 0)  # cells low + 1 .. high - 1
    # the candidate cells after both shifts below, which leave f - high
    edges = [(c - high) % 2**32 for c in (0, low - 1, low, high, high + 1) if c >= 0]
    size = min(_TRIALS_PER_BLOCK, stop - first)
    folded, hit = np.empty(size, dtype=np.uint32), np.empty(size, dtype=bool)
    phase = _stream(seed, 0, first // 2).bit_generator
    coin = None if p_tunnel is None else _stream(seed, 1, first)
    if coin is not None:
        coins, tunnels = np.empty(size), np.empty(size, dtype=bool)
    total = 0
    for start in range(first, stop, size):
        n = min(size, stop - start)
        f, h = folded[:n], hit[:n]
        # two words per draw, low half first whatever the machine's byte order
        w = phase.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]
        np.invert(w, out=f)
        np.minimum(w, f, out=f)
        near = f.min() == 0  # cell 0
        np.subtract(f, low + 1, out=f)  # inside -> [0, inside); cells low - 1, low -> the top two
        np.less(f, inside, out=h)
        if coin is not None:
            coin.random(out=coins[:n])
            np.less(coins[:n], p_tunnel, out=tunnels[:n])
            h &= tunnels[:n]
        total += int(np.count_nonzero(h))
        near |= f.max() >= 2**32 - 2
        np.subtract(f, (high - low - 1) % 2**32, out=f)  # f - high: cells high, high + 1 -> 0, 1
        if near or f.min() <= 1:
            edge = np.isin(f, edges)
            if coin is not None:
                edge &= tunnels[:n]
            for j in np.flatnonzero(edge).tolist():  # PCG64.advance fails on numpy ints
                low_bits = int(_stream(seed, 2, start + j).bit_generator.random_raw()) >> (
                    64 - _LOW_BITS)
                u = ((int(w[j]) << _LOW_BITS) | low_bits) * 2.0**-_UNIFORM_BITS
                total += any(lo <= u <= hi for lo, hi in gaps)
        del w  # free this block's draws before the next block's are made
    return total


def run_barrier_monte_carlo(spec: BarrierSpec, *, parallel_trials: int = 1) -> MonteCarloReport:
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

    Trial i's phase is u = m 2^-53 with m = (W_i << 21) | L_i: W_i is
    32-bit word i of stream 0, whose draw j holds W_2j in its low half and
    W_2j+1 in its high half, and L_i the top 21 bits of draw i of stream 2,
    drawn only when W_i lies in a cell next to an end of the gap (at most
    10 words in 2^32).
    Draw i of stream 1 is its coin, drawn below cutoff only; see
    ``_stream``.  The trials split into at most ``parallel_trials``
    contiguous chunks of whole _TRIALS_PER_BLOCK blocks, each with its own
    generators and buffers, so no count depends on the worker count or the
    block size.  The gap is at most two exact intervals of u
    (``_gap_intervals``), so the compares give the counts of the float
    formulation on u; the coin is u < p.
    """
    if not 1 <= parallel_trials <= MAX_PARALLEL_TRIALS:
        raise ConfigurationError(f"parallel_trials must be between 1 and "
                                 f"{MAX_PARALLEL_TRIALS}, got {parallel_trials}")
    k = electron_constants()
    f0_shifted, width, width_narrowed, gap_lo, gap_hi = spec.geometry()
    f_wave = (k.rest_energy + spec.energy) / k.h
    above_cutoff = f_wave >= f0_shifted
    p_tunnel = 0.0
    kappa = 0.0
    if not above_cutoff:
        kappa = evanescent_kappa(f_wave, f0_shifted, c=k.c)
        p_tunnel = math.exp(-2.0 * kappa * spec.length)

    gaps = _gap_intervals(width, gap_lo, gap_hi)
    coin_p = None if above_cutoff else p_tunnel

    def count(first: int, stop: int) -> int:
        return _count_chunk(spec.seed, first, stop, gaps, coin_p)

    n_blocks = -(-spec.trials // _TRIALS_PER_BLOCK)
    workers = min(parallel_trials, n_blocks)
    bounds = [min(spec.trials, n_blocks * w // workers * _TRIALS_PER_BLOCK)
              for w in range(workers + 1)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            crossed = sum(pool.map(count, bounds[:-1], bounds[1:]))
    else:
        crossed = count(0, spec.trials)

    transmitted, tunneled = (crossed, 0) if above_cutoff else (0, crossed)
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
        linear_transmission=linear_barrier_transmission(spec),
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
            "rng": "PCG64 streams 0, 1 and 2 of SeedSequence(seed).spawn(3): trial i's "
                   "phase is m 2^-53, m = (W << 21) | L, W its 32-bit half-word i of stream "
                   "0 (low half of each draw first), L the top 21 bits of draw i of stream 2, "
                   "drawn only where W lies next to an end of the gap; its tunnel coin is "
                   "draw i of stream 1, below cutoff only",
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
    # products, not float powers: a product overflows to inf, a power raises
    if abs(k2_sq) * length * length < 1e-16:
        # degenerate interior (linear solutions): analytic limit of the
        # matrix product as k2 -> 0
        hl = height * length
        return 1.0 / (1.0 + mass * hl * hl / (2.0 * energy * hbar**2))
    k2 = np.sqrt(complex(k2_sq))
    with np.errstate(over="ignore", invalid="ignore"):
        m_total = _interface_matrix(k2, k1, length) @ _interface_matrix(k1, k2, 0.0)
        m22 = m_total[1, 1]
        denom = abs(m22) ** 2
    if not math.isfinite(denom):
        if k2_sq > 0.0:
            raise NumericalError(f"the interior phase k L overflows at length {length:.3g}")
        return 0.0  # opaque barrier: interior growth overflowed
    return 1.0 / denom


def linear_barrier_transmission(spec: BarrierSpec) -> float:
    """Transfer-matrix transmission for the spec's barrier, electron SI units."""
    k = electron_constants()
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


def bohr_orbit(N: int) -> BohrOrbit:
    """Solve m v^2 r = e2 and m v r = N hbar for hydrogen's N-th circular orbit.

    Nonrelativistic construction: the velocity is v = alpha c / N, at
    most 0.0073 c (N = 1), so it never approaches c.
    """
    if N < 1 or int(N) != N:
        raise DomainError(f"quantum number must be a positive integer, got {N}")
    k = electron_constants()
    velocity = k.e2_coulomb / (N * k.hbar)
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


def bohr_phase_accordance(N: int) -> PhaseAccordance:
    """Extra-arc time tau = v^2/(c^2 - v^2) T and the quantization check.

    Substituting tau into the cycle count f_clock tau collapses, given
    the orbit construction, to N / gamma_recip exactly; the residual
    against that value validates the transcription, while the gap
    against N itself measures the nonrelativistic approximation.
    """
    k = electron_constants()
    orbit = bohr_orbit(N)
    state = kinematic_state(orbit.velocity)
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


def photon_relations(f: float, f0: float) -> PhotonRelations:
    """Pure calculator: f_zigzag = f0^2 / f, E_zigzag = h f0^2 / f."""
    if f <= 0.0 or f0 <= 0.0:
        raise DomainError("frequencies must be positive")
    k = electron_constants()
    f_zz = f0 * f0 / f
    return PhotonRelations(f_zigzag=f_zz, E_zigzag=k.h * f_zz)
