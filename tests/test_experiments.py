import json
import math
from dataclasses import replace

import numpy as np
import pytest

from solitonlab import (
    BarrierSpec,
    ConfigurationError,
    DichotomySettings,
    DomainError,
    Grid1D,
    Scheme,
    SolverConfig,
    bohr_orbit,
    bohr_phase_accordance,
    dispersionless_initial,
    electron_constants,
    evolve_dispersionless,
    evolve_linear_schrodinger,
    evolve_nls,
    kinematic_state,
    linear_barrier_transmission,
    nls_breather_exact,
    phase_accordance_mismatch,
    photon_relations,
    rectangular_barrier_transmission,
    run_barrier_monte_carlo,
    run_dispersion_vs_soliton,
)
from solitonlab import experiments
from solitonlab.experiments import (
    CUBIC_MAX_DT,
    MAX_TRIALS,
    TRANSPORT_COURANT,
    _count_chunk,
    _gap_intervals,
    _strided,
    transport_max_dt,
)
from solitonlab.solvers import MAX_POTENTIAL_PHASE_PER_STEP, ORDERS

K = electron_constants()
FINE_STRUCTURE = K.e2_coulomb / (K.hbar * K.c)

# frozen constants-based oracles (standard first-orbit values)
BOHR_RADIUS_M = 5.29177210903e-11
BOHR_ENERGY_EV = -13.605693


# ---------------------------------------------------------------------------
# dispersion vs soliton
# ---------------------------------------------------------------------------

class TestDichotomy:
    def test_short_run_orders_schemes(self):
        # reduced t_final keeps the unit test quick; the full acceptance
        # settings run in test_acceptance
        settings = DichotomySettings(n=512, z_min=-25.6, z_max=25.6, t_final=2.0)
        result = run_dispersion_vs_soliton(settings)
        assert result.ratios["linear"] > 1.5
        assert abs(result.ratios["nls"] - 1.0) <= 0.01
        assert abs(result.ratios["transport"] - 1.0) <= 0.001
        assert result.verdicts["nls"] == "shape-preserved"
        assert result.verdicts["transport"] == "shape-preserved"

    def test_mismatched_amplitude_is_not_a_soliton(self):
        # amplitude 2 on a width-1 profile breaks the amplitude-width
        # locking; the envelope starts breathing immediately
        settings = DichotomySettings(n=512, z_min=-25.6, z_max=25.6,
                                     amplitude=2.0, scale=1.0, t_final=0.35,
                                     observe_every=50)
        result = run_dispersion_vs_soliton(settings)
        assert not 0.99 <= result.ratios["nls"] <= 1.01
        assert result.verdicts["nls"].startswith("not a soliton")

    @pytest.mark.parametrize("kwargs, match", [
        ({"observe_every": -1}, "observe_every"),
        ({"t_final": 0.0105}, "integer multiple"),
        ({"dt": 0.0}, "dt"),
        ({"t_final": 0.0}, "t_final must be positive"),
        # the cubic leg at stride 1 is Strang at dt: phase 2 a^2 dt = 0.18
        ({"amplitude": 3.0, "dt": 0.01}, "nonlinear phase"),
    ])
    def test_settings_checked_at_construction(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            DichotomySettings(**kwargs)

    def test_transport_echo_reproduces_its_run(self):
        # the run-2 config block, as written, rebuilds the transport's
        # SolverConfig; the envelope comes from the dichotomy's settings
        result = run_dispersion_vs_soliton(DichotomySettings(t_final=0.05))
        transport = result.runs["transport"]
        echo = json.loads(json.dumps(transport.summary_dict()))["config"]
        assert echo["potential"] == "zero"
        assert "omega0" not in echo and "c" not in echo  # Klein-Gordon keys only
        config = SolverConfig(scheme=Scheme(echo["scheme"]), **{
            key: echo[key] for key in ("dt", "t_final", "snapshot_every", "observe_every",
                                       "potential_slope")})
        grid = Grid1D(echo["grid"]["n"], echo["grid"]["z_min"], echo["grid"]["z_max"])
        settings = result.to_dict()["settings"]
        rerun = evolve_dispersionless(
            dispersionless_initial(grid, settings["amplitude"], settings["scale"]), config)
        assert np.array_equal(rerun.times, transport.times)
        assert rerun.observables.keys() == transport.observables.keys()
        for key, series in transport.observables.items():
            assert np.array_equal(rerun.observable(key), series), key
        assert rerun.conservation == transport.conservation

    def test_settings_echo_rebuilds_its_run(self):
        settings = DichotomySettings(n=512, z_min=-25.6, z_max=25.6, t_final=0.5,
                                     observe_every=25)
        result = run_dispersion_vs_soliton(settings)
        echo = json.loads(json.dumps(result.to_dict()))["settings"]
        rerun = run_dispersion_vs_soliton(DichotomySettings(**echo))
        assert np.array_equal(rerun.times, result.times)
        for key, series in result.widths.items():
            assert np.array_equal(rerun.widths[key], series), key

    @pytest.mark.parametrize("dt, observe_every, t_final, cubic_stride", [
        (1e-3, 100, 1.0, 25),   # the shipped cadence: cubic steps of 2.5e-2
        (1e-3, 7, 0.7, 7),      # the largest divisor of 7 under the cubic cap
        (1e-3, 7, 0.5, 1),      # cadence coprime to the 500 steps
        (1e-3, 0, 0.5, 25),     # ends only: any divisor of the step count
        (1e-3, 100, 0.05, 25),  # fewer steps than the cadence
        (0.02, 5, 1.0, 1),      # dt already above the cubic cap
    ], ids=["0.001-100-1.0", "0.001-7-0.7", "0.001-7-0.5", "0.001-0-0.5", "0.001-100-0.05",
            "0.02-5-1.0"])  # the inputs only: a new cubic cap renames no case
    def test_transport_step_derived_from_settings(self, dt, observe_every, t_final,
                                                  cubic_stride):
        # the packet is at rest, so the Courant rule sets the transport no
        # cap: it strides like the free linear leg, by the greatest common
        # divisor of the cadence and the step count, while the cubic leg
        # keeps m dt <= CUBIC_MAX_DT
        settings = DichotomySettings(n=512, z_min=-25.6, z_max=25.6, dt=dt,
                                     observe_every=observe_every, t_final=t_final)
        assert transport_max_dt(settings.transport_initial()) == math.inf
        result = run_dispersion_vs_soliton(settings)
        stride = math.gcd(observe_every, round(t_final / dt))
        lin = result.runs["linear"]
        for name, m in (("linear", stride), ("transport", stride), ("nls", cubic_stride)):
            leg = result.runs[name]
            assert leg.config["dt"] == pytest.approx(m * dt, rel=1e-12), name
            assert leg.config["observe_every"] == observe_every // m, name
            assert len(leg.times) == len(lin.times)
            np.testing.assert_allclose(leg.times, lin.times, rtol=1e-12, atol=0.0)
        assert result.ratios["transport"] == 1.0

    @pytest.mark.parametrize("velocity, base_dt", [(1.0, 1e-3), (3.0, 1.0 / 3000.0)])
    def test_transport_courant_step_keeps_equal_error(self, velocity, base_dt):
        # dt max|S_z| <= TRANSPORT_COURANT dz gives 1e-2 at v = 1 and 1/300
        # at v = 3 (errors 2.5e-8 and 6.8e-8); a fixed 1e-2 reads 5.5e-6 at v = 3
        grid = Grid1D(1024, -51.2, 51.2)
        initial = dispersionless_initial(grid, velocity=velocity, center=-5.0)
        base = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=base_dt, t_final=10.0,
                            observe_every=100)
        config = _strided(base, Scheme.DISPERSIONLESS_TRANSPORT, transport_max_dt(initial))
        assert config.dt == pytest.approx(TRANSPORT_COURANT * grid.dz / velocity, rel=1e-12)
        assert config.observe_every == 10
        rep = evolve_dispersionless(initial, config)
        r_expected = 1.0 / np.cosh(grid.z + 5.0 - velocity * 10.0)
        assert np.max(np.abs(np.abs(rep.final_field().values) - r_expected)) <= 1e-7

    def test_linear_leg_matches_the_fine_step_run(self):
        # the free linear step is exact, so one step per record gives the
        # dt = 1e-3 run's widths and final field to roundoff
        settings = DichotomySettings()
        lin = run_dispersion_vs_soliton(settings).runs["linear"]
        assert (lin.config["dt"], lin.config["observe_every"]) == (0.1, 1)
        fine = evolve_linear_schrodinger(settings.initial_field(), settings.solver_config())
        np.testing.assert_allclose(lin.times, fine.times, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(lin.observable("rms_width"), fine.observable("rms_width"),
                                   rtol=1e-12, atol=0.0)
        final, reference = lin.final_field().values, fine.final_field().values
        assert np.linalg.norm(final - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("observe_every, t_final, stride", [
        (100, 10.0, 100), (7, 0.7, 7), (0, 0.5, 500), (7, 0.5, 1)])
    def test_strided_takes_an_unbounded_step(self, observe_every, t_final, stride):
        base = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=t_final,
                            observe_every=observe_every)
        config = _strided(base, Scheme.LINEAR_SCHRODINGER, math.inf)
        assert config.dt == pytest.approx(stride * base.dt, rel=1e-12)
        assert config.observe_every == observe_every // stride
        assert config.n_steps() * stride == base.n_steps()

    def test_nls_echo_reproduces_its_run(self):
        # the run-1 config block, as written, rebuilds the cubic leg's
        # SolverConfig: order 4 on its own step and cadence
        settings = DichotomySettings(t_final=0.5)
        nls = run_dispersion_vs_soliton(settings).runs["nls"]
        echo = json.loads(json.dumps(nls.summary_dict()))["config"]
        assert (echo["order"], echo["dt"], echo["observe_every"]) == (4, 2.5e-2, 4)
        config = SolverConfig(scheme=Scheme(echo["scheme"]), **{
            key: echo[key] for key in ("dt", "t_final", "snapshot_every", "observe_every",
                                       "order")})
        grid = Grid1D(echo["grid"]["n"], echo["grid"]["z_min"], echo["grid"]["z_max"])
        assert grid == settings.grid()
        rerun = evolve_nls(settings.initial_field(), config)
        assert np.array_equal(rerun.times, nls.times)
        assert np.array_equal(rerun.observable("rms_width"), nls.observable("rms_width"))

    @pytest.mark.parametrize("amplitude, stride", [(1.0, 25), (1.5, 25), (2.0, 10), (3.0, 5)],
                             ids=["1.0", "1.5", "2.0", "3.0"])
    def test_nls_stride_bounded_by_step_and_phase(self, amplitude, stride):
        # m dt <= CUBIC_MAX_DT, and the largest sub-step phase
        # 2 |w0| a^2 m dt stays within MAX_POTENTIAL_PHASE_PER_STEP
        settings = DichotomySettings(amplitude=amplitude, t_final=1.0)
        result = run_dispersion_vs_soliton(settings)
        nls = result.runs["nls"]
        assert (nls.config["order"], nls.config["observe_every"]) == (4, 100 // stride)
        assert nls.config["dt"] == pytest.approx(stride * settings.dt, rel=1e-12)
        assert nls.config["dt"] <= CUBIC_MAX_DT
        assert 2.0 * max(map(abs, ORDERS[4])) * amplitude**2 * nls.config["dt"] <= (
            MAX_POTENTIAL_PHASE_PER_STEP)
        np.testing.assert_allclose(nls.times, result.times, rtol=1e-12, atol=0.0)
        grid = settings.grid()
        exact = nls_breather_exact(grid.z, settings.t_final, amplitude, 0.0)
        strang = evolve_nls(settings.initial_field(),
                            replace(settings.solver_config(), scheme=Scheme.NLS))

        def error(report):
            return math.sqrt(np.sum(np.abs(report.final_field().values - exact) ** 2) * grid.dz)

        assert error(nls) <= error(strang)

    @pytest.mark.parametrize("amplitude, yoshida_error, yoshida_pairs", [
        (1.0, 9.25e-7, 3000), (1.1, 2.47e-6, 3000), (1.5, 6.44e-5, 3000),
        (2.0, 8.23e-5, 6000), (3.0, 1.49e-4, 15000)])
    def test_cubic_leg_beats_yoshida_at_equal_error(self, amplitude, yoshida_error,
                                                    yoshida_pairs):
        # the equal-error table at t = 10: the derived stride's L2 error is no
        # larger than the recorded one of Yoshida's three-stage composition at
        # its own derived stride, with fewer FFT pairs
        settings = DichotomySettings(amplitude=amplitude)
        config = settings.cubic_config()
        grid = settings.grid()
        final = evolve_nls(settings.initial_field(), config).final_field().values
        exact = nls_breather_exact(grid.z, settings.t_final, amplitude, 0.0)
        assert math.sqrt(np.sum(np.abs(final - exact) ** 2) * grid.dz) <= yoshida_error
        assert config.n_steps() * len(ORDERS[config.order]) < yoshida_pairs

    @pytest.mark.parametrize("amplitude", [1.0, 3.0])
    def test_coprime_cadence_keeps_the_strang_run(self, amplitude):
        # observe_every = 7 shares no divisor with 500 steps: m = 1
        settings = DichotomySettings(amplitude=amplitude, t_final=0.5, observe_every=7)
        nls = run_dispersion_vs_soliton(settings).runs["nls"]
        strang = evolve_nls(settings.initial_field(),
                            replace(settings.solver_config(), scheme=Scheme.NLS))
        assert nls.config == strang.config and nls.config["order"] == 2
        assert np.array_equal(nls.times, strang.times)
        for key, series in strang.observables.items():
            assert np.array_equal(nls.observable(key), series), key
        assert np.array_equal(nls.final_field().values, strang.final_field().values)

    def test_default_transport_width_is_exact(self):
        result = run_dispersion_vs_soliton(DichotomySettings())
        widths = result.widths["transport"]
        # at rest: one step per record, the record spacing 0.1
        assert result.runs["transport"].config["dt"] == 0.1
        assert len(widths) == 101
        assert np.all(widths == widths[0])
        assert result.ratios["transport"] == 1.0

    def test_report_dict_shape(self):
        result = run_dispersion_vs_soliton(
            DichotomySettings(n=512, z_min=-25.6, z_max=25.6, t_final=0.5))
        d = result.to_dict()
        assert d["experiment"] == "soliton-vs-dispersion"
        assert set(d["width_ratios"]) == {"linear", "nls", "transport"}


# ---------------------------------------------------------------------------
# barrier Monte Carlo
# ---------------------------------------------------------------------------

def _spec_gap_08(trials=10**5, seed=42) -> BarrierSpec:
    # V0 = 0.25 m0 c^2 shifts the cutoff so the narrowed width is 0.8 w
    return BarrierSpec(height=0.25 * K.rest_energy, length=1e-12,
                       energy=0.5 * K.rest_energy, trials=trials, seed=seed)


class TestBarrierMonteCarlo:
    def test_gap_fraction_or_better(self):
        report = run_barrier_monte_carlo(_spec_gap_08())
        assert report.geometric_gap_fraction == pytest.approx(0.8, rel=1e-12)
        sigma = math.sqrt(0.8 * 0.2 / report.trials)
        assert abs(report.transmission_fraction - 0.8) <= 3 * sigma
        assert report.tunneled == 0
        assert report.transmitted + report.reflected + report.tunneled == report.trials

    def test_vanishing_barrier_transmits_everything(self):
        spec = BarrierSpec(height=1e-6 * K.eV, length=1e-12,
                           energy=0.5 * K.rest_energy, trials=10**4, seed=3)
        report = run_barrier_monte_carlo(spec)
        assert report.transmission_fraction == 1.0

    def test_seeded_determinism(self):
        a = run_barrier_monte_carlo(_spec_gap_08())
        b = run_barrier_monte_carlo(_spec_gap_08())
        assert a == b

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_invariance(self, workers):
        serial = run_barrier_monte_carlo(_spec_gap_08(trials=200_000))
        parallel = run_barrier_monte_carlo(_spec_gap_08(trials=200_000),
                                           parallel_trials=workers)
        assert serial == parallel

    def test_blocked_stream_matches_single_stream(self):
        # regression canary for the advanced phase stream: trial i's phase
        # is (W_i 2^21 + L_i) 2^-53, W_i the i-th 32-bit half of stream 0's
        # draws (low half first), L_i the top 21 bits of stream 2's draw i
        spec = _spec_gap_08(trials=150_000, seed=12345)
        report = run_barrier_monte_carlo(spec)
        phase_seed, _, low_seed = np.random.SeedSequence(spec.seed).spawn(3)
        raw = np.random.PCG64(phase_seed).random_raw(spec.trials // 2)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        low = np.random.PCG64(low_seed).random_raw(spec.trials) >> 43
        draws = (words * 2**21 + low).astype(float) * 2.0**-53
        w = K.c / (2 * K.cutoff_frequency)
        w_narrow = w / 1.25
        x = w * (1 - np.abs(1 - 2 * draws))
        hits = int(np.count_nonzero((x >= (w - w_narrow) / 2) & (x <= (w + w_narrow) / 2)))
        assert report.transmitted == hits

    def test_below_cutoff_tunneling(self):
        spec = BarrierSpec(height=0.5 * K.rest_energy, length=2e-13,
                           energy=0.1 * K.rest_energy, trials=200_000, seed=7)
        report = run_barrier_monte_carlo(spec)
        assert report.transmitted == 0
        assert not report.model["above_cutoff"]
        expected = report.geometric_gap_fraction * report.model["tunnel_probability"]
        sigma = math.sqrt(expected * (1 - expected) / spec.trials)
        assert abs(report.transmission_fraction - expected) <= 4 * sigma

    def test_expected_fraction_and_z_score(self):
        # the criterion-12 spec: above cutoff, the expectation is w'/w
        spec = _spec_gap_08(trials=10**6, seed=20240817)
        report = run_barrier_monte_carlo(spec)
        assert report.transmitted == 799898  # pins the RNG stream layout
        assert report.expected_fraction == report.geometric_gap_fraction
        sigma = math.sqrt(0.8 * 0.2 / spec.trials)
        assert report.z_score == pytest.approx(
            (report.transmission_fraction - report.expected_fraction) / sigma, rel=1e-9)
        assert abs(report.z_score) <= 4
        d = report.to_dict()
        assert d["expected_fraction"] == report.expected_fraction
        assert d["z_score"] == report.z_score

    def test_below_cutoff_expected_fraction(self):
        spec = BarrierSpec(height=0.5 * K.rest_energy, length=2e-13,
                           energy=0.1 * K.rest_energy, trials=200_000, seed=7)
        report = run_barrier_monte_carlo(spec)
        p_tunnel = report.model["tunnel_probability"]
        assert 0.0 < p_tunnel < 1.0
        assert report.expected_fraction == pytest.approx(
            report.geometric_gap_fraction * p_tunnel, rel=1e-15)
        expected = report.expected_fraction
        sigma = math.sqrt(expected * (1 - expected) / spec.trials)
        assert report.z_score == pytest.approx(
            (report.transmission_fraction - expected) / sigma, rel=1e-9)
        assert abs(report.z_score) <= 4

    def test_z_score_null_without_variance(self):
        # a long barrier far below cutoff: the tunnel probability underflows
        # to 0, so the expectation has no variance and no z-score
        spec = BarrierSpec(height=0.5 * K.rest_energy, length=1e-9,
                           energy=0.1 * K.rest_energy, trials=1000, seed=7)
        report = run_barrier_monte_carlo(spec)
        assert report.expected_fraction == 0.0
        assert report.transmission_fraction == 0.0
        assert report.z_score is None
        assert json.loads(json.dumps(report.to_dict()))["z_score"] is None

    def test_gap_offset_must_fit(self):
        # the spec checks its geometry when built, not when it first runs
        w = K.c / (2 * K.cutoff_frequency)
        with pytest.raises(ConfigurationError, match="does not fit inside the guide"):
            BarrierSpec(height=0.25 * K.rest_energy, length=1e-12,
                        energy=0.5 * K.rest_energy, trials=10, seed=1, gap_offset=0.5 * w)

    def test_offset_shifts_statistics_not_fraction(self):
        # a centered triangle-wave phase is uniform in position, so a
        # small offset keeps the transmitted fraction at the gap fraction
        w = K.c / (2 * K.cutoff_frequency)
        spec = BarrierSpec(height=0.25 * K.rest_energy, length=1e-12,
                           energy=0.5 * K.rest_energy, trials=10**5, seed=9,
                           gap_offset=0.05 * w)
        report = run_barrier_monte_carlo(spec)
        sigma = math.sqrt(0.8 * 0.2 / spec.trials)
        assert abs(report.transmission_fraction - 0.8) <= 4 * sigma

    @pytest.mark.parametrize("field", ["height", "length", "energy", "gap_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field(self, field, value):
        fields = dict(height=1.0, length=1e-12, energy=1.0, trials=10, seed=0, gap_offset=0.0)
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            BarrierSpec(**{**fields, field: value})

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            BarrierSpec(height=-1.0, length=1e-12, energy=1.0, trials=10, seed=0)
        with pytest.raises(ConfigurationError):
            BarrierSpec(height=1.0, length=1e-12, energy=1.0, trials=0, seed=0)

    def test_trials_bound(self):
        BarrierSpec(height=1.0, length=1e-12, energy=1.0, trials=MAX_TRIALS, seed=0)
        with pytest.raises(ConfigurationError, match="trials"):
            BarrierSpec(height=1.0, length=1e-12, energy=1.0, trials=MAX_TRIALS + 1, seed=0)


# ---------------------------------------------------------------------------
# barrier Monte Carlo on exact draw intervals
# ---------------------------------------------------------------------------

GUIDE_WIDTH = K.c / (2 * K.cutoff_frequency)
HALF_M = 1 << 52  # m = u 2^53 at u = 1/2
TOP_M = (1 << 53) - 1
BLOCK = 1 << 16


def _position(width: float, m: int) -> float:
    # the transverse position of the float draw u = m 2^-53
    return width * (1.0 - abs(1.0 - 2.0 * (m * 2.0**-53)))


def _m(u: float) -> int:
    # m with u = m 2^-53, which must hold exactly
    m = u * 2.0**53
    assert m.is_integer()
    return int(m)


def _above_spec(offset=0.0, trials=10, seed=1) -> BarrierSpec:
    return BarrierSpec(height=0.25 * K.rest_energy, length=1e-12, energy=0.5 * K.rest_energy,
                       trials=trials, seed=seed, gap_offset=offset * GUIDE_WIDTH)


def _below_spec(offset=0.0, trials=10, seed=7, length=2e-13) -> BarrierSpec:
    return BarrierSpec(height=0.5 * K.rest_energy, length=length, energy=0.1 * K.rest_energy,
                       trials=trials, seed=seed, gap_offset=offset * GUIDE_WIDTH)


def _vanishing_spec(trials=10, seed=3) -> BarrierSpec:
    return BarrierSpec(height=1e-6 * K.eV, length=1e-12, energy=0.5 * K.rest_energy,
                       trials=trials, seed=seed)


def _layout_phases(seed: int, first: int, count: int) -> np.ndarray:
    """m of trials [first, first + count), first even, drawn unblocked: the
    32-bit half-words of stream 0's raw draws (low half first) over the top
    21 bits of stream 2's raw draw of each trial, drawn for every trial."""
    phase_seed, _, low_seed = np.random.SeedSequence(seed).spawn(3)
    phase, low = np.random.PCG64(phase_seed), np.random.PCG64(low_seed)
    phase.advance(first // 2)
    low.advance(first)
    raw = phase.random_raw((count + 1) // 2)
    m = raw.astype("<u8").view("<u4")[:count].astype(np.uint64) << 21
    m |= low.random_raw(count) >> 43
    return m


def _float_counts(spec: BarrierSpec, p_tunnel: float | None) -> tuple[int, int]:
    """(transmitted, tunneled) of the float formulation on the unblocked
    layout: trial i's phase u = m 2^-53 (_layout_phases) through the float
    position formula, its coin stream 1's Generator.random draw i.
    p_tunnel is None above cutoff."""
    _, width, _, gap_lo, gap_hi = spec.geometry()
    u = _layout_phases(spec.seed, 0, spec.trials).astype(float) * 2.0**-53
    position = width * (1.0 - np.abs(1.0 - 2.0 * u))
    in_gap = (position >= gap_lo) & (position <= gap_hi)
    if p_tunnel is None:
        return int(np.count_nonzero(in_gap)), 0
    coin_seed = np.random.SeedSequence(spec.seed).spawn(3)[1]
    coin = np.random.Generator(np.random.PCG64(coin_seed)).random(spec.trials)
    return 0, int(np.count_nonzero(in_gap & (coin < p_tunnel)))


def _replay_streams(monkeypatch, phases, coins=()) -> list[tuple[int, int]]:
    """Make experiments._stream replay the given draws from trial `first`
    on: each phase m in [0, 2^53) as its word m >> 21 in stream 0 (two
    words a draw, low half first) and its low bits in the top 21 bits of
    stream 2's draw (under junk bits the run must drop), stream 1 the
    coins.  Returns the list of streams built, as (index, first)."""
    words = [m >> 21 for m in phases] + [0] * (len(phases) % 2)
    draws = {0: np.array([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])],
                         dtype=np.uint64),
             1: np.array(coins, dtype=float),
             2: np.array([(m & (2**21 - 1)) << 43 | 0x2A5A5A5A5A5 for m in phases],
                         dtype=np.uint64)}

    built = []

    class Replay:
        def __init__(self, index, first):
            built.append((index, first))
            self.pos, self.values, self.bit_generator = first, draws[index], self

        def random(self, out):
            out[:] = self.values[self.pos:self.pos + len(out)]
            self.pos += len(out)

        def random_raw(self, size=None):
            values = self.values[self.pos:self.pos + (size or 1)]
            self.pos += size or 1
            return values if size else values[0]

    monkeypatch.setattr(experiments, "_stream", lambda seed, index, first: Replay(index, first))
    return built


def _in_gap(geometry, m: int) -> bool:
    # the float formulation: the position of the draw u = m 2^-53 in the gap
    width, gap_lo, gap_hi = geometry
    return gap_lo <= _position(width, m) <= gap_hi


def _cells(gaps) -> tuple[list[int], list[int]]:
    """(candidate cells, decided cells next to them) of the folded word
    f = min(W, ~W): the cell of each end of the rising interval [a, b], the
    one below it and cell 0; and the cells just past them, both sides."""
    lo_cell, hi_cell = (min(_m(u), HALF_M) >> 21 for u in gaps[0])
    candidates = {c for c in (0, lo_cell - 1, lo_cell, hi_cell - 1, hi_cell) if 0 <= c < 2**31}
    decided = {c for c in (lo_cell - 2, lo_cell + 1, hi_cell - 2, hi_cell + 1, 1)
               if 0 <= c < 2**31} - candidates
    return sorted(candidates), sorted(decided)


GAP_GEOMETRIES = [
    *[(width, gap_lo, gap_hi) for _, width, _, gap_lo, gap_hi in (
        spec.geometry() for spec in (
            _above_spec(0.0), _above_spec(0.0999999), _above_spec(-0.0999999),
            BarrierSpec(height=0.25 * K.rest_energy, length=1e-12, energy=0.5 * K.rest_energy,
                        trials=10, seed=1, gap_offset=1.09e-13)))],
    (1.0, 0.0, 0.5),  # gap_lo is 0: m = 0 is in the gap
    (1.0, 0.25, 0.75),  # a = 2^50 and b = 3 2^50 start cells: ~W at L = 0 reaches them
    (1.0, 0.5, 1.0),  # the gap reaches the far wall: one interval around u = 1/2
    (1.0, 0.0, 1.0),  # the whole guide
]
GAP_IDS = ["gap08", "+0.0999999w", "-0.0999999w", "wall+1.09e-13m", "lo-zero", "cell-aligned",
           "peak-inside", "whole-guide"]


class TestBarrierWordThresholds:
    def test_uniform_draw_is_the_top_53_bits(self):
        # the premise: Generator.random gives u = (w >> 11) 2^-53 for raw word w
        seed = np.random.SeedSequence(5)
        for bit_generator in (np.random.PCG64, np.random.Philox):
            u = np.random.Generator(bit_generator(seed)).random(1000)
            words = bit_generator(seed).random_raw(1000)
            assert np.array_equal(u, (words >> np.uint64(11)).astype(float) * 2.0**-53)

    @pytest.mark.parametrize("geometry", [
        *[(width, gap_lo, gap_hi) for _, width, _, gap_lo, gap_hi in (
            spec.geometry() for spec in (_above_spec(0.0), _above_spec(0.05), _above_spec(-0.05),
                                         _above_spec(0.0999999), _above_spec(-0.0999999),
                                         _vanishing_spec()))],
        (1.0, 0.5, 1.0),  # the gap reaches the far wall: the tent's peak is inside
        (1.0, 0.0, 1.0),  # the gap is the whole guide
    ], ids=["gap08", "+0.05w", "-0.05w", "+0.0999999w", "-0.0999999w", "vanishing",
            "peak-inside", "whole-guide"])
    def test_gap_range_endpoints_are_exact(self, geometry):
        width, gap_lo, gap_hi = geometry

        def in_gap(m):
            return 0 <= m <= TOP_M and gap_lo <= _position(width, m) <= gap_hi

        intervals = _gap_intervals(width, gap_lo, gap_hi)
        assert len(intervals) == 2  # one on each side of the tent's peak
        (a1, b1), (a2, b2) = ((_m(lo), _m(hi)) for lo, hi in intervals)
        for a, b, first, last in ((a1, b1, 0, HALF_M), (a2, b2, HALF_M + 1, TOP_M)):
            assert first <= a <= b <= last
            assert in_gap(a) and in_gap(b)
            # a neighbour outside the interval is outside the gap or on the other half
            assert a == first or not in_gap(a - 1)
            assert b == last or not in_gap(b + 1)
        if 0 < a1 and b1 < HALF_M:
            # the falling half mirrors the rising one: position(m) = position(2^53 - m)
            assert (a2, b2) == ((1 << 53) - b1, (1 << 53) - a1)
        else:
            assert b1 == HALF_M and a2 == HALF_M + 1

    def test_trial_count_at_the_range_ends(self, monkeypatch):
        # phase draws one step inside and outside each end of the gap
        # intervals, coin draws on both sides of p: the run counts exactly
        # the trials of the float formulation
        for spec in (_above_spec(trials=8), _below_spec(trials=8)):
            model = run_barrier_monte_carlo(spec).model
            _, width, _, gap_lo, gap_hi = spec.geometry()
            ends = [m + d for lo, hi in _gap_intervals(width, gap_lo, gap_hi)
                    for m, d in ((_m(lo), -1), (_m(lo), 0), (_m(hi), 0), (_m(hi), 1))]
            in_gap = [gap_lo <= _position(width, m) <= gap_hi for m in ends]
            assert all(0 <= m <= TOP_M for m in ends)
            assert in_gap == [False, True, True, False] * 2
            p = model["tunnel_probability"]
            last = math.ceil(p * 2.0**53) - 1  # the last coin draw m 2^-53 below p
            coins = [m * 2.0**-53 for m in (last, last + 1) * 4]
            with monkeypatch.context() as patch:
                _replay_streams(patch, ends, coins)
                report = run_barrier_monte_carlo(spec)
            if model["above_cutoff"]:
                assert (report.transmitted, report.tunneled) == (4, 0)
            else:
                assert (report.transmitted, report.tunneled) == (0, 2)
                assert sum(g and c < p for g, c in zip(in_gap, coins)) == 2

    @pytest.mark.parametrize("geometry", GAP_GEOMETRIES, ids=GAP_IDS)
    def test_candidate_words_resolve_exactly(self, geometry, monkeypatch):
        # every word of a candidate cell, W = f or ~f, with its low bits L
        # at 0, 1, the cell's top and on both sides of each interval end in
        # it: each trial draws its L and counts as the float formulation on
        # m = W 2^21 + L
        gaps = _gap_intervals(*geometry)
        candidates, _ = _cells(gaps)
        ends = [_m(u) for interval in gaps for u in interval]
        phases = set()
        for f in candidates:
            for word in (f, 2**32 - 1 - f):
                base = word << 21
                phases |= {base, base + 1, base + 2**21 - 1}
                phases |= {e + d for e in ends for d in (-1, 0, 1) if e + d >> 21 == word}
        assert set(ends) <= phases  # each end's word is a candidate
        for m in sorted(phases):
            with monkeypatch.context() as patch:
                built = _replay_streams(patch, [m])
                assert _count_chunk(0, 0, 1, gaps, None) == _in_gap(geometry, m), m
            assert (2, 0) in built, m

    @pytest.mark.parametrize("geometry", GAP_GEOMETRIES, ids=GAP_IDS)
    def test_decided_words_draw_no_low_bits(self, geometry, monkeypatch):
        # words of the cells next to the candidates lie wholly inside or
        # outside the gap at every L: they count without a stream 2 draw
        gaps = _gap_intervals(*geometry)
        _, decided = _cells(gaps)
        for m in [word << 21 | low for f in decided for word in (f, 2**32 - 1 - f)
                  for low in (0, 2**21 - 1)]:
            with monkeypatch.context() as patch:
                built = _replay_streams(patch, [m])
                assert _count_chunk(0, 0, 1, gaps, None) == _in_gap(geometry, m), m
            assert built == [(0, 0)], m

    @pytest.mark.parametrize("first", [0, 2 * BLOCK])
    def test_candidate_words_draw_their_own_low_bits(self, first):
        # the real streams: a gap whose low end a sits in the folded cell of
        # one of four trials, at its m' = min(m, 2^53 - m) or one above, so
        # that trial lands by its L from stream 2's draw first + k
        ms = [int(m) for m in _layout_phases(77, first, 4)]
        b = HALF_M - 2**40
        for k, m in enumerate(ms):
            m_r = min(m, 2**53 - m)
            for a in (m_r, m_r + 1):
                gaps = [(a * 2.0**-53, b * 2.0**-53),
                        ((2**53 - b) * 2.0**-53, (2**53 - a) * 2.0**-53)]
                expected = sum(any(lo <= x * 2.0**-53 <= hi for lo, hi in gaps) for x in ms)
                assert _count_chunk(77, first, first + 4, gaps, None) == expected, (k, a)

    def test_tunnel_bound_at_a_dyadic_probability(self, monkeypatch):
        below, at = (1 << 52) - 1, 1 << 52
        assert below * 2.0**-53 < 0.5 <= at * 2.0**-53
        _replay_streams(monkeypatch, [HALF_M, HALF_M], [below * 2.0**-53, at * 2.0**-53])
        assert _count_chunk(0, 0, 2, [(0.0, 1.0)], 0.5) == 1

    @pytest.mark.parametrize("p, last_m", [
        (0.0, -1), (5e-324, 0), (2.0**-53, 0), (0.3, math.ceil(0.3 * 2.0**53) - 1),
        (1.0, TOP_M),
    ])
    def test_tunnel_bound_edges(self, p, last_m, monkeypatch):
        # coin draws m 2^-53 at the last one below p and the next: only the first tunnels
        coins = [m for m in (last_m, last_m + 1) if 0 <= m <= TOP_M]
        _replay_streams(monkeypatch, [HALF_M] * len(coins), [m * 2.0**-53 for m in coins])
        assert _count_chunk(0, 0, len(coins), [(0.0, 1.0)], p) == int(last_m >= 0)
        if last_m >= 0:
            assert last_m * 2.0**-53 < p
        if last_m < TOP_M:
            assert not (last_m + 1) * 2.0**-53 < p

    def test_tunnel_probability_extremes(self):
        # the "below-p1" and "below-p0" specs below reach both ends of the tunnel bound
        assert run_barrier_monte_carlo(_below_spec(length=1e-30)).model["tunnel_probability"] == 1.0
        assert run_barrier_monte_carlo(_below_spec(length=1e-9)).model["tunnel_probability"] == 0.0

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("spec", [
        _above_spec(0.0, trials=3 * BLOCK + 12345, seed=11),
        _above_spec(0.05, trials=2 * BLOCK + 1, seed=12),
        _above_spec(-0.05, trials=BLOCK - 1, seed=13),
        _above_spec(0.0999999, trials=150_001, seed=14),
        _above_spec(-0.0999999, trials=150_001, seed=15),
        _vanishing_spec(trials=70_001),
        _below_spec(0.0, trials=3 * BLOCK + 7),
        _below_spec(0.05, trials=100_003, seed=8),
        _below_spec(-0.0999999, trials=100_003, seed=9),
        _below_spec(0.0, trials=70_001, length=1e-30),  # p = 1: every gap draw tunnels
        _below_spec(0.0, trials=70_001, length=1e-9),  # p = 0: none does
        _above_spec(0.0, trials=1, seed=16),
        # the CI case: the gap 0.01 w from the far wall, an odd trial count
        BarrierSpec(height=0.25 * K.rest_energy, length=1e-12, energy=0.5 * K.rest_energy,
                    trials=3_000_001, seed=20240817, gap_offset=1.09e-13),
    ], ids=["gap08", "+0.05w", "-0.05w", "+0.0999999w", "-0.0999999w", "vanishing",
            "below", "below+0.05w", "below-0.0999999w", "below-p1", "below-p0", "one-trial",
            "wall+1.09e-13m"])
    def test_counts_match_the_float_block_loop(self, spec, workers):
        report = run_barrier_monte_carlo(spec, parallel_trials=workers)
        model = report.model
        p_tunnel = None if model["above_cutoff"] else model["tunnel_probability"]
        assert (report.transmitted, report.tunneled) == _float_counts(spec, p_tunnel)
        assert report.transmitted + report.tunneled + report.reflected == spec.trials

    @pytest.mark.parametrize("block", [1000, 4096])
    def test_block_size_changes_no_report(self, block, monkeypatch):
        specs = [_above_spec(0.05, trials=3 * BLOCK + 7, seed=21),
                 _below_spec(0.05, trials=3 * BLOCK + 7, seed=22)]
        default = [run_barrier_monte_carlo(spec, parallel_trials=3) for spec in specs]
        monkeypatch.setattr(experiments, "_TRIALS_PER_BLOCK", block)
        for spec, report in zip(specs, default):
            for workers in (1, 3):
                assert run_barrier_monte_carlo(spec, parallel_trials=workers) == report

    # 1 and BLOCK - 1 trials make one block, 3 BLOCK + 7 four: fewer than 8 workers
    @pytest.mark.parametrize("trials", [1, BLOCK - 1, 3 * BLOCK + 7])
    def test_worker_counts_give_one_report(self, trials):
        for spec in (_above_spec(trials=trials, seed=23), _below_spec(trials=trials, seed=24)):
            serial = run_barrier_monte_carlo(spec)
            for workers in (2, 3, 8):
                assert run_barrier_monte_carlo(spec, parallel_trials=workers) == serial

    @pytest.mark.parametrize("spec, streams", [
        (_above_spec(trials=3 * BLOCK + 7), [(0, 2)]),
        (_below_spec(trials=3 * BLOCK + 7), [(0, 2), (1, 1)]),
    ], ids=["above", "below"])
    def test_coin_stream_built_below_cutoff_only(self, spec, streams, monkeypatch):
        # three chunks over four blocks: each builds its streams at its first
        # trial, stream 0 at its draw first / 2 (two trials a draw); no word
        # of these seeds leaves its gap test open, so stream 2 is never built
        built = []

        def spy(seed, index, first, stream=experiments._stream):
            built.append((index, first))
            return stream(seed, index, first)

        monkeypatch.setattr(experiments, "_stream", spy)
        report = run_barrier_monte_carlo(spec, parallel_trials=3)
        assert sorted(built) == [(j, first // per_draw) for j, per_draw in streams
                                 for first in (0, BLOCK, 2 * BLOCK)]
        p_tunnel = None if report.model["above_cutoff"] else report.model["tunnel_probability"]
        assert (report.transmitted, report.tunneled) == _float_counts(spec, p_tunnel)

    @pytest.mark.parametrize("workers", [0, 65])
    def test_worker_count_outside_the_cap(self, workers):
        with pytest.raises(ConfigurationError, match="parallel_trials must be between 1 and 64"):
            run_barrier_monte_carlo(_above_spec(), parallel_trials=workers)


# ---------------------------------------------------------------------------
# transfer-matrix transmission
# ---------------------------------------------------------------------------

class TestRectangularBarrier:
    def test_no_barrier(self):
        assert rectangular_barrier_transmission(0.5, 0.0, 1.0) == 1.0
        assert rectangular_barrier_transmission(0.5, 0.3, 0.0) == 1.0

    def test_oscillatory_closed_form(self):
        e, v0, length = 0.5, 0.3, 1.0
        k2 = math.sqrt(2 * (e - v0))
        expected = 1.0 / (1.0 + v0**2 * math.sin(k2 * length) ** 2 / (4 * e * (e - v0)))
        assert rectangular_barrier_transmission(e, v0, length) == pytest.approx(
            expected, rel=1e-12)

    def test_evanescent_closed_form(self):
        e, v0, length = 0.5, 0.7, 1.0
        kappa = math.sqrt(2 * (v0 - e))
        expected = 1.0 / (1.0 + v0**2 * math.sinh(kappa * length) ** 2 / (4 * e * (v0 - e)))
        assert rectangular_barrier_transmission(e, v0, length) == pytest.approx(
            expected, rel=1e-12)

    def test_marginal_case(self):
        # E = V0: T = 1 / (1 + m V0 L^2 / (2 hbar^2))
        e = v0 = 0.5
        length = 1.0
        assert rectangular_barrier_transmission(e, v0, length) == pytest.approx(
            1.0 / (1.0 + v0 * length**2 / 2.0), rel=1e-9)

    def test_marginal_continuity(self):
        # the degenerate-branch value must join the generic branches
        t_mid = rectangular_barrier_transmission(0.5, 0.5, 1.0)
        t_above = rectangular_barrier_transmission(0.5 + 1e-9, 0.5, 1.0)
        t_below = rectangular_barrier_transmission(0.5 - 1e-9, 0.5, 1.0)
        assert t_above == pytest.approx(t_mid, rel=1e-6)
        assert t_below == pytest.approx(t_mid, rel=1e-6)

    def test_opaque_limit_monotone(self):
        values = [rectangular_barrier_transmission(0.5, 0.7, length)
                  for length in (1.0, 2.0, 5.0, 20.0, 100.0, 2000.0)]
        assert all(a > b for a, b in zip(values, values[1:]) if b > 0.0)
        assert values[-1] == 0.0

    def test_resonance_transparency(self):
        # sin(k2 L) = 0 gives T = 1 exactly (above-barrier resonance)
        e, v0 = 0.5, 0.3
        k2 = math.sqrt(2 * (e - v0))
        length = math.pi / k2
        assert rectangular_barrier_transmission(e, v0, length) == pytest.approx(
            1.0, rel=1e-12)

    def test_si_wrapper_dimensionless(self):
        spec = _spec_gap_08(trials=1)
        t = linear_barrier_transmission(spec)
        assert 0.0 <= t <= 1.0

    def test_invalid_energy(self):
        with pytest.raises(DomainError):
            rectangular_barrier_transmission(0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# orbit quantization chain
# ---------------------------------------------------------------------------

class TestBohrOrbit:
    def test_first_orbit_against_oracle(self):
        orbit = bohr_orbit(1)
        assert orbit.radius == pytest.approx(BOHR_RADIUS_M, rel=1e-3)
        assert orbit.energy / K.eV == pytest.approx(BOHR_ENERGY_EV, rel=1e-3)
        assert orbit.velocity == pytest.approx(FINE_STRUCTURE * K.c, rel=1e-12)

    def test_second_orbit_scaling(self):
        o1, o2 = bohr_orbit(1), bohr_orbit(2)
        assert o2.radius == pytest.approx(4 * o1.radius, rel=1e-12)
        assert o2.energy == pytest.approx(o1.energy / 4, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_orbit_is_integer_wavelengths(self, n):
        orbit = bohr_orbit(n)
        assert abs(orbit.orbit_length / orbit.de_broglie_wavelength - n) <= 1e-9 * n

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_angular_momentum_quantized(self, n):
        orbit = bohr_orbit(n)
        assert abs(orbit.angular_momentum / (n * K.hbar) - 1.0) <= 1e-12

    def test_invalid_quantum_number(self):
        with pytest.raises(DomainError):
            bohr_orbit(0)


class TestPhaseAccordance:
    def test_extra_arc_ratio_first_orbit(self):
        accord = bohr_phase_accordance(1)
        orbit = bohr_orbit(1)
        expected = FINE_STRUCTURE**2 / (1.0 - FINE_STRUCTURE**2)
        assert accord.tau / orbit.period == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_quantization_residual_relativistic_form(self, n):
        accord = bohr_phase_accordance(n)
        assert abs(accord.quantization_residual) <= 1e-6

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_nonrelativistic_gap_reported(self, n):
        # the gap against the integer N is alpha^2/(2N) to leading order
        accord = bohr_phase_accordance(n)
        expected = FINE_STRUCTURE**2 / (2 * n)
        assert accord.nonrelativistic_gap == pytest.approx(expected, rel=1e-3)
        assert accord.nonrelativistic_gap > 1e-7 / n

    def test_phase_accordance_along_orbit(self):
        accord = bohr_phase_accordance(1)
        assert accord.max_phase_mismatch <= 1e-12

    def test_phase_accordance_at_06c(self):
        state = kinematic_state(0.6 * K.c)
        z = np.linspace(1e-12, 1e-9, 100)
        assert phase_accordance_mismatch(state, z) <= 1e-12

    def test_needs_motion(self):
        with pytest.raises(DomainError):
            phase_accordance_mismatch(kinematic_state(0.0), np.array([1.0]))


# ---------------------------------------------------------------------------
# photon relations
# ---------------------------------------------------------------------------

class TestPhotonRelations:
    def test_fixed_point(self):
        rel = photon_relations(1e20, 1e20)
        assert rel.f_zigzag == pytest.approx(1e20, rel=1e-14)

    def test_double_frequency_halves_bounce(self):
        rel = photon_relations(2e20, 1e20)
        assert rel.f_zigzag == pytest.approx(0.5e20, rel=1e-14)

    def test_product_identity(self):
        for f in (0.3e20, 1.7e20, 9e20):
            rel = photon_relations(f, 1.2e20)
            assert f * rel.f_zigzag == pytest.approx((1.2e20) ** 2, rel=1e-12)

    def test_energy_is_h_times_frequency(self):
        rel = photon_relations(2e20, 1e20)
        assert rel.E_zigzag == pytest.approx(K.h * rel.f_zigzag, rel=1e-14)

    @pytest.mark.parametrize("f,f0", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain_errors(self, f, f0):
        with pytest.raises(DomainError):
            photon_relations(f, f0)
