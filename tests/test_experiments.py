import json
import math

import numpy as np
import pytest

from solitonlab import (
    BarrierSpec,
    ConfigurationError,
    DichotomySettings,
    DomainError,
    bohr_orbit,
    bohr_phase_accordance,
    electron_constants,
    kinematic_state,
    linear_barrier_transmission,
    phase_accordance_mismatch,
    photon_relations,
    rectangular_barrier_transmission,
    run_barrier_monte_carlo,
    run_dispersion_vs_soliton,
)
from solitonlab.experiments import _count_trials, _gap_word_ranges, _tunnel_last_word

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

    def test_zero_time_is_identity(self):
        result = run_dispersion_vs_soliton(DichotomySettings(t_final=0.0))
        assert all(r == 1.0 for r in result.ratios.values())

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
    ])
    def test_settings_checked_at_construction(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            DichotomySettings(**kwargs)

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
        # regression canary for the counter-based substream alignment
        spec = _spec_gap_08(trials=150_000, seed=12345)
        report = run_barrier_monte_carlo(spec)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
        draws = rng.random(2 * spec.trials).reshape(-1, 2)
        w = K.c / (2 * K.cutoff_frequency)
        w_narrow = w / 1.25
        x = w * (1 - np.abs(1 - 2 * draws[:, 0]))
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
        assert report.transmitted == 800198  # the RNG stream is unchanged
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
        w = K.c / (2 * K.cutoff_frequency)
        spec = BarrierSpec(height=0.25 * K.rest_energy, length=1e-12,
                           energy=0.5 * K.rest_energy, trials=10, seed=1,
                           gap_offset=0.5 * w)
        with pytest.raises(ConfigurationError):
            run_barrier_monte_carlo(spec)
        with pytest.raises(ConfigurationError):
            spec.geometry()

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

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            BarrierSpec(height=-1.0, length=1e-12, energy=1.0, trials=10, seed=0)
        with pytest.raises(ConfigurationError):
            BarrierSpec(height=1.0, length=1e-12, energy=1.0, trials=0, seed=0)


# ---------------------------------------------------------------------------
# barrier Monte Carlo on raw words
# ---------------------------------------------------------------------------

GUIDE_WIDTH = K.c / (2 * K.cutoff_frequency)
HALF_M = 1 << 52  # m = w >> 11 at u = 1/2
TOP_M = (1 << 53) - 1
BLOCK = 1 << 16


def _position(width: float, m: int) -> float:
    # the transverse position of the float draw u = m 2^-53
    return width * (1.0 - abs(1.0 - 2.0 * (m * 2.0**-53)))


def _above_spec(offset=0.0, trials=10, seed=1) -> BarrierSpec:
    return BarrierSpec(height=0.25 * K.rest_energy, length=1e-12, energy=0.5 * K.rest_energy,
                       trials=trials, seed=seed, gap_offset=offset * GUIDE_WIDTH)


def _below_spec(offset=0.0, trials=10, seed=7, length=2e-13) -> BarrierSpec:
    return BarrierSpec(height=0.5 * K.rest_energy, length=length, energy=0.1 * K.rest_energy,
                       trials=trials, seed=seed, gap_offset=offset * GUIDE_WIDTH)


def _vanishing_spec(trials=10, seed=3) -> BarrierSpec:
    return BarrierSpec(height=1e-6 * K.eV, length=1e-12, energy=0.5 * K.rest_energy,
                       trials=trials, seed=seed)


def _float_block_counts(spec: BarrierSpec, p_tunnel: float | None) -> tuple[int, int]:
    """(transmitted, tunneled) from the float draws u = Generator.random, block
    by block: the float formulation of the Monte Carlo; p_tunnel None above
    cutoff."""
    _, width, _, gap_lo, gap_hi = spec.geometry()
    transmitted = tunneled = 0
    for block in range(-(-spec.trials // BLOCK)):
        count = min(BLOCK, spec.trials - block * BLOCK)
        bitgen = np.random.Philox(np.random.SeedSequence(spec.seed))
        bitgen.advance(2 * block * BLOCK // 4)
        draws = np.random.Generator(bitgen).random(2 * count).reshape(count, 2)
        position = width * (1.0 - np.abs(1.0 - 2.0 * draws[:, 0]))
        in_gap = (position >= gap_lo) & (position <= gap_hi)
        if p_tunnel is None:
            transmitted += int(np.count_nonzero(in_gap))
        else:
            tunneled += int(np.count_nonzero(in_gap & (draws[:, 1] < p_tunnel)))
    return transmitted, tunneled


class TestBarrierWordThresholds:
    def test_uniform_draw_is_the_top_53_bits(self):
        # the premise: Generator.random gives u = (w >> 11) 2^-53 for raw word w
        seed = np.random.SeedSequence(5)
        u = np.random.Generator(np.random.Philox(seed)).random(1000)
        words = np.random.Philox(seed).random_raw(1000)
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

        ranges = _gap_word_ranges(width, gap_lo, gap_hi)
        assert len(ranges) == 2  # one on each side of the tent's peak
        for (lo, hi), (first, last) in zip(ranges, [(0, HALF_M), (HALF_M + 1, TOP_M)]):
            assert lo & 0x7FF == 0 and hi & 0x7FF == 0x7FF
            a, b = lo >> 11, hi >> 11
            assert first <= a <= b <= last
            assert in_gap(a) and in_gap(b)
            # a neighbour outside the range is outside the gap or on the other half
            assert a == first or not in_gap(a - 1)
            assert b == last or not in_gap(b + 1)
        (lo1, hi1), (lo2, hi2) = ranges
        if 0 < lo1 and hi1 >> 11 < HALF_M:
            # the falling half mirrors the rising one: position(m) = position(2^53 - m)
            assert (lo2 >> 11, hi2 >> 11) == ((1 << 53) - (hi1 >> 11), (1 << 53) - (lo1 >> 11))
        else:
            assert hi1 >> 11 == HALF_M and lo2 >> 11 == HALF_M + 1

    def test_trial_count_at_the_range_ends(self):
        ranges = [(5 << 11, (9 << 11) - 1), (1 << 63, (1 << 64) - 2)]
        ends = [r[i] + d for r in ranges for i, d in ((0, -1), (0, 0), (1, 0), (1, 1))]
        first = [0, *ends]
        inside = [False, False, True, True, False, False, True, True, False]
        second = [7, 0, 6, 8, 0, 0, 9, 7, 0]  # against tunnel_last = 7
        words = np.array([first, second], dtype=np.uint64).T
        assert _count_trials(words, ranges) == sum(inside) == 4
        assert _count_trials(words, ranges, tunnel_last=7) == 2
        assert _count_trials(words, ranges, tunnel_last=-1) == 0
        assert _count_trials(words, []) == 0

    def test_tunnel_bound_at_a_dyadic_probability(self):
        last = _tunnel_last_word(0.5)
        below, at = ((1 << 52) - 1) << 11 | 0x7FF, (1 << 52) << 11
        assert (below >> 11) * 2.0**-53 < 0.5 <= (at >> 11) * 2.0**-53
        assert below <= last < at

    @pytest.mark.parametrize("p, last_m", [
        (0.0, -1), (5e-324, 0), (2.0**-53, 0), (0.3, math.ceil(0.3 * 2.0**53) - 1),
        (1.0, TOP_M),
    ])
    def test_tunnel_bound_edges(self, p, last_m):
        assert _tunnel_last_word(p) == ((last_m + 1) << 11) - 1
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
        _below_spec(0.0, trials=70_001, length=1e-30),  # p = 1: every word tunnels
        _below_spec(0.0, trials=70_001, length=1e-9),  # p = 0: none does
        _above_spec(0.0, trials=1, seed=16),
    ], ids=["gap08", "+0.05w", "-0.05w", "+0.0999999w", "-0.0999999w", "vanishing",
            "below", "below+0.05w", "below-0.0999999w", "below-p1", "below-p0", "one-trial"])
    def test_counts_match_the_float_block_loop(self, spec, workers):
        report = run_barrier_monte_carlo(spec, parallel_trials=workers)
        model = report.model
        p_tunnel = None if model["above_cutoff"] else model["tunnel_probability"]
        assert (report.transmitted, report.tunneled) == _float_block_counts(spec, p_tunnel)
        assert report.transmitted + report.tunneled + report.reflected == spec.trials


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

    def test_relativistic_regime_warns(self):
        # a heavier coupling pushes the first orbit above 0.01 c
        from solitonlab import PhysicalConstants
        strong = PhysicalConstants(e2_coulomb=K.e2_coulomb * 2.0)
        with pytest.warns(UserWarning):
            bohr_orbit(1, strong)


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
