import math
import tracemalloc

import numpy as np
import pytest

from solitonlab import (
    ComplexField,
    ConfigurationError,
    Grid1D,
    PacketKind,
    PacketSpec,
    Scheme,
    SolverConfig,
    build_packet,
    dispersionless_initial,
    evolve_dispersionless,
    evolve_klein_gordon,
    evolve_linear_schrodinger,
    evolve_nls,
    nls_breather_exact,
    nls_residual,
    one_branch_time_derivative,
)
from solitonlab import solvers
from solitonlab.errors import NumericalError
from solitonlab.solvers import _Recorder, step_count


def l2_error(field: ComplexField, exact: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.abs(field.values - exact) ** 2) * field.grid.dz))


# ---------------------------------------------------------------------------
# exact breather and the transcription gate
# ---------------------------------------------------------------------------

class TestBreatherExact:
    def test_peak_at_t0(self):
        assert nls_breather_exact(2.0, 0.0, a=1.0, v=0.0, z0=2.0) == pytest.approx(1.0 + 0.0j)

    def test_half_period_phase(self):
        # at t = pi the stationary breather has phase e^{i pi} = -1
        z = np.array([0.3, 1.7])
        got = nls_breather_exact(z, math.pi, a=1.0, v=0.0, z0=0.5)
        assert np.allclose(got, -1.0 / np.cosh(z - 0.5), atol=1e-12)

    @pytest.mark.parametrize("a,v,domain", [
        (1.0, 0.0, 40.96),
        (1.0, 1.0, 40.96),
        (0.5, 0.3, 81.92),
    ])
    def test_residual_gate(self, a, v, domain):
        # the exact solution must satisfy the equation under spectral
        # differentiation before any solver result is trusted
        grid = Grid1D(512, -domain, domain)
        for t in (0.0, 0.7):
            residual = nls_residual(grid, t, a=a, v=v)
            assert np.max(np.abs(residual)) <= 1e-8


# ---------------------------------------------------------------------------
# linear Schrodinger solver
# ---------------------------------------------------------------------------

class TestLinearSchrodinger:
    def test_plane_wave_exact_phase(self, grid512):
        dk = 2 * np.pi / grid512.length
        k0 = 8 * dk
        psi0 = build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=k0), grid512)
        t_final = 2.0
        rep = evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-2, t_final=t_final))
        expected = psi0.values * np.exp(-0.5j * k0**2 * t_final)
        assert np.max(np.abs(rep.final_field().values - expected)) <= 1e-10

    def test_gaussian_spreading_law(self, grid512):
        # rms(t) = sigma(t)/sqrt(2), sigma(t)^2 = sigma^2 (1 + (t/sigma^2)^2);
        # the width doubles at t = sqrt(3) for sigma = 1
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
        t_final = math.sqrt(3.0)
        dt = t_final / 2000
        rep = evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=t_final, observe_every=200))
        widths = rep.observable("rms_width")
        for t, w in zip(rep.times, widths):
            sigma_t = math.sqrt(1.0 + t**2)
            assert w == pytest.approx(sigma_t / math.sqrt(2), rel=1e-5)
        assert widths[-1] / widths[0] == pytest.approx(2.0, rel=1e-5)

    def test_sech_disperses(self, grid512):
        psi0 = build_packet(PacketSpec(PacketKind.SECH_BREATHER), grid512)
        rep = evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=5.0, observe_every=500))
        widths = rep.observable("rms_width")
        assert np.all(np.diff(widths) > 0)
        assert widths[-1] > 2.0 * widths[0]

    def test_norm_conserved(self, grid512):
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.5), grid512)
        rep = evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=2.0, observe_every=1))
        assert rep.conservation["max_relative_norm_drift"] <= 1e-12 * 2000

    def test_potential_phase_guard(self, grid512):
        v = np.full(grid512.n, 200.0)
        config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3,
                              t_final=1.0, potential=v)
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN), grid512)
        with pytest.raises(ConfigurationError, match="accuracy guard"):
            evolve_linear_schrodinger(psi0, config)

    def test_deterministic(self, grid512):
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
        config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-2, t_final=1.0)
        a = evolve_linear_schrodinger(psi0, config).final_field().values
        b = evolve_linear_schrodinger(psi0, config).final_field().values
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# cubic solver
# ---------------------------------------------------------------------------

class TestNLS:
    def test_stationary_breather(self):
        grid = Grid1D(512, -20.48, 20.48)  # dz = 0.08
        psi0 = ComplexField(grid, nls_breather_exact(grid.z, 0.0, 1.0, 0.0))
        rep = evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=1.0))
        assert l2_error(rep.final_field(), nls_breather_exact(grid.z, 1.0, 1.0, 0.0)) <= 1e-6

    def test_moving_breather_velocity_and_width(self, grid512):
        psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 1.0, z0=-5.0))
        rep = evolve_nls(psi0, SolverConfig(
            scheme=Scheme.NLS, dt=1e-3, t_final=10.0, observe_every=100))
        velocity = np.polyfit(rep.times, rep.observable("centroid"), 1)[0]
        assert velocity == pytest.approx(1.0, rel=0.01)
        widths = rep.observable("rms_width")
        assert np.max(np.abs(widths / widths[0] - 1.0)) <= 0.01

    def test_amplitude_width_locking_required(self, grid512):
        # doubling the amplitude of an a=1 profile is not a soliton
        psi0 = ComplexField(grid512, 2.0 * nls_breather_exact(grid512.z, 0.0, 1.0, 0.0))
        rep = evolve_nls(psi0, SolverConfig(
            scheme=Scheme.NLS, dt=1e-3, t_final=0.35, observe_every=50))
        widths = rep.observable("rms_width")
        assert abs(widths[-1] / widths[0] - 1.0) > 0.01

    def test_galilean_covariance(self, grid512):
        dt, t_final = 1e-3, 10.0
        moving = evolve_nls(
            ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 1.0, z0=-5.0)),
            SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=t_final))
        still = evolve_nls(
            ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 0.0, z0=-5.0)),
            SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=t_final))
        shift = int(round(1.0 * t_final / grid512.dz))
        assert shift * grid512.dz == pytest.approx(1.0 * t_final, abs=1e-12)
        moved_back = np.roll(np.abs(moving.final_field().values), -shift)
        assert np.max(np.abs(moved_back - np.abs(still.final_field().values))) <= 1e-5

    def test_strang_order_two(self):
        grid = Grid1D(512, -20.48, 20.48)
        psi0 = ComplexField(grid, nls_breather_exact(grid.z, 0.0, 1.0, 0.0))
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            rep = evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=1.0))
            errors.append(l2_error(rep.final_field(), nls_breather_exact(grid.z, 1.0, 1.0, 0.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_suzuki_order_four(self):
        # the criterion-4 breather: halving dt divides the error by about 16
        # (3.4e-6, 2.1e-7, 1.3e-8); at 5e-3 the error meets the domain's
        # floor near 2.4e-9 and the ratio falls to about 5
        grid = Grid1D(512, -25.6, 25.6)
        psi0 = ComplexField(grid, nls_breather_exact(grid.z, 0.0, 1.0, 1.0, z0=-5.0))
        exact = nls_breather_exact(grid.z, 10.0, 1.0, 1.0, z0=-5.0)
        errors = []
        for dt in (4e-2, 2e-2, 1e-2):
            rep = evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=10.0,
                                                observe_every=0, order=4))
            errors.append(l2_error(rep.final_field(), exact))
        assert errors[1] <= 1e-6
        for coarse, fine in zip(errors, errors[1:]):
            assert 13.0 <= coarse / fine <= 19.0

    def test_kahan_li_weights(self):
        # symmetric, consistent, and free of the dt^3 and dt^5 error terms
        weights = solvers.ORDERS[6]
        assert len(weights) == 9 and weights == weights[::-1]
        for power, expected in ((1, 1.0), (3, 0.0), (5, 0.0)):
            assert abs(math.fsum(w**power for w in weights) - expected) <= 1e-14

    def test_kahan_li_order_six(self):
        # the moving breather on a domain wide enough that the wrap-around
        # floor sits near 3e-11: at dt 5e-2 and 2.5e-2 the errors (5.2e-7,
        # 2.9e-9) are time-step errors, and the observed order is above 6
        grid = Grid1D(1024, -51.2, 51.2)
        psi0 = ComplexField(grid, nls_breather_exact(grid.z, 0.0, 1.0, 1.0, z0=-5.0))
        exact = nls_breather_exact(grid.z, 10.0, 1.0, 1.0, z0=-5.0)
        errors = []
        for dt in (5e-2, 2.5e-2):
            rep = evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=10.0,
                                                observe_every=0, order=6))
            errors.append(l2_error(rep.final_field(), exact))
        assert errors[1] >= 1e-9
        assert math.log2(errors[0] / errors[1]) >= 5.5

    def test_rejects_potential(self, grid512):
        config = SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=1.0,
                              potential=np.ones(grid512.n))
        psi0 = build_packet(PacketSpec(PacketKind.SECH_BREATHER), grid512)
        with pytest.raises(ConfigurationError):
            evolve_nls(psi0, config)

    def test_scheme_mismatch(self, grid512):
        psi0 = build_packet(PacketSpec(PacketKind.SECH_BREATHER), grid512)
        with pytest.raises(ConfigurationError):
            evolve_nls(psi0, SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER,
                                          dt=1e-3, t_final=1.0))


# ---------------------------------------------------------------------------
# second-order (Klein-Gordon form) solver
# ---------------------------------------------------------------------------

def _kg_plane_wave_run(ck: float, dt: float = 1e-3, t_final: float = 10.0):
    grid = Grid1D(512, -8 * np.pi, 8 * np.pi)  # ladder spacing exactly 0.125
    psi0 = build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=ck), grid)
    v0 = one_branch_time_derivative(psi0)
    config = SolverConfig(scheme=Scheme.KLEIN_GORDON, dt=dt, t_final=t_final,
                          observe_every=10, probe_index=7)
    return evolve_klein_gordon(psi0, v0, config)


def _probe_frequency(report) -> float:
    probe = report.observable("probe_re") + 1j * report.observable("probe_im")
    slope = np.polyfit(report.times, np.unwrap(np.angle(probe)), 1)[0]
    return -slope


class TestKleinGordon:
    @pytest.mark.parametrize("ck", [0.25, 0.75, 2.0])
    def test_plane_wave_dispersion(self, ck):
        rep = _kg_plane_wave_run(ck)
        measured = _probe_frequency(rep)
        assert measured == pytest.approx(math.hypot(1.0, ck), rel=1e-3)

    def test_rest_mode_oscillates_at_cutoff(self):
        grid = Grid1D(64, -8.0, 8.0)
        psi0 = build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=0.0), grid)
        v0 = one_branch_time_derivative(psi0)
        rep = evolve_klein_gordon(psi0, v0, SolverConfig(
            scheme=Scheme.KLEIN_GORDON, dt=1e-3, t_final=10.0,
            observe_every=10, probe_index=5))
        assert _probe_frequency(rep) == pytest.approx(1.0, rel=1e-3)

    def test_energy_drift_over_1e4_steps(self):
        rep = _kg_plane_wave_run(0.75, dt=1e-3, t_final=10.0)
        assert rep.conservation["max_relative_energy_drift"] <= 1e-6

    def test_packet_group_velocity(self):
        grid = Grid1D(1024, -16 * np.pi, 16 * np.pi)
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=6.0,
                                       center=-10.0, k0=0.75), grid)
        v0 = one_branch_time_derivative(psi0)
        rep = evolve_klein_gordon(psi0, v0, SolverConfig(
            scheme=Scheme.KLEIN_GORDON, dt=2e-3, t_final=20.0, observe_every=100))
        vg = np.polyfit(rep.times, rep.observable("centroid"), 1)[0]
        assert vg == pytest.approx(0.6, rel=0.02)

    def test_needs_both_cauchy_data(self, grid512):
        psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=2.0), grid512)
        other = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=2.0),
                             Grid1D(256, -25.6, 25.6))
        with pytest.raises(ConfigurationError):
            evolve_klein_gordon(psi0, other, SolverConfig(
                scheme=Scheme.KLEIN_GORDON, dt=1e-3, t_final=1.0))


def test_t_final_must_be_step_multiple(grid512):
    psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
    with pytest.raises(ConfigurationError):
        evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=3e-3, t_final=1.0))


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_step_count_rejects_dt_not_positive_and_finite(dt):
    with pytest.raises(ConfigurationError, match="dt"):
        step_count(dt, 1.0)


@pytest.mark.parametrize("t_final", [math.nan, math.inf])
def test_step_count_rejects_t_final_not_finite(t_final):
    with pytest.raises(ConfigurationError, match="t_final"):
        step_count(1e-3, t_final)


@pytest.mark.parametrize("cadence", ["snapshot_every", "observe_every"])
def test_negative_cadence_rejected(cadence):
    with pytest.raises(ConfigurationError, match=f"{cadence} must be >= 0, got -1"):
        SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=0.1,
                     **{cadence: -1})


@pytest.mark.parametrize("scheme", list(Scheme))
def test_only_klein_gordon_echoes_omega0_and_c(grid512, scheme):
    echo = SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1).config_echo(grid512)
    if scheme is Scheme.KLEIN_GORDON:
        assert (echo["omega0"], echo["c"]) == (1.0, 1.0)
    else:
        assert "omega0" not in echo and "c" not in echo


# orders outside ORDERS, whose keys are 2, 4 and 6
@pytest.mark.parametrize("order", [0, 1, 3, 5, 8])
def test_order_is_two_or_four(order):
    with pytest.raises(ConfigurationError) as err:
        SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=0.1, order=order)
    assert str(err.value) == f"order must be one of [2, 4, 6], got {order}"


@pytest.mark.parametrize("scheme", [s for s in Scheme if s is not Scheme.NLS])
def test_only_nls_steps_at_order_four(scheme):
    with pytest.raises(ConfigurationError) as err:
        SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1, order=4)
    assert str(err.value) == (
        f"{scheme.value} has only a second-order step; order must be 2, got 4")


@pytest.mark.parametrize("scheme", [s for s in Scheme if s is not Scheme.NLS])
def test_only_nls_steps_at_order_six(scheme):
    with pytest.raises(ConfigurationError) as err:
        SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1, order=6)
    assert str(err.value) == (
        f"{scheme.value} has only a second-order step; order must be 2, got 6")


#: every rule of the SolverConfig checks, with a config that breaks it and
#: its message: the rules that need no grid raise when the config is built,
#: the others in _require_valid, against a 512-point grid
SOLVER_CONFIG_RULES = [
    ({"snapshot_every": -1}, "snapshot_every must be >= 0, got -1"),
    ({"observe_every": -1}, "observe_every must be >= 0, got -1"),
    ({"dt": 0.0}, "dt must be positive and finite, got 0.0"),
    ({"dt": math.inf}, "dt must be positive and finite, got inf"),
    ({"t_final": -1.0}, "t_final must be positive, got -1.0"),
    ({"t_final": 0.1005}, "t_final = 0.1005 is not an integer multiple of dt = 0.001"),
    ({"potential_slope": 0.4},
     "linear_schrodinger has no linear potential part; potential_slope must be zero, got 0.4"),
    ({"order": 3}, "order must be one of [2, 4, 6], got 3"),
    ({"order": 4}, "linear_schrodinger has only a second-order step; order must be 2, got 4"),
    ({"potential": np.zeros(3)}, "potential must have grid length 512, got shape (3,)"),
    ({"potential": np.array([])}, "potential must have grid length 512, got shape (0,)"),
    ({"scheme": Scheme.NLS, "potential": np.ones(512)},
     "nls has no potential term; potential must be zero"),
    ({"scheme": Scheme.KLEIN_GORDON, "potential": np.ones(512)},
     "klein_gordon has no potential term; potential must be zero"),
    ({"potential": np.full(512, 200.0)},
     "dt * max|V| = 0.2 exceeds the accuracy guard 0.1"),
    ({"probe_index": 512}, "probe_index 512 outside grid"),
    ({"probe_index": -1}, "probe_index -1 outside grid"),
]


@pytest.mark.parametrize("fields, message", SOLVER_CONFIG_RULES,
                         ids=[message.split(" ")[0] for _, message in SOLVER_CONFIG_RULES])
def test_every_solver_config_rule_raises_its_message(grid512, fields, message):
    fields = {"scheme": Scheme.LINEAR_SCHRODINGER, "dt": 1e-3, "t_final": 0.1, **fields}
    with pytest.raises(ConfigurationError) as err:
        solvers._require_valid(SolverConfig(**fields), grid512, fields["scheme"])
    assert str(err.value) == message
    # the rules that need the grid hold no config back from being built
    if "potential" in fields or "probe_index" in fields:
        SolverConfig(**fields)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_only_nls_echoes_order(grid512, scheme):
    echo = SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1).config_echo(grid512)
    assert echo.get("order") == (2 if scheme is Scheme.NLS else None)


def test_recorder_rejects_non_finite_records(grid512):
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=0.01,
                          observe_every=5)
    rec = _Recorder(config, grid512)
    at0, at5, at10 = rec.blocks(1)
    field = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512).values
    rec.record(at0, field, extra={"energy": 1.0})
    blown = field.copy()
    blown[3] = complex(math.nan, 0.0)
    with pytest.raises(NumericalError, match=r"field is not finite at step 5 \(t = 0.005\)"):
        rec.record(at5, blown)
    with pytest.raises(NumericalError, match="energy is not finite at step 5"):
        rec.record(at5, field, extra={"energy": math.inf})
    # the observables of a finite field can overflow
    with pytest.raises(NumericalError, match="norm is not finite at step 10"):
        rec.record(at10, field * 1e200)
    assert rec.times == [0.0]


def _conservation_cases():
    grid = Grid1D(512, -25.6, 25.6)
    gauss = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.5, k0=1.0), grid)
    breather = build_packet(PacketSpec(PacketKind.SECH_BREATHER, velocity=1.0), grid)
    # observe_every 10 and snapshot_every 8: snapshot-only steps among the records
    narrow = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=0.5, k0=2.0), grid)
    kg = SolverConfig(scheme=Scheme.KLEIN_GORDON, dt=0.01, t_final=2.0,
                      observe_every=10, snapshot_every=8)
    transport = SolverConfig(scheme=Scheme.DISPERSIONLESS_TRANSPORT, dt=1e-3, t_final=0.2,
                             observe_every=20, snapshot_every=30)
    return {
        "linear": lambda: evolve_linear_schrodinger(gauss, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=0.5,
            potential=0.05 * grid.z**2, observe_every=25, snapshot_every=40)),
        "nls": lambda: evolve_nls(breather, SolverConfig(
            scheme=Scheme.NLS, dt=1e-3, t_final=0.5, observe_every=25, snapshot_every=40)),
        "kg": lambda: evolve_klein_gordon(
            narrow, one_branch_time_derivative(narrow), kg),
        "transport": lambda: evolve_dispersionless(
            dispersionless_initial(grid, velocity=1.0, center=-5.0), transport),
    }


@pytest.mark.parametrize("case, name, drift_key", [
    ("linear", "norm", "max_relative_norm_drift"),
    ("nls", "norm", "max_relative_norm_drift"),
    ("kg", "energy", "max_relative_energy_drift"),
    ("transport", "rho_integral", "max_relative_rho_drift"),
])
def test_conservation_is_the_drift_of_the_reported_series(case, name, drift_key):
    rep = _conservation_cases()[case]()
    series = rep.observable(name)
    assert rep.conservation == {
        f"{name}_initial": float(series[0]),
        f"{name}_final": float(series[-1]),
        drift_key: float(np.max(np.abs(series - series[0])) / series[0]),
    }
    # the run has snapshot-only record steps, which the series leaves out
    assert not {s.t for s in rep.snapshots} <= set(rep.times.tolist())


def test_kg_energy_summed_only_on_observation_steps(monkeypatch):
    # observe_every 10 and snapshot_every 8 over 200 steps: 21 observation
    # steps among 41 record steps; a snapshot-only step reports no energy,
    # so the blocks of record rows sum it for 21 rows only
    rows_summed = []
    original = solvers._spectral_energy

    def counted(spec, *args):
        rows_summed.append(1 if spec.ndim == 1 else len(spec))
        return original(spec, *args)

    monkeypatch.setattr(solvers, "_spectral_energy", counted)
    rep = _conservation_cases()["kg"]()
    assert len(rep.snapshots) == 26 and len(rep.times) == 21
    assert sum(rows_summed) == 21
    # the reported series is that of the same run with no mid-run snapshots
    grid = Grid1D(512, -25.6, 25.6)
    narrow = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=0.5, k0=2.0), grid)
    plain = evolve_klein_gordon(narrow, one_branch_time_derivative(narrow), SolverConfig(
        scheme=Scheme.KLEIN_GORDON, dt=0.01, t_final=2.0, observe_every=10))
    assert np.array_equal(rep.observable("energy"), plain.observable("energy"))


# ---------------------------------------------------------------------------
# the one record path: blocks of rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_every_scheme_records_on_one_plan(grid512, scheme):
    # observe_every 3 and snapshot_every 4 over 12 steps: every scheme
    # observes at steps 0, 3, 6, 9, 12 and snapshots at 0, 4, 8, 12
    dt = 1e-3
    config = SolverConfig(scheme=scheme, dt=dt, t_final=12 * dt, observe_every=3,
                          snapshot_every=4)
    psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0, k0=1.0), grid512)
    run = {
        Scheme.LINEAR_SCHRODINGER: lambda: evolve_linear_schrodinger(psi0, config),
        Scheme.NLS: lambda: evolve_nls(psi0, config),
        Scheme.KLEIN_GORDON: lambda: evolve_klein_gordon(
            psi0, one_branch_time_derivative(psi0), config),
        Scheme.DISPERSIONLESS_TRANSPORT: lambda: evolve_dispersionless(
            dispersionless_initial(grid512, velocity=1.0), config),
    }
    report = run[scheme]()
    assert report.times.tolist() == [step * dt for step in (0, 3, 6, 9, 12)]
    assert [snap.t for snap in report.snapshots] == [step * dt for step in (0, 4, 8, 12)]


def _record_rows(grid):
    """A config whose record steps 0, 3, 4, 6, 8, 9, 12 mix observation,
    snapshot-only and both, and one distinct finite field per record step."""
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=0.012,
                          observe_every=3, snapshot_every=4, probe_index=100)
    rng = np.random.default_rng(7)
    steps = [step for block in _Recorder(config, grid).blocks(1) for step in block.steps]
    rows = rng.normal(size=(len(steps), grid.n)) + 1j * rng.normal(size=(len(steps), grid.n))
    return config, steps, rows


def test_recording_rows_one_at_a_time_or_as_a_block_gives_one_report(grid512):
    config, steps, rows = _record_rows(grid512)
    assert steps == [0, 3, 4, 6, 8, 9, 12]
    observed = [i for i, s in enumerate(steps) if s % 3 == 0]
    energy = np.linspace(1.0, 2.0, len(observed))
    one_by_one = _Recorder(config, grid512)
    for i, block in enumerate(one_by_one.blocks(1)):
        extra = {"energy": energy[observed.index(i)]} if i in observed else None
        one_by_one.record(block, rows[i], extra=extra)
    blocks = _Recorder(config, grid512)
    first, rest = blocks.blocks(len(steps))
    # the plan flags observation steps 3, 6, 9, 12 and snapshot steps 4, 8, 12
    assert first == ([0], [0], [0])
    assert rest == ([3, 4, 6, 8, 9, 12], [0, 2, 4, 5], [1, 3, 5])
    blocks.record(first, rows[:1], extra={"energy": energy[:1]})
    blocks.record(rest, rows[1:], extra={"energy": energy[1:]})
    a, b = one_by_one.build(), blocks.build()
    assert np.array_equal(a.times, b.times) and a.conservation == b.conservation
    assert list(a.observables) == list(b.observables) == [
        "norm", "centroid", "rms_width", "peak_position", "energy", "probe_re", "probe_im"]
    for name, series in a.observables.items():
        assert np.array_equal(series, b.observables[name])
    assert [s.t for s in a.snapshots] == [s.t for s in b.snapshots] == [
        step * 1e-3 for step in (0, 4, 8, 12)]
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.field.values, sb.field.values)
    # only the snapshot rows are copied, and the copies are not the block
    rows[:] = 0.0
    assert np.array_equal(b.snapshots[1].field.values, a.snapshots[1].field.values)


def _set_plan(n, observe_every, snapshot_every, rows):
    """The record plan built whole: the set of every record step, sorted and
    cut into blocks of rows, after step 0 alone."""
    observe, snapshot = observe_every or n, snapshot_every or n
    steps = sorted({n}.union(range(observe, n, observe), range(snapshot, n, snapshot)))
    plan = [([0], [0], [0])]
    for first in range(0, len(steps), rows):
        block = steps[first:first + rows]
        plan.append((block, [i for i, s in enumerate(block) if s == n or s % observe == 0],
                     [i for i, s in enumerate(block) if s == n or s % snapshot == 0]))
    return plan


@pytest.mark.parametrize("n, observe_every, snapshot_every, rows", [
    (12, 3, 4, 1), (12, 3, 4, 4), (12, 3, 4, 100),
    (100, 0, 0, 1), (100, 0, 7, 3), (100, 7, 0, 2), (100, 7, 7, 5), (100, 10, 20, 16),
    (101, 10, 25, 16), (97, 96, 98, 2), (50, 50, 100, 1), (1, 10, 100, 1),
    (1000, 1, 3, 64), (1000, 6, 4, 7),
])
def test_blocks_equal_the_whole_plan(grid512, n, observe_every, snapshot_every, rows):
    # cadences of 0 and cadences that do not divide n included
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1.0, t_final=float(n),
                          observe_every=observe_every, snapshot_every=snapshot_every)
    blocks = [tuple(block) for block in _Recorder(config, grid512).blocks(rows)]
    assert blocks == _set_plan(n, observe_every, snapshot_every, rows)


def test_plan_memory_does_not_grow_with_the_step_count(grid512):
    # 2e6 steps at the gaussian-linear cadences: the plan built whole peaked
    # at 3.1 MiB before its first block; merged as the blocks are taken it
    # holds one block
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-6, t_final=2.0,
                          observe_every=100, snapshot_every=1000)
    assert config.n_steps() == 2_000_000
    tracemalloc.start()
    try:
        blocks = _Recorder(config, grid512).blocks(1)
        assert [next(blocks).steps, next(blocks).steps] == [[0], [100]]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


@pytest.mark.parametrize("bad, message", [
    # {record step: what its row is set to or scaled by}
    ({4: math.nan}, r"field is not finite at step 4 \(t = 0.004\)"),
    ({8: math.inf, 9: 1e200}, r"field is not finite at step 8 \(t = 0.008\)"),
    ({6: 1e200, 8: math.nan}, r"norm is not finite at step 6 \(t = 0.006\)"),
], ids=["snapshot-only-row", "field-before-norm", "norm-before-field"])
def test_block_with_a_non_finite_row_names_its_step(grid512, bad, message):
    config, steps, rows = _record_rows(grid512)
    rec = _Recorder(config, grid512)
    first, rest = rec.blocks(len(steps))
    rec.record(first, rows[0])
    for step, value in bad.items():
        if math.isfinite(value):
            rows[steps.index(step)] *= value
        else:
            rows[steps.index(step), 17] = value
    with pytest.raises(NumericalError, match=message):
        rec.record(rest, rows[1:])
    # nothing of the failed block is kept
    assert rec.times == [0.0] and len(rec.snapshots) == 1


def test_block_extra_fails_before_the_observables_of_its_row(grid512):
    config, steps, rows = _record_rows(grid512)
    rec = _Recorder(config, grid512)
    first, rest = rec.blocks(len(steps))
    rec.record(first, rows[0], extra={"energy": 1.0})
    rows[steps.index(6)] *= 1e200  # its norm overflows, and so does its energy
    energy = np.array([1.0, math.inf, 1.0, 1.0])  # observation steps 3, 6, 9, 12
    with pytest.raises(NumericalError, match="energy is not finite at step 6"):
        rec.record(rest, rows[1:], extra={"energy": energy})
