import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

from solitonlab import (
    ComplexField,
    ConfigurationError,
    DegenerateFieldError,
    DomainError,
    Grid1D,
    MadelungField,
    NodeError,
    NumericalError,
    PacketKind,
    PacketSpec,
    Scheme,
    SolverConfig,
    build_packet,
    continuity_residual,
    continuity_residual_from_rate,
    decompose,
    dispersionless_initial,
    electron_constants,
    evolve_dispersionless,
    evolve_linear_schrodinger,
    guide_width,
    hj_residual,
    hj_residual_from_rate,
    nls_breather_exact,
    polar_residuals,
    quantum_potential,
    recompose,
    soliton_amplitude,
)
from solitonlab import solvers
from solitonlab.cli import main
from solitonlab.experiments import TRANSPORT_COURANT, _strided, transport_max_dt
from solitonlab.madelung import _node_gaps
from solitonlab.report import Snapshot
from solitonlab.solvers import BLOCK_VALUES
from test_spectral_kernels import _count_ffts

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _sympy_curvature_term(r_expr, zsym, mass=1.0, hbar=1.0):
    """Symbolic -(hbar^2/2m) R''/R as a callable (the oracle for Q)."""
    q = -(hbar**2 / (2 * mass)) * sympy.diff(r_expr, zsym, 2) / r_expr
    return sympy.lambdify(zsym, sympy.simplify(q), "numpy")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class TestDecompose:
    def test_plane_wave(self, grid512):
        dk = 2 * np.pi / grid512.length
        k0 = 6 * dk
        psi = build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=k0), grid512)
        m = decompose(psi)
        assert np.allclose(m.R, 1.0, atol=1e-14)
        slopes = np.diff(m.S) / grid512.dz
        assert np.allclose(slopes, k0, atol=1e-9)

    def test_breather_polar_form(self, grid512):
        t, a = 0.8, 1.0
        psi = ComplexField(grid512, nls_breather_exact(grid512.z, t, a, 0.0))
        m = decompose(psi)
        assert np.allclose(m.R, a / np.cosh(a * grid512.z), atol=1e-14)
        # uniform phase a^2 t on the support (hbar = 1)
        sup = m.support
        assert np.allclose(m.S[sup], a**2 * t, atol=1e-12)

    def test_recompose_round_trip(self, grid512):
        psi = ComplexField(grid512, nls_breather_exact(grid512.z, 1.3, 1.0, 1.0))
        back = recompose(decompose(psi))
        assert np.max(np.abs(back.values - psi.values)) <= 1e-12

    def test_node_error_carries_locations(self, grid512):
        z = grid512.z
        vals = z * np.exp(-(z**2) / 8.0)  # node at z = 0
        with pytest.raises(NodeError) as err:
            decompose(ComplexField(grid512, vals))
        assert np.min(np.abs(err.value.locations)) < 0.2

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.0, 2.0])
    def test_node_threshold_outside_unit_interval_rejected(self, grid512, threshold):
        psi = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
        with pytest.raises(DomainError, match="node_threshold"):
            decompose(psi, node_threshold=threshold)

    def test_support_excludes_far_tails(self, grid512):
        psi = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
        m = decompose(psi)
        assert m.support[np.argmin(np.abs(grid512.z))]
        assert not m.support[0]  # far tail below threshold

    def test_unwrapped_phase_is_continuous(self, grid512):
        # carrier with several 2 pi wraps across the packet
        psi = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=2.0, k0=3.0), grid512)
        m = decompose(psi)
        sup = m.support
        steps = np.diff(m.S[sup])
        assert np.max(np.abs(steps - np.median(steps))) < 1.0  # no 2 pi jumps


def _reference_node_gaps(mask: list[bool]) -> list[int]:
    """Brute force: read the ring from its first False point; the False
    points strictly between the first and the last True point are nodes."""
    if all(mask):
        return []
    first_false = mask.index(False)
    ring = [(first_false + i) % len(mask) for i in range(len(mask))]
    above = [pos for pos, i in enumerate(ring) if mask[i]]
    return [i for i in ring[above[0]:above[-1] + 1] if not mask[i]]


@given(st.lists(st.booleans(), min_size=1, max_size=40).filter(any))
@example([True] * 7)                                   # all true
@example([True, True, False, False, False, True])      # one run joined across the seam
@example([False, True, False, True, True, False, True])  # several runs
def test_node_gaps_match_brute_force(mask):
    gaps = _node_gaps(np.array(mask))
    assert gaps.tolist() == _reference_node_gaps(mask)
    # interior nodes exist exactly when the ring holds more than one True run
    runs = sum(mask[i] and not mask[i - 1] for i in range(len(mask)))
    assert bool(gaps.size) == (runs > 1)


@given(st.lists(st.booleans(), min_size=16, max_size=16).filter(any))
@example([True] * 16)
@example([True] * 3 + [False] * 10 + [True] * 3)
@example([False, True] * 8)
def test_decompose_support_is_the_threshold_mask(mask):
    grid = Grid1D(16, -1.6, 1.6)
    r = np.where(mask, 1.0, 1e-9)
    psi = ComplexField(grid, r * np.exp(0.7j * np.arange(grid.n)))
    gaps = _reference_node_gaps(mask)
    if gaps:
        with pytest.raises(NodeError) as err:
            decompose(psi)
        assert np.array_equal(err.value.locations, grid.z[gaps])
    else:
        assert np.array_equal(decompose(psi).support, mask)


class TestMadelungFieldValidation:
    def test_negative_amplitude_rejected(self, grid512):
        with pytest.raises(ConfigurationError):
            MadelungField(grid512, -np.ones(grid512.n), np.zeros(grid512.n))

    def test_length_mismatch(self, grid512):
        with pytest.raises(ConfigurationError):
            MadelungField(grid512, np.ones(17), np.zeros(17))

    @pytest.mark.parametrize("shapes", [((3, 512), (3, 512), (512,)), ((3, 512), (2, 512), None),
                                        ((2, 3, 512),) * 3])
    def test_block_shapes_must_agree(self, grid512, shapes):
        r, s, sup = (None if shape is None else np.ones(shape) for shape in shapes)
        with pytest.raises(ConfigurationError, match="must share one shape"):
            MadelungField(grid512, r, s, support=sup)

    def test_transport_takes_one_field(self, grid512):
        one = dispersionless_initial(grid512)
        block = MadelungField(grid512, np.stack([one.R] * 2), np.stack([one.S] * 2),
                              support=np.stack([one.support] * 2))
        with pytest.raises(ConfigurationError, match="one initial field"):
            evolve_dispersionless(block, _transport(dt=1e-3, t_final=0.01))

    def test_current_is_cached_and_read_only(self, grid512):
        # one Im(psi* psi_z) per field, shared by both residuals; a block's
        # rows equal the current of each row's own field
        fields = [decompose(build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0, k0=k0),
                                         grid512)) for k0 in (0.0, 0.7)]
        block = MadelungField(grid512, np.stack([f.R for f in fields]),
                              np.stack([f.S for f in fields]),
                              support=np.stack([f.support for f in fields]))
        for field in fields + [block]:
            assert field.current is field.current
            assert not field.current.flags.writeable
            with pytest.raises(ValueError):
                field.current[0] = 1.0
        assert np.array_equal(block.current, np.stack([f.current for f in fields]))


# ---------------------------------------------------------------------------
# curvature (quantum-potential) term
# ---------------------------------------------------------------------------

class TestQuantumPotential:
    def test_sech_against_symbolic_oracle(self, grid512):
        zsym = sympy.Symbol("z")
        oracle = _sympy_curvature_term(sympy.sech(zsym), zsym)
        m = MadelungField(grid512, 1.0 / np.cosh(grid512.z), np.zeros(grid512.n),
                          support=np.abs(grid512.z) <= 10.0)
        q = quantum_potential(m)
        sup = m.support
        assert np.allclose(q[sup], oracle(grid512.z[sup]), atol=1e-9)
        # closed form -(1/2)(1 - 2 sech^2 z): +1/2 at the peak, -> -1/2 in the tails
        j0 = np.argmin(np.abs(grid512.z))
        assert q[j0] == pytest.approx(0.5, abs=1e-10)
        j_tail = np.argmin(np.abs(grid512.z - 9.0))
        assert q[j_tail] == pytest.approx(-0.5, abs=1e-3)

    def test_gaussian_against_symbolic_oracle(self, grid512):
        sigma = 1.5
        zsym = sympy.Symbol("z")
        oracle = _sympy_curvature_term(sympy.exp(-zsym**2 / (4 * sigma**2)), zsym)
        r = np.exp(-grid512.z**2 / (4 * sigma**2))
        m = MadelungField(grid512, r, np.zeros(grid512.n),
                          support=r >= 1e-6 * r.max())
        q = quantum_potential(m)
        sup = m.support
        assert np.allclose(q[sup], oracle(grid512.z[sup]), atol=1e-7)

    def test_constant_amplitude_gives_zero(self, grid512):
        m = MadelungField(grid512, np.ones(grid512.n), 1.7 * np.ones(grid512.n))
        assert np.max(np.abs(quantum_potential(m))) <= 1e-12


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def _linear_run_pair(grid, t_mid, dt, sigma=1.0, potential=None):
    psi0 = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=sigma), grid)
    fields = []
    for t in (t_mid - dt, t_mid + dt):
        rep = evolve_linear_schrodinger(psi0, SolverConfig(
            scheme=Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=t,
            observe_every=0, potential=potential))
        fields.append(decompose(rep.final_field()))
    return fields[0], fields[1]


class TestResiduals:
    def test_free_plane_wave_zeros_both(self, grid512):
        dk = 2 * np.pi / grid512.length
        k0 = 5 * dk
        # S = k z - (k^2/2) t at two times, R = 1 (hbar = m = 1)
        s_dot = np.full(grid512.n, -0.5 * k0**2)
        m = decompose(build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=k0), grid512))
        hj = hj_residual_from_rate(m, s_dot, potential=0.0, include_q=True)
        assert np.max(np.abs(hj)) <= 1e-9
        cont = continuity_residual_from_rate(m, np.zeros(grid512.n))
        assert np.max(np.abs(cont)) <= 1e-9

    def test_linear_flow_hj_residual_small(self, grid512):
        before, after = _linear_run_pair(grid512, t_mid=1.0, dt=1e-3)
        hj = hj_residual(before, after, 2e-3, potential=0.0, include_q=True)
        assert np.max(np.abs(hj)) <= 5e-4

    def test_linear_flow_continuity_residual_small(self, grid512):
        before, after = _linear_run_pair(grid512, t_mid=1.0, dt=1e-3)
        cont = continuity_residual(before, after, 2e-3)
        assert np.max(np.abs(cont)) <= 5e-4

    def test_residuals_converge_second_order(self, grid512):
        maxima = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            before, after = _linear_run_pair(grid512, t_mid=1.0, dt=dt)
            hj = hj_residual(before, after, 2 * dt, include_q=True)
            maxima.append(np.max(np.abs(hj)))
        order = math.log(maxima[0] / maxima[2]) / math.log(4.0)
        assert order >= 2.0 - 0.2

    def test_without_curvature_equals_minus_q(self, grid512):
        before, after = _linear_run_pair(grid512, t_mid=1.0, dt=1e-3)
        hj_without = hj_residual(before, after, 2e-3, include_q=False)
        from solitonlab.madelung import _pair_midpoint
        mid, _, _ = _pair_midpoint(before, after, 2e-3)
        q = quantum_potential(mid)
        assert np.max(np.abs(hj_without + q)) <= 5e-4

    def test_curvature_cancellation_identity(self, grid512, rng):
        # pure algebra: hj(with) - hj(without) - Q = 0 on arbitrary
        # node-free fields, to machine precision
        for _ in range(5):
            k = grid512.k
            env = np.fft.ifft(np.exp(-k**2) * np.fft.fft(rng.normal(size=grid512.n))).real
            r = 1.0 + 0.5 * env / np.max(np.abs(env))
            s = np.fft.ifft(np.exp(-k**2) * np.fft.fft(rng.normal(size=grid512.n))).real
            field = MadelungField(grid512, r, s)
            s_dot = rng.normal(size=grid512.n)
            v = rng.normal(size=grid512.n)
            with_q = hj_residual_from_rate(field, s_dot, v, include_q=True)
            without_q = hj_residual_from_rate(field, s_dot, v, include_q=False)
            q = quantum_potential(field)
            assert np.max(np.abs(with_q - without_q - q)) <= 1e-13

    def test_uniform_flow_zero_continuity(self, grid512):
        # R const, S linear on the ladder: no flux divergence
        dk = 2 * np.pi / grid512.length
        m = decompose(build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=3 * dk), grid512))
        cont = continuity_residual_from_rate(m, np.zeros(grid512.n))
        assert np.max(np.abs(cont)) <= 1e-9

    def test_grid_mismatch_rejected(self, grid512):
        other = Grid1D(256, -25.6, 25.6)
        a = decompose(build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512))
        b = decompose(build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), other))
        with pytest.raises(ConfigurationError):
            hj_residual(a, b, 1e-3)


def test_polar_residuals_bound_every_row(tmp_path, monkeypatch):
    # the madelung-gaussian settings, run without the CLI
    path = CONFIG_DIR / "madelung-gaussian.json"
    cfg = json.loads(path.read_text())
    grid = Grid1D(**cfg["grid"])
    packet = dict(cfg["packet"])
    psi0 = build_packet(PacketSpec(PacketKind(packet.pop("kind")), **packet), grid)
    config = SolverConfig(scheme=Scheme(cfg["scheme"]), **cfg["solver"])
    rows, snapshots = polar_residuals(evolve_linear_schrodinger(psi0, config), config,
                                      cfg["node_threshold"])
    assert len(rows) == len(snapshots) == 3
    # criterion 7's bound, on every row rather than the first
    assert all(row["max_continuity_residual"] <= 5e-4 for row in rows)
    assert all(set(snap.extra) == {"S", "Q"} for snap in snapshots)
    monkeypatch.delenv("SOLITONLAB_OUT", raising=False)
    assert main(["madelung", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["residuals"] == rows


def _gaussian_linear_run(slope=None, **solver):
    """The madelung-gaussian run, with the potential slope * z if slope is
    given and solver settings overridden: (report, config, node_threshold)."""
    cfg = json.loads((CONFIG_DIR / "madelung-gaussian.json").read_text())
    grid = Grid1D(**cfg["grid"])
    packet = dict(cfg["packet"])
    psi0 = build_packet(PacketSpec(PacketKind(packet.pop("kind")), **packet), grid)
    potential = None if slope is None else slope * grid.z
    config = SolverConfig(scheme=Scheme(cfg["scheme"]), potential=potential,
                          **{**cfg["solver"], **solver})
    return evolve_linear_schrodinger(psi0, config), config, cfg["node_threshold"]


def _pair_config(config: SolverConfig) -> SolverConfig:
    return SolverConfig(scheme=config.scheme, dt=config.dt, t_final=2 * config.dt,
                        observe_every=0, potential=config.potential)


@pytest.mark.parametrize("slope", [None, 0.05])
def test_polar_residuals_match_the_pair_functions(slope):
    # each row equals, bit for bit, the public pair functions that criterion
    # 7 and the demo call on the same pair, and each snapshot's columns are
    # decompose and quantum_potential of its field: on the shipped cadence
    # (3 snapshots, one partial block) and at snapshot_every = 10 (101
    # snapshots, twelve full blocks of 8 and a partial one)
    for every, count in ((None, 3), (10, 101)):
        report, config, threshold = _gaussian_linear_run(
            slope, **({} if every is None else {"snapshot_every": every}))
        rows, enriched = polar_residuals(report, config, threshold)
        gap = 2 * config.dt
        assert len(rows) == len(enriched) == len(report.snapshots) == count
        for row, snap, out in zip(rows, report.snapshots, enriched):
            before = decompose(snap.field, node_threshold=threshold)
            after = decompose(
                evolve_linear_schrodinger(snap.field, _pair_config(config)).final_field(),
                node_threshold=threshold)
            potential = 0.0 if slope is None else config.potential
            hj = hj_residual(before, after, gap, potential=potential)
            cont = continuity_residual(before, after, gap)
            assert row == {"t_mid": snap.t + config.dt, "pair_gap": gap,
                           "max_hj_residual": float(np.max(np.abs(hj))),
                           "max_continuity_residual": float(np.max(np.abs(cont)))}
            assert (out.t, out.field) == (snap.t, snap.field)
            assert set(out.extra) == {"S", "Q"}
            # R is not a column: the snapshot's own |psi| is decompose's R
            assert np.array_equal(np.abs(snap.field.values), before.R)
            assert np.array_equal(out.extra["S"], before.S)
            assert np.array_equal(out.extra["Q"], quantum_potential(before))


@pytest.mark.parametrize("slope", [None, 0.05])
def test_polar_residuals_work_in_blocks(monkeypatch, slope):
    # 101 snapshots at n = 512 go in 13 blocks of up to 8 (BLOCK_VALUES //
    # (2 n)), with no solver call: a block makes at most 12 FFT calls (two
    # steps, 4 with a potential; the current, its divergence and the two Q,
    # 2 each), where a pass per snapshot made 12 or more per snapshot
    report, config, threshold = _gaussian_linear_run(slope, snapshot_every=10)
    assert len(report.snapshots) == 101
    assert BLOCK_VALUES // (2 * report.snapshots[0].field.grid.n) == 8
    solver_calls = []
    monkeypatch.setattr(solvers, "evolve_linear_schrodinger",
                        lambda *args: solver_calls.append(args))
    counts = _count_ffts(monkeypatch)
    rows, _ = polar_residuals(report, config, threshold)
    assert len(rows) == 101
    assert solver_calls == []
    assert counts["rfft"] + counts["irfft"] == 0
    assert counts["fft"] + counts["ifft"] <= 12 * 13


def _bad_field(kind: str, grid: Grid1D) -> ComplexField:
    z = grid.z
    if kind == "node":
        return ComplexField(grid, (z - 1.0) * np.exp(-(z - 1.0) ** 2 / 8.0))
    if kind == "zero":
        return ComplexField(grid, np.zeros(grid.n))
    # no norm the recorder takes: |psi|^2 underflows to zero or overflows to inf
    amplitude = {"tiny": 1e-170, "huge": 1e160}[kind]
    return ComplexField(grid, amplitude * np.exp(-z**2 / 8.0))


@pytest.mark.parametrize("kind", ["node", "zero", "tiny", "huge"])
def test_polar_residuals_raise_the_first_failing_pair_error(kind):
    # snapshot 37 (row 5 of the fifth block) fails; snapshot 60 has a node
    # elsewhere.  The error is the one the one-pair path raises on snapshot
    # 37: decompose's NodeError, or the pair run's DegenerateFieldError or
    # NumericalError, with the same message (and node positions)
    report, config, threshold = _gaussian_linear_run(snapshot_every=10)
    grid = report.snapshots[0].field.grid
    snapshots = list(report.snapshots)
    bad = _bad_field(kind, grid)
    snapshots[37] = Snapshot(snapshots[37].t, bad)
    snapshots[60] = Snapshot(snapshots[60].t, ComplexField(grid, grid.z * np.exp(-grid.z**2)))
    errors = (NodeError, DegenerateFieldError, NumericalError)
    with pytest.raises(errors) as expected:
        decompose(bad, node_threshold=threshold)
        decompose(evolve_linear_schrodinger(bad, _pair_config(config)).final_field(),
                  node_threshold=threshold)
    with pytest.raises(type(expected.value)) as err:
        polar_residuals(dataclasses.replace(report, snapshots=snapshots), config, threshold)
    assert str(err.value) == str(expected.value)
    if kind == "node":
        assert np.array_equal(err.value.locations, expected.value.locations)
        assert np.all(np.abs(err.value.locations - 1.0) < 0.2)


def test_polar_residuals_check_pairs_by_the_recorder_rules(monkeypatch):
    # a rule added to the pair run's recorder reaches the block path: a
    # recorder that finds no finite norm for a row with |psi| > 1.5 rejects
    # snapshot 37, doubled, with the pair run's own message
    report, config, threshold = _gaussian_linear_run(snapshot_every=10)
    observables = solvers.row_observables

    def capped(grid, rows):
        series = observables(grid, rows)
        peaks = np.abs(rows).max(axis=-1).tolist()
        series["norm"] = [math.nan if peak > 1.5 else norm
                          for norm, peak in zip(series["norm"], peaks)]
        return series

    monkeypatch.setattr(solvers, "row_observables", capped)
    snapshots = list(report.snapshots)
    assert max(np.max(np.abs(snap.field.values)) for snap in snapshots) <= 1.0
    doubled = ComplexField(snapshots[37].field.grid, 2.0 * snapshots[37].field.values)
    snapshots[37] = Snapshot(snapshots[37].t, doubled)
    with pytest.raises(NumericalError) as expected:
        evolve_linear_schrodinger(doubled, _pair_config(config))
    with pytest.raises(NumericalError) as err:
        polar_residuals(dataclasses.replace(report, snapshots=snapshots), config, threshold)
    assert str(err.value) == str(expected.value)


def test_polar_residuals_check_each_field_before_a_later_one():
    # snapshot 33 is node-free but its partner is not: it is two humps
    # that, run backwards, had drifted together, so two steps on deepen
    # the dip between them below the threshold.  Snapshot 34 has a node of
    # its own.  The partner of 33 comes first in time, and its NodeError
    # is the one raised, as the one-pair path raises it
    report, config, _ = _gaussian_linear_run(snapshot_every=10)
    grid = report.snapshots[0].field.grid
    z = grid.z
    humps = ComplexField(grid, np.exp(-(z - 3.0) ** 2 / 2.0) + np.exp(-(z + 3.0) ** 2 / 2.0))
    back = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=0.5, observe_every=0)
    field = ComplexField(grid, np.conj(evolve_linear_schrodinger(humps, back).final_field().values))
    partner = evolve_linear_schrodinger(field, _pair_config(config)).final_field()
    dips = [np.min(np.abs(f.values)[np.abs(z) < 3.0]) / np.max(np.abs(f.values))
            for f in (field, partner)]
    threshold = 0.5 * (dips[0] + dips[1])
    assert dips[1] < threshold < dips[0]
    decompose(field, node_threshold=threshold)
    with pytest.raises(NodeError) as expected:
        decompose(partner, node_threshold=threshold)
    snapshots = list(report.snapshots)
    snapshots[33] = Snapshot(snapshots[33].t, field)
    snapshots[34] = Snapshot(snapshots[34].t,
                             ComplexField(grid, (z - 1.0) * np.exp(-(z - 1.0) ** 2)))
    with pytest.raises(NodeError) as err:
        polar_residuals(dataclasses.replace(report, snapshots=snapshots), config, threshold)
    assert str(err.value) == str(expected.value)
    assert np.array_equal(err.value.locations, expected.value.locations)
    assert np.all(np.abs(err.value.locations) < 0.5)  # the dip, not snapshot 34's node at 1


# ---------------------------------------------------------------------------
# curvature-cancelled transport
# ---------------------------------------------------------------------------

def _transport(**kwargs) -> SolverConfig:
    return SolverConfig(scheme=Scheme.DISPERSIONLESS_TRANSPORT, **kwargs)


class TestDispersionlessTransport:
    def test_rigid_translation(self, grid512):
        config = _transport(dt=1e-3, t_final=10.0, observe_every=100)
        initial = dispersionless_initial(grid512, amplitude=1.0, scale=1.0, velocity=1.0,
                                         center=-5.0)
        rep = evolve_dispersionless(initial, config)
        r_final = np.abs(rep.final_field().values)
        r_expected = 1.0 / np.cosh(grid512.z - 5.0)
        assert np.max(np.abs(r_final - r_expected)) <= 1e-5
        widths = rep.observable("rms_width")
        assert np.max(np.abs(widths / widths[0] - 1.0)) <= 1e-6

    def test_rigid_translation_at_dichotomy_step_cap(self, grid512):
        # the step the dichotomy's Courant rule gives a v = 1 packet on
        # test_rigid_translation's cadence, 1e-2, meets its bounds
        initial = dispersionless_initial(grid512, amplitude=1.0, scale=1.0, velocity=1.0,
                                         center=-5.0)
        config = _strided(_transport(dt=1e-3, t_final=10.0, observe_every=100),
                          Scheme.DISPERSIONLESS_TRANSPORT, transport_max_dt(initial))
        rep = evolve_dispersionless(initial, config)
        assert rep.config["dt"] == pytest.approx(TRANSPORT_COURANT * grid512.dz, rel=1e-12)
        assert rep.config["observe_every"] == 10
        r_final = np.abs(rep.final_field().values)
        r_expected = 1.0 / np.cosh(grid512.z - 5.0)
        assert np.max(np.abs(r_final - r_expected)) <= 1e-5
        widths = rep.observable("rms_width")
        assert np.max(np.abs(widths / widths[0] - 1.0)) <= 1e-6

    def test_rest_envelope_fully_stationary(self, grid512):
        config = _transport(dt=1e-3, t_final=2.0)
        initial = dispersionless_initial(grid512, velocity=0.0)
        rep = evolve_dispersionless(initial, config)
        assert np.array_equal(np.abs(rep.final_field().values), initial.R)

    def test_density_conserved(self, grid512):
        config = _transport(dt=1e-3, t_final=10.0, observe_every=100)
        initial = dispersionless_initial(grid512, velocity=1.0, center=-5.0)
        rep = evolve_dispersionless(initial, config)
        assert rep.conservation["max_relative_rho_drift"] <= 1e-8

    def test_classical_correspondence_linear_potential(self, grid512):
        g, v_e, z0 = 0.4, 1.0, -5.0
        config = _transport(dt=1e-3, t_final=5.0, potential_slope=g, observe_every=50)
        initial = dispersionless_initial(grid512, velocity=v_e, center=z0)
        rep = evolve_dispersionless(initial, config)
        z_classical = z0 + v_e * rep.times - 0.5 * g * rep.times**2
        error = np.abs(rep.observable("centroid") - z_classical)
        assert np.max(error) <= 0.01 * max(1.0, np.max(np.abs(z_classical)))

    def test_snapshots_carry_polar_columns(self, grid512):
        config = _transport(dt=1e-3, t_final=0.1, snapshot_every=50)
        rep = evolve_dispersionless(dispersionless_initial(grid512, velocity=0.0), config)
        assert {"R", "S", "Q"} <= set(rep.snapshots[-1].extra)

    @pytest.mark.parametrize("cadence", ["snapshot_every", "observe_every"])
    def test_negative_cadence_rejected(self, cadence):
        with pytest.raises(ConfigurationError, match=f"{cadence} must be >= 0, got -1"):
            _transport(dt=1e-3, t_final=0.1, **{cadence: -1})

    @pytest.mark.parametrize("dt, t_final", [(1e-3, 0.1005), (1e-3, 5e-4), (0.0, 0.1),
                                             (-1e-3, 0.1)])
    def test_dt_and_t_final_follow_the_shared_step_rule(self, dt, t_final):
        # the same message as the other solvers give for the same pair
        with pytest.raises(ConfigurationError) as expected:
            SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=t_final)
        with pytest.raises(ConfigurationError) as err:
            _transport(dt=dt, t_final=t_final)
        assert str(err.value) == str(expected.value)

    def test_cfl_abort(self, grid512):
        config = _transport(dt=1e-2, t_final=1.0)
        initial = dispersionless_initial(grid512, velocity=10.0)
        with pytest.raises(NumericalError):
            evolve_dispersionless(initial, config)

    def test_nonconforming_action_rejected(self, grid512):
        config = _transport(dt=1e-3, t_final=0.1)
        r = 1.0 / np.cosh(grid512.z)
        bad = MadelungField(grid512, r, 0.05 * grid512.z**2,
                            support=r >= 1e-6)
        with pytest.raises(ConfigurationError):
            evolve_dispersionless(bad, config)

    def test_periodic_potential_part_accepted(self, grid512):
        v = 0.05 * np.cos(2 * np.pi * grid512.z / grid512.length)
        config = _transport(dt=1e-3, t_final=0.5, potential=v, observe_every=50)
        rep = evolve_dispersionless(dispersionless_initial(grid512, velocity=0.5), config)
        assert rep.conservation["max_relative_rho_drift"] <= 1e-8


# ---------------------------------------------------------------------------
# envelope amplitude
# ---------------------------------------------------------------------------

class TestSolitonAmplitude:
    def test_zero_potential_is_half_guide_width(self):
        k = electron_constants()
        r = soliton_amplitude(0.0)
        assert r.si == pytest.approx(guide_width(k.m0) / 2.0, rel=1e-14)

    def test_rest_energy_potential_quarters_width(self):
        k = electron_constants()
        r = soliton_amplitude(k.rest_energy)
        assert r.si == pytest.approx(guide_width(k.m0) / 4.0, rel=1e-14)

    def test_monotone_decreasing(self):
        k = electron_constants()
        values = [soliton_amplitude(x * k.rest_energy).si for x in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        k = electron_constants()
        with pytest.raises(DomainError):
            soliton_amplitude(-1.001 * k.rest_energy)

    def test_normalized_image(self):
        k = electron_constants()
        r = soliton_amplitude(0.0)
        assert r.normalized == pytest.approx(math.pi / 2.0, rel=1e-12)
