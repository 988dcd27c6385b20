import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from solitonlab import (
    ComplexField,
    ConfigurationError,
    DegenerateFieldError,
    Grid1D,
    PacketKind,
    PacketSpec,
    Snapshot,
    build_packet,
    observables,
    read_snapshot_csv,
    spectral_derivative,
    write_snapshot_csv,
)
from solitonlab.grid import MAX_GRID_POINTS, row_observables
from solitonlab.report import write_snapshots

SECH_RMS = math.pi / (2 * math.sqrt(3))  # sqrt(pi^2/12), second moment of sech^2


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(64, -8.0, 8.0)
        assert g.dz == 0.25
        assert g.z[0] == -8.0
        assert g.z[-1] == pytest.approx(8.0 - 0.25)

    @pytest.mark.parametrize("n", [8, 100, 513, 0])
    def test_bad_point_count(self, n):
        with pytest.raises(ConfigurationError):
            Grid1D(n, -1.0, 1.0)

    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Grid1D(64, 2.0, 2.0)

    @pytest.mark.parametrize("n", [2 * MAX_GRID_POINTS, 2**30, 2**62])
    def test_point_count_capped_before_allocating(self, n):
        with pytest.raises(ConfigurationError, match="between 16 and 1048576"):
            Grid1D(n, -1.0, 1.0)


def test_spectral_derivative_of_sine():
    g = Grid1D(128, 0.0, 2 * np.pi)
    values = np.sin(3 * g.z)
    d1 = spectral_derivative(values, g, 1)
    assert np.allclose(d1.real, 3 * np.cos(3 * g.z), atol=1e-12)
    d2 = spectral_derivative(values, g, 2)
    assert np.allclose(d2.real, -9 * np.sin(3 * g.z), atol=1e-11)


class TestComplexField:
    def test_length_mismatch(self, grid512):
        with pytest.raises(ConfigurationError):
            ComplexField(grid512, np.zeros(7))

    def test_nonfinite_rejected(self, grid512):
        vals = np.zeros(grid512.n, complex)
        vals[3] = np.nan
        with pytest.raises(ConfigurationError):
            ComplexField(grid512, vals)

    def test_immutable(self, grid512):
        f = ComplexField(grid512, np.ones(grid512.n, complex))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestBuildPacket:
    def test_sech_peak_value(self, grid512):
        # z = 0 falls exactly on the grid
        f = build_packet(PacketSpec(PacketKind.SECH_BREATHER, amplitude=1.0), grid512)
        j = np.argmin(np.abs(grid512.z))
        assert grid512.z[j] == 0.0
        assert f.values[j] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_sech_norm_analytic_and_quadrature(self):
        # integral of a^2 sech^2(a z) dz = 2a
        grid = Grid1D(1024, -51.2, 51.2)
        for a in (1.0, 0.5, 2.0):
            f = build_packet(PacketSpec(PacketKind.SECH_BREATHER, amplitude=a), grid)
            norm = observables(f)["norm"]
            assert norm == pytest.approx(2 * a, rel=1e-10)
            oracle, _ = quad(lambda z: a**2 / np.cosh(a * z) ** 2,
                             grid.z_min, grid.z_max)
            assert norm == pytest.approx(oracle, rel=1e-10)

    def test_gaussian_rms_width(self, grid512):
        f = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0), grid512)
        obs = observables(f)
        assert obs["rms_width"] == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        # quadrature oracle for the second moment of exp(-z^2/sigma^2)
        num, _ = quad(lambda z: z**2 * np.exp(-(z**2)), -25.6, 25.6)
        den, _ = quad(lambda z: np.exp(-(z**2)), -25.6, 25.6)
        assert obs["rms_width"] == pytest.approx(math.sqrt(num / den), rel=1e-9)

    def test_sech_rms_width(self, grid512):
        f = build_packet(PacketSpec(PacketKind.SECH_BREATHER, amplitude=1.0), grid512)
        assert observables(f)["rms_width"] == pytest.approx(SECH_RMS, rel=1e-9)

    def test_centroid_at_center(self, grid512):
        f = build_packet(PacketSpec(PacketKind.SECH_BREATHER, center=3.0), grid512)
        assert abs(observables(f)["centroid"] - 3.0) < grid512.dz

    def test_peak_refinement_off_grid(self, grid512):
        z0 = 3.0 + 0.37 * grid512.dz
        f = build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=1.0, center=z0), grid512)
        assert observables(f)["peak_position"] == pytest.approx(z0, abs=grid512.dz / 10)

    def test_boundary_guard(self, grid512):
        with pytest.raises(ConfigurationError):
            build_packet(PacketSpec(PacketKind.SECH_BREATHER, center=24.0), grid512)
        with pytest.raises(ConfigurationError):
            build_packet(PacketSpec(PacketKind.GAUSSIAN, sigma=8.0), grid512)

    def test_plane_wave_must_sit_on_ladder(self, grid512):
        dk = 2 * np.pi / grid512.length
        build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=4 * dk), grid512)  # ok
        with pytest.raises(ConfigurationError):
            build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=4.5 * dk), grid512)

    def test_bad_amplitude(self):
        with pytest.raises(ConfigurationError):
            PacketSpec(PacketKind.SECH_BREATHER, amplitude=0.0)
        with pytest.raises(ConfigurationError):
            PacketSpec(PacketKind.GAUSSIAN, sigma=-1.0)


class TestObservables:
    def test_zero_field(self, grid512):
        with pytest.raises(DegenerateFieldError):
            observables(ComplexField(grid512, np.zeros(grid512.n, complex)))

    def test_scaling_homogeneity(self, grid512):
        f = build_packet(PacketSpec(PacketKind.SECH_BREATHER), grid512)
        obs1 = observables(f)
        obs2 = observables(ComplexField(grid512, 2.0 * f.values))
        assert obs2["norm"] == pytest.approx(4 * obs1["norm"], rel=1e-14)
        assert obs2["centroid"] == pytest.approx(obs1["centroid"], abs=1e-14)
        assert obs2["rms_width"] == pytest.approx(obs1["rms_width"], rel=1e-14)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_global_phase_invariance(self, theta):
        grid = Grid1D(256, -25.6, 25.6)
        f = build_packet(PacketSpec(PacketKind.SECH_BREATHER), grid)
        obs1 = observables(f)
        obs2 = observables(ComplexField(grid, np.exp(1j * theta) * f.values))
        for key in obs1:
            assert obs2[key] == pytest.approx(obs1[key], rel=1e-12, abs=1e-12)

    def test_norm_stable_under_refinement(self):
        # spectral accuracy of the rectangle rule on smooth periodic data
        coarse = build_packet(PacketSpec(PacketKind.SECH_BREATHER),
                              Grid1D(256, -25.6, 25.6))
        fine = build_packet(PacketSpec(PacketKind.SECH_BREATHER),
                            Grid1D(512, -25.6, 25.6))
        n1 = observables(coarse)["norm"]
        n2 = observables(fine)["norm"]
        assert abs(n2 - n1) / n1 <= 1e-8

    def test_equal_bit_for_bit_to_their_row_in_a_block(self, grid512):
        rng = np.random.default_rng(3)
        fields = [
            build_packet(PacketSpec(PacketKind.SECH_BREATHER, velocity=1.0), grid512),
            build_packet(PacketSpec(PacketKind.GAUSSIAN, center=2.0, k0=1.0), grid512),
            build_packet(PacketSpec(PacketKind.PLANE_WAVE, k0=2 * math.pi / 51.2), grid512),
            ComplexField(grid512, rng.normal(size=512) + 1j * rng.normal(size=512)),
            # the peak at index 0: its parabolic fit takes the last point as neighbour
            ComplexField(grid512, np.exp(-((np.arange(512) + 256) % 512 - 256) ** 2 / 50.0)),
        ]
        block = row_observables(grid512, np.array([f.values for f in fields]))
        assert list(block) == ["norm", "centroid", "rms_width", "peak_position"]
        for i, f in enumerate(fields):
            one = observables(f)
            assert list(one) == list(block)
            for key, value in one.items():
                assert type(value) is float
                assert value == block[key][i]


def test_snapshot_csv_round_trip(tmp_path, grid512):
    f = build_packet(PacketSpec(PacketKind.SECH_BREATHER, velocity=1.0), grid512)
    extra = {"R": np.abs(f.values)}
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, Snapshot(1.25, f, extra))
    t, cols = read_snapshot_csv(path)
    assert t == 1.25
    assert np.allclose(cols["z"], grid512.z)
    assert np.allclose(cols["re"] + 1j * cols["im"], f.values)
    assert np.allclose(cols["abs2"], np.abs(f.values) ** 2)
    assert np.allclose(cols["R"], extra["R"])


def _row_loop_csv(path, snapshot):
    """The snapshot CSV written the straightforward way: csv.writer, one row
    of repr(float) values per grid point."""
    grid = snapshot.field.grid
    vals = snapshot.field.values
    names = sorted(snapshot.extra)
    with open(path, "w", newline="") as fh:
        fh.write(f"# t = {snapshot.t!r}\n")
        fh.write(f"# n = {grid.n} z_min = {grid.z_min!r} z_max = {grid.z_max!r} dz = {grid.dz!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["z", "re", "im", "abs2"] + names)
        abs2 = np.abs(vals) ** 2
        for j in range(grid.n):
            row = [repr(float(grid.z[j])), repr(float(vals[j].real)),
                   repr(float(vals[j].imag)), repr(float(abs2[j]))]
            writer.writerow(row + [repr(float(snapshot.extra[name][j])) for name in names])


def test_snapshot_csv_bytes_match_row_loop(tmp_path):
    grid = Grid1D(32, -1.6, 1.6)
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 5e-324, 1e20, 1e-5, -1e-300, 1.0 / 3.0, 0.0, -7.0])
    values = rng.normal(size=32) * 10.0 ** rng.integers(-12, 12, 32)
    values[:8] = special
    psi = ComplexField(grid, values + 1j * np.roll(special.repeat(4), 3))
    extra = {
        "Q": np.roll(values, 5),
        "S": special.repeat(4),
        "R": np.arange(32),  # integer column, written as floats
        "V2": rng.random(32).astype(np.float32),
    }
    for t, cols in ((0.1 + 0.2, extra), (0.0, {})):
        snapshot = Snapshot(t, psi, cols)
        write_snapshot_csv(tmp_path / "fast.csv", snapshot)
        _row_loop_csv(tmp_path / "loop.csv", snapshot)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_write_snapshots_bytes_match_row_loop(tmp_path):
    # snapshots on two grids, interleaved, some with extra columns: each
    # grid's z column is rendered once and reused, which must not show
    rng = np.random.default_rng(7)
    grids = (Grid1D(16, -0.8, 0.8), Grid1D(32, -np.pi, 1.0 / 3.0))
    snapshots = []
    for i, grid in enumerate(grids * 2):
        psi = ComplexField(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
        extra = {} if i == 1 else {"R": np.abs(psi.values), "Q": rng.normal(size=grid.n) * 1e-9}
        snapshots.append(Snapshot(0.1 * i, psi, extra))
    paths = write_snapshots(snapshots, tmp_path / "snapshots")
    assert [p.name for p in paths] == [f"snapshot-{i:04d}.csv" for i in range(4)]
    for path, snapshot in zip(paths, snapshots):
        _row_loop_csv(tmp_path / "loop.csv", snapshot)
        assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()
