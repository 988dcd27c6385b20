"""The FFT-bound step kernels: cached grid arrays, the real-FFT derivative,
the batched transport RK4, the merged NLS Strang, fourth-order Suzuki and
sixth-order Kahan-Li steps, the Klein-Gordon exact propagator in blocks
of record rows and the linear Schrodinger step, how many FFTs each step
or block makes, and that no reused step buffer reaches a record.

The references here are written out in the tests (the unmerged Strang
loop and compositions, the Klein-Gordon closed form one record at a time,
the tuple-form transport RK4 with complex-FFT derivatives) so the kernels
are checked against the straightforward form of the same arithmetic.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from solitonlab import (
    ComplexField,
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
    kg_energy,
    nls_breather_exact,
    observables,
    one_branch_time_derivative,
    spectral_derivative,
)
from solitonlab import madelung, solvers
from solitonlab.grid import real_spectral_derivative

COMPLEX_FFTS = ("fft", "ifft")
REAL_FFTS = ("rfft", "irfft")


def _count_ffts(monkeypatch) -> Counter:
    """Count calls of the numpy.fft functions the package modules use."""
    counts = Counter()
    for name in COMPLEX_FFTS + REAL_FFTS:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


# ---------------------------------------------------------------------------
# cached grid arrays
# ---------------------------------------------------------------------------

class TestCachedGridArrays:
    @pytest.mark.parametrize("n,z_min,z_max", [(16, -1.0, 1.0), (512, -25.6, 25.6),
                                               (1024, -51.2, 51.2), (64, 0.0, 2 * np.pi)])
    def test_equal_to_the_formulas(self, n, z_min, z_max):
        g = Grid1D(n, z_min, z_max)
        assert np.array_equal(g.z, z_min + g.dz * np.arange(n))
        assert np.array_equal(g.k, 2.0 * np.pi * np.fft.fftfreq(n, d=g.dz))

    def test_read_only(self, grid512):
        for arr in (grid512.z, grid512.k):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_same_object_on_every_access(self, grid512):
        assert grid512.z is grid512.z
        assert grid512.k is grid512.k

    def test_equality_and_hash_use_the_bounds_only(self):
        a, b = Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((64, -8.0, 8.0))
        assert len({a, b}) == 1
        assert a != Grid1D(64, -8.0, 8.5)
        assert repr(a) == "Grid1D(n=64, z_min=-8.0, z_max=8.0)"

    def test_arrays_stay_plain_properties(self):
        # instrumentation wraps the getter of Grid1D.k / Grid1D.z
        assert isinstance(vars(Grid1D)["k"], property)
        assert isinstance(vars(Grid1D)["z"], property)


# ---------------------------------------------------------------------------
# real-FFT first derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 512, 1024])
def test_real_derivative_matches_complex(n, rng):
    grid = Grid1D(n, -0.05 * n, 0.05 * n)
    for _ in range(3):
        values = rng.normal(size=n)
        got = real_spectral_derivative(values, grid)
        assert got.dtype == np.float64 and got.shape == (n,)
        ref = spectral_derivative(values, grid, 1).real
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_real_derivative_zeroes_nyquist():
    grid = Grid1D(32, 0.0, 32.0)
    nyquist = np.cos(np.pi * np.arange(32))
    assert np.max(np.abs(real_spectral_derivative(nyquist, grid))) <= 1e-15


# ---------------------------------------------------------------------------
# merged NLS Strang and composed steps
# ---------------------------------------------------------------------------

def _unmerged_nls_states(psi0: np.ndarray, grid: Grid1D, dt: float, n_steps: int,
                         weights=(1.0,)):
    """Every state of the plain composed loop: per weight w, a Strang step of
    w dt (half kinetic, nonlinear, half kinetic)."""
    psi = psi0.copy()
    states = [psi.copy()]
    for _ in range(n_steps):
        for w in weights:
            half_kinetic = np.exp(-0.5j * grid.k**2 * w * dt)
            psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
            psi = psi * np.exp(2j * w * dt * np.abs(psi) ** 2)
            psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
        states.append(psi)
    return states


@pytest.mark.parametrize("n_steps,observe_every,snapshot_every", [
    (30, 0, 0),
    (30, 1, 0),
    (30, 7, 0),
    (30, 0, 7),  # 7 does not divide 30
    (30, 7, 4),
    (1, 0, 0),
    (1, 1, 1),
])
def test_merged_nls_matches_unmerged_loop(grid512, n_steps, observe_every, snapshot_every):
    dt = 1e-3
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 1.0, z0=-5.0))
    config = SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=n_steps * dt,
                          observe_every=observe_every, snapshot_every=snapshot_every)
    report = evolve_nls(psi0, config)
    states = _unmerged_nls_states(psi0.values, grid512, dt, n_steps)
    observed, snapped = _cadence(n_steps, observe_every), _cadence(n_steps, snapshot_every)
    assert np.allclose(report.times, np.array(observed) * dt, rtol=0.0, atol=1e-15)
    for i, step in enumerate(observed):
        expected = observables(ComplexField(grid512, states[step]))
        for key, value in expected.items():
            assert abs(report.observable(key)[i] - value) <= 1e-10
    assert [s.t for s in report.snapshots] == [step * dt for step in snapped]
    for snap, step in zip(report.snapshots, snapped):
        assert np.max(np.abs(snap.field.values - states[step])) <= 1e-10


_W1 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
#: the composed steps' weights, written out: Suzuki's five-stage, and Kahan & Li's s9odr6a
COMPOSITIONS = {
    4: (_W1, _W1, 1.0 - 4.0 * _W1, _W1, _W1),
    6: (0.39216144400731413928, 0.33259913678935943860, -0.70624617255763935981,
        0.08221359629355080023, 0.79854399093482996340, 0.08221359629355080023,
        -0.70624617255763935981, 0.33259913678935943860, 0.39216144400731413928),
}


# the order-4 ids are the bare cadence, so they stay put as orders are added;
# the name, from the three-stage composition order 4 once was, stays for the same reason
@pytest.mark.parametrize("order,n_steps,observe_every,snapshot_every", [
    pytest.param(order, *cadence,
                 id="-".join(map(str, cadence if order == 4 else (f"order{order}",) + cadence)))
    for order in (4, 6) for cadence in ((12, 0, 0), (12, 1, 0), (12, 5, 3), (1, 1, 1))
])
def test_merged_yoshida_matches_unmerged_composition(grid512, order, n_steps, observe_every,
                                                     snapshot_every):
    dt = 1e-2
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 1.0, z0=-5.0))
    config = SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=n_steps * dt, order=order,
                          observe_every=observe_every, snapshot_every=snapshot_every)
    report = evolve_nls(psi0, config)
    states = _unmerged_nls_states(psi0.values, grid512, dt, n_steps, COMPOSITIONS[order])
    observed, snapped = _cadence(n_steps, observe_every), _cadence(n_steps, snapshot_every)
    assert [round(t / dt) for t in report.times] == observed
    for i, step in enumerate(observed):
        for key, value in observables(ComplexField(grid512, states[step])).items():
            assert abs(report.observable(key)[i] - value) <= 1e-10
    assert [round(snap.t / dt) for snap in report.snapshots] == snapped
    for snap, step in zip(report.snapshots, snapped):
        assert np.max(np.abs(snap.field.values - states[step])) <= 1e-10


def test_nls_fft_count_with_recording_off(monkeypatch, grid512):
    counts = _count_ffts(monkeypatch)
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 0.0))
    for n_steps in (1, 2, 25):
        counts.clear()
        evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=n_steps * 1e-3,
                                      observe_every=0, snapshot_every=0))
        assert counts["fft"] + counts["ifft"] == 2 * n_steps + 2
        assert counts["rfft"] + counts["irfft"] == 0


def test_suzuki_makes_five_fft_pairs_per_step(monkeypatch, grid512):
    counts = _count_ffts(monkeypatch)
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 0.0))
    for n_steps in (1, 2, 25):
        counts.clear()
        evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=n_steps * 1e-3,
                                      observe_every=0, snapshot_every=0, order=4))
        assert counts["fft"] + counts["ifft"] == 10 * n_steps + 2
        assert counts["rfft"] + counts["irfft"] == 0


def test_kahan_li_makes_nine_fft_pairs_per_step(monkeypatch, grid512):
    counts = _count_ffts(monkeypatch)
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 0.0))
    for n_steps in (1, 2, 25):
        counts.clear()
        evolve_nls(psi0, SolverConfig(scheme=Scheme.NLS, dt=1e-3, t_final=n_steps * 1e-3,
                                      observe_every=0, snapshot_every=0, order=6))
        assert counts["fft"] + counts["ifft"] == 18 * n_steps + 2
        assert counts["rfft"] + counts["irfft"] == 0


def _allocating_nls_records(psi0: np.ndarray, grid: Grid1D, config: SolverConfig,
                            record_steps: list[int]) -> dict[int, np.ndarray]:
    """The merged Strang loop with every operation returning a new array.
    Returns {step: field} on record_steps."""
    dt, n_steps = config.dt, config.n_steps()
    k2 = grid.k**2
    half_kinetic = np.exp(-0.5j * k2 * dt)
    kinetic = np.exp(-1j * k2 * dt)
    states = {0: psi0.copy()}
    psi = np.fft.ifft(half_kinetic * np.fft.fft(psi0))
    for step in range(1, n_steps + 1):
        psi = psi * np.exp(2j * dt * np.abs(psi) ** 2)
        spectrum = np.fft.fft(psi)
        if step in record_steps:
            states[step] = np.fft.ifft(half_kinetic * spectrum)
        if step < n_steps:
            psi = np.fft.ifft(kinetic * spectrum)
    return states


@pytest.mark.parametrize("n_steps,observe_every,snapshot_every", [
    (60, 0, 0),
    (60, 1, 0),
    (60, 7, 13),
    (1, 0, 0),
])
def test_inplace_nls_matches_allocating_loop(grid512, n_steps, observe_every, snapshot_every):
    dt, probe_index = 1e-3, 206  # the probe sits at the packet centre z = -5
    psi0 = ComplexField(grid512, nls_breather_exact(grid512.z, 0.0, 1.0, 1.0, z0=-5.0))
    config = SolverConfig(scheme=Scheme.NLS, dt=dt, t_final=n_steps * dt,
                          observe_every=observe_every, snapshot_every=snapshot_every,
                          probe_index=probe_index)
    report = evolve_nls(psi0, config)
    observed, snapped = _cadence(n_steps, observe_every), _cadence(n_steps, snapshot_every)
    states = _allocating_nls_records(psi0.values, grid512, config, observed + snapped)
    peak = np.max(np.abs(psi0.values))

    assert [round(t / dt) for t in report.times] == observed
    probe = report.observable("probe_re") + 1j * report.observable("probe_im")
    expected_probe = np.array([states[s][probe_index] for s in observed])
    assert np.max(np.abs(probe - expected_probe)) <= 1e-13 * peak
    for i, step in enumerate(observed):
        for key, value in observables(ComplexField(grid512, states[step])).items():
            assert abs(report.observable(key)[i] - value) <= 1e-13 * max(1.0, abs(value))
    assert [round(snap.t / dt) for snap in report.snapshots] == snapped
    for snap, step in zip(report.snapshots, snapped):
        assert np.max(np.abs(snap.field.values - states[step])) <= 1e-13 * peak


def _cadence(n_steps: int, every: int) -> list[int]:
    return [s for s in range(n_steps + 1) if s in (0, n_steps) or (every > 0 and s % every == 0)]


def _relative(got, expected) -> float:
    return float(np.max(np.abs(np.asarray(got) - expected)) / np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# Klein-Gordon exact propagator, in blocks of record rows
# ---------------------------------------------------------------------------

def _kg_closed_form(psi0: ComplexField, dpsi0: ComplexField, t: float):
    """(psi, psi_t) at time t, each mode by its closed form
    psi^(t) = psi^_0 cos(w t) + psi^_t0 sin(w t) / w, w = sqrt(1 + k^2),
    for one record at a time."""
    omega = np.sqrt(1.0 + psi0.grid.k**2)
    spec, vel = np.fft.fft(psi0.values), np.fft.fft(dpsi0.values)
    cos, sin = np.cos(omega * t), np.sin(omega * t)
    return (np.fft.ifft(spec * cos + vel * sin / omega),
            np.fft.ifft(vel * cos - spec * omega * sin))


_PLANE_WAVE_GRID = Grid1D(512, -8 * np.pi, 8 * np.pi)


@pytest.mark.parametrize("grid,packet,n_steps,observe_every,snapshot_every,probe_index", [
    (_PLANE_WAVE_GRID, PacketSpec(kind=PacketKind.PLANE_WAVE, k0=0.75), 2000, 10, 0, 7),
    (Grid1D(512, -25.6, 25.6), PacketSpec(kind=PacketKind.GAUSSIAN, k0=1.0),
     500, 7, 13, None),
    (Grid1D(64, -25.6, 25.6), PacketSpec(kind=PacketKind.GAUSSIAN, sigma=3.0, k0=0.5),
     3000, 1, 0, 20),
], ids=["plane-wave", "gaussian", "coarse-grid-many-records"])
def test_kg_matches_closed_form(grid, packet, n_steps, observe_every, snapshot_every,
                                probe_index):
    dt = 1e-3
    psi0 = build_packet(packet, grid)
    dpsi0 = one_branch_time_derivative(psi0)
    config = SolverConfig(scheme=Scheme.KLEIN_GORDON, dt=dt, t_final=n_steps * dt,
                          observe_every=observe_every, snapshot_every=snapshot_every,
                          probe_index=probe_index)
    report = evolve_klein_gordon(psi0, dpsi0, config)
    observed, snapped = _cadence(n_steps, observe_every), _cadence(n_steps, snapshot_every)

    assert [round(t / dt) for t in report.times] == observed
    assert [round(snap.t / dt) for snap in report.snapshots] == snapped
    for snap, step in zip(report.snapshots, snapped):
        assert _relative(snap.field.values, _kg_closed_form(psi0, dpsi0, step * dt)[0]) <= 1e-12
    if probe_index is not None:
        probe = np.array([_kg_closed_form(psi0, dpsi0, s * dt)[0][probe_index]
                          for s in observed])
        got = report.observable("probe_re") + 1j * report.observable("probe_im")
        assert _relative(got, probe) <= 1e-12


def _energy_in_z(psi: np.ndarray, psi_t: np.ndarray, grid: Grid1D) -> float:
    """integral(|psi_t|^2 + |psi_z|^2 + |psi|^2) dz summed in z,
    psi_z by one spectral FFT pair."""
    psi_z = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    density = np.abs(psi_t) ** 2 + np.abs(psi_z) ** 2 + np.abs(psi) ** 2
    return float(np.sum(density) * grid.dz)


@pytest.mark.parametrize("grid,packet,observe_every", [
    (_PLANE_WAVE_GRID, PacketSpec(kind=PacketKind.PLANE_WAVE, k0=0.75), 10),
    (Grid1D(512, -25.6, 25.6), PacketSpec(kind=PacketKind.GAUSSIAN, k0=1.0), 1),
], ids=["plane-wave", "gaussian"])
def test_spectral_kg_energy_matches_energy_in_z(grid, packet, observe_every):
    dt, n_steps = 1e-3, 200
    psi0 = build_packet(packet, grid)
    dpsi0 = one_branch_time_derivative(psi0)
    config = SolverConfig(scheme=Scheme.KLEIN_GORDON, dt=dt, t_final=n_steps * dt,
                          observe_every=observe_every)
    report = evolve_klein_gordon(psi0, dpsi0, config)
    observed = _cadence(n_steps, observe_every)
    fields = [_kg_closed_form(psi0, dpsi0, s * dt) for s in observed]

    in_z = np.array([_energy_in_z(psi, psi_t, grid) for psi, psi_t in fields])
    assert _relative(report.observable("energy"), in_z) <= 1e-13
    # the public kg_energy is row-wise: one value per row of a block
    rows, rows_t = (np.array(column) for column in zip(*fields))
    public = kg_energy(rows, rows_t, grid)
    assert public.shape == (len(observed),)
    assert _relative(public, in_z) <= 1e-13
    assert isinstance(kg_energy(*fields[0], grid), float)


@pytest.mark.parametrize("n", [64, 512, 8192])
def test_kg_fft_count_is_two_plus_one_per_block(monkeypatch, n):
    grid = Grid1D(n, -25.6, 25.6)
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, sigma=3.0, k0=0.5), grid)
    dpsi0 = one_branch_time_derivative(psi0)
    rows = max(1, solvers.BLOCK_VALUES // n)  # 128, 16 and 1 rows per block
    counts = _count_ffts(monkeypatch)

    def total(records, every):
        counts.clear()
        evolve_klein_gordon(psi0, dpsi0, SolverConfig(
            scheme=Scheme.KLEIN_GORDON, dt=1e-3, t_final=records * every * 1e-3,
            observe_every=every))
        assert counts["rfft"] + counts["irfft"] == 0
        return counts["fft"] + counts["ifft"]

    for records in (1, 16, 17, 40):
        # the two opening ffts, then one ifft per block of the records after step 0
        expected = 2 + -(-records // rows)
        assert total(records, 1) == expected
        # none between records: ten times the steps, the same records
        assert total(records, 10) == expected


# ---------------------------------------------------------------------------
# linear Schrodinger step on the spectrum, merged potential phases
# ---------------------------------------------------------------------------

def _split_linear_states(psi0: np.ndarray, grid: Grid1D, dt: float, n_steps: int,
                         potential: np.ndarray | None):
    """Every state of the plain Strang loop: half phase, kinetic step, half phase."""
    v = np.zeros(grid.n) if potential is None else potential
    half_pot = np.exp(-0.5j * v * dt)
    kinetic = np.exp(-0.5j * grid.k**2 * dt)
    psi = psi0.copy()
    states = [psi.copy()]
    for _ in range(n_steps):
        psi = psi * half_pot
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = psi * half_pot
        states.append(psi)
    return states


def _harmonic(grid: Grid1D) -> np.ndarray:
    return 0.05 * grid.z**2


@pytest.mark.parametrize("with_potential", [False, True], ids=["free", "harmonic"])
@pytest.mark.parametrize("n_steps,observe_every,snapshot_every", [
    (60, 0, 0),
    (60, 1, 0),
    (60, 7, 13),
    (1, 0, 0),
])
def test_spectral_linear_matches_split_loop(grid512, with_potential, n_steps, observe_every,
                                            snapshot_every):
    dt = 1e-3
    potential = _harmonic(grid512) if with_potential else None
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, center=2.0, k0=1.0), grid512)
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=n_steps * dt,
                          observe_every=observe_every, snapshot_every=snapshot_every,
                          potential=potential)
    report = evolve_linear_schrodinger(psi0, config)
    states = _split_linear_states(psi0.values, grid512, dt, n_steps, potential)

    observed, snapped = _cadence(n_steps, observe_every), _cadence(n_steps, snapshot_every)
    assert [round(t / dt) for t in report.times] == observed
    for i, step in enumerate(observed):
        for key, value in observables(ComplexField(grid512, states[step])).items():
            assert abs(report.observable(key)[i] - value) <= 1e-10 * max(1.0, abs(value))
    assert [round(snap.t / dt) for snap in report.snapshots] == snapped
    for snap, step in zip(report.snapshots, snapped):
        assert _relative(snap.field.values, states[step]) <= 1e-10


def test_merged_potential_phases_over_a_long_run(grid512):
    dt, n_steps = 1e-3, 2000
    potential = _harmonic(grid512)
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, center=2.0, k0=1.0), grid512)
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=n_steps * dt,
                          observe_every=0, potential=potential)
    final = evolve_linear_schrodinger(psi0, config).final_field().values
    expected = _split_linear_states(psi0.values, grid512, dt, n_steps, potential)[-1]
    assert _relative(final, expected) <= 1e-10
    # the packet oscillated in the well: the comparison is not of a still state
    assert _relative(expected, psi0.values) > 0.5


def _kg_run(grid, n_steps):
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, k0=1.0), grid)
    config = SolverConfig(scheme=Scheme.KLEIN_GORDON, dt=1e-3, t_final=n_steps * 1e-3,
                          observe_every=0, snapshot_every=0)
    evolve_klein_gordon(psi0, one_branch_time_derivative(psi0), config)


def _linear_run(grid, n_steps, potential=None, psi0=None):
    if psi0 is None:
        psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, k0=1.0), grid)
    config = SolverConfig(scheme=Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=n_steps * 1e-3,
                          observe_every=0, snapshot_every=0, potential=potential)
    evolve_linear_schrodinger(psi0, config)


@pytest.mark.parametrize("run", [
    _kg_run,
    _linear_run,
], ids=["klein-gordon", "free-linear"])
def test_linear_schemes_make_no_fft_per_step(monkeypatch, grid512, run):
    counts = _count_ffts(monkeypatch)

    def total(n_steps):
        counts.clear()
        run(grid512, n_steps)
        assert counts["rfft"] + counts["irfft"] == 0
        return counts["fft"] + counts["ifft"]

    assert total(10) == total(20) > 0


def test_linear_with_potential_makes_one_fft_pair_per_step(monkeypatch, grid512):
    # built before the count starts: build_packet's own FFT is not the solver's
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, k0=1.0), grid512)
    counts = _count_ffts(monkeypatch)
    potential = _harmonic(grid512)

    def total(n_steps):
        counts.clear()
        _linear_run(grid512, n_steps, potential, psi0)
        return counts["fft"] + counts["ifft"]

    assert total(20) - total(10) == 2 * 10
    assert total(1) == 2  # the opening fft and the final record step's ifft


# ---------------------------------------------------------------------------
# reused step buffers never reach a record
# ---------------------------------------------------------------------------

def _evolve(scheme: Scheme, grid: Grid1D, n_steps: int, every: int):
    """A run of n_steps that observes and snapshots every `every` steps."""
    dt = 1e-3
    config = SolverConfig(scheme=scheme, dt=dt, t_final=n_steps * dt, observe_every=every,
                          snapshot_every=every)
    if scheme is Scheme.NLS:
        return evolve_nls(ComplexField(grid, nls_breather_exact(grid.z, 0.0, 1.0, 1.0, z0=-5.0)),
                          config)
    psi0 = build_packet(PacketSpec(kind=PacketKind.GAUSSIAN, center=2.0, k0=1.0), grid)
    if scheme is Scheme.KLEIN_GORDON:
        return evolve_klein_gordon(psi0, one_branch_time_derivative(psi0), config)
    if scheme is Scheme.DISPERSIONLESS_TRANSPORT:
        return evolve_dispersionless(dispersionless_initial(grid, velocity=1.0, center=-5.0),
                                     config)
    return evolve_linear_schrodinger(psi0, dataclasses.replace(config, potential=_harmonic(grid)))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_mid_run_snapshot_equals_final_field_of_shorter_run(grid512, scheme):
    report = _evolve(scheme, grid512, 30, 10)
    assert [round(snap.t / 1e-3) for snap in report.snapshots] == [0, 10, 20, 30]
    for i, steps in ((1, 10), (2, 20)):
        shorter = _evolve(scheme, grid512, steps, 0)
        assert _relative(report.snapshots[i].field.values,
                         shorter.final_field().values) <= 1e-13
        for key, series in shorter.observables.items():
            assert report.observable(key)[i] == pytest.approx(series[-1], rel=1e-13, abs=1e-13)
    # the snapshots are distinct states, not one buffer seen four times
    assert _relative(report.snapshots[1].field.values, report.snapshots[2].field.values) > 1e-3


# ---------------------------------------------------------------------------
# real-FFT transport
# ---------------------------------------------------------------------------

def _moving_packet_run(grid: Grid1D, n_steps: int):
    """(report, config, initial state) of a v = 1 packet in a cosine potential."""
    v = 0.05 * np.cos(2 * np.pi * grid.z / grid.length)
    config = SolverConfig(scheme=Scheme.DISPERSIONLESS_TRANSPORT, dt=1e-3, t_final=n_steps * 1e-3,
                          potential=v, observe_every=10, snapshot_every=50)
    initial = dispersionless_initial(grid, velocity=1.0, center=-5.0)
    return evolve_dispersionless(initial, config), config, initial


def _tuple_rk4_reference(initial, config: SolverConfig, grid: Grid1D):
    """The transport RK4 in its straightforward form: (R^2, s, kappa) as a
    tuple, s_z recomputed from s at every stage with the complex-FFT
    derivative.  Returns {step: (R^2, s, kappa)} for every step."""
    v = config.potential
    mass, dt = 1.0, config.dt
    kappa0, s0 = madelung._extract_linear_slope(initial)

    def rhs(state):
        rho, s, kappa = state
        s_z = kappa + spectral_derivative(s, grid, 1).real
        drho = -spectral_derivative(rho * s_z / mass, grid, 1).real
        return drho, -(s_z**2 / (2.0 * mass) + v), -config.potential_slope

    def axpy(state, h, k):
        return tuple(a + h * b for a, b in zip(state, k))

    state = (initial.R ** 2, s0, kappa0)
    states = {0: state}
    for step in range(1, config.n_steps() + 1):
        k1 = rhs(state)
        k2 = rhs(axpy(state, 0.5 * dt, k1))
        k3 = rhs(axpy(state, 0.5 * dt, k2))
        k4 = rhs(axpy(state, dt, k3))
        state = tuple(a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4))
        states[step] = state
    return states


def test_real_fft_transport_matches_complex_reference(grid512):
    report, config, initial = _moving_packet_run(grid512, 200)
    states = _tuple_rk4_reference(initial, config, grid512)

    steps = [round(t / config.dt) for t in report.times]
    assert steps == [0, *range(10, 201, 10)]
    for i, step in enumerate(steps):
        rho, s, kappa = states[step]
        r = np.sqrt(np.clip(rho, 0.0, None))
        expected = observables(ComplexField(grid512, r * np.exp(1j * (kappa * grid512.z + s))))
        expected["rho_integral"] = float(np.sum(rho) * grid512.dz)
        for key, value in expected.items():
            assert abs(report.observable(key)[i] - value) <= 1e-10
    assert len(report.snapshots) == 5
    for snap in report.snapshots:
        rho, s, kappa = states[round(snap.t / config.dt)]
        # the evolved state is (R^2, S).  R = sqrt(R^2) turns roundoff-level
        # density in the far tails into ~1e-9, so the field is compared on
        # the support.  Q = -R''/(2R) is left out: dividing the spectral
        # R'' of that tail noise by a small R amplifies roundoff to ~1e-3
        # at the support edge, in either transform.
        r = np.sqrt(np.clip(rho, 0.0, None))
        support = r >= 1e-6 * np.max(r)
        psi = r * np.exp(1j * (kappa * grid512.z + s))
        assert np.max(np.abs(snap.extra["R"] ** 2 - rho)) <= 1e-10
        assert np.max(np.abs(snap.extra["S"] - (kappa * grid512.z + s))) <= 1e-10
        assert np.max(np.abs(snap.field.values - psi)[support]) <= 1e-10
    # the packet really moved
    centroid = report.observable("centroid")
    assert centroid[-1] - centroid[0] == pytest.approx(0.2, abs=1e-3)


def test_carried_slope_tracks_the_action_derivative(monkeypatch, grid512):
    # u = ds/dz rides in the RK4 state; at each record step it must still
    # equal the derivative of the carried s, with a potential and a slope g
    carried = []

    class Capture(madelung._Recorder):
        def run(self, advance, rows=1):
            # the transport's advance keeps its RK4 state y in a closure
            # cell; read (s, u) from it once each record step is reached
            y = advance.__closure__[advance.__code__.co_freevars.index("y")].cell_contents

            def advance_and_capture(done, block):
                fields = advance(done, block)
                carried.append((y[1].copy(), y[2].copy()))
                return fields

            return super().run(advance_and_capture, rows)

    monkeypatch.setattr(madelung, "_Recorder", Capture)
    v = 0.05 * np.cos(2 * np.pi * grid512.z / grid512.length)
    config = SolverConfig(scheme=Scheme.DISPERSIONLESS_TRANSPORT, dt=1e-3, t_final=2.0, potential=v,
                          potential_slope=0.4, observe_every=100)
    evolve_dispersionless(dispersionless_initial(grid512, velocity=1.0, center=-5.0), config)
    assert len(carried) == 21
    worst = max(np.max(np.abs(u - real_spectral_derivative(s, grid512))) for s, u in carried)
    assert worst <= 1e-10
    # the run is not trivial: s moved away from its initial value
    assert np.max(np.abs(carried[-1][1] - carried[0][1])) > 1e-2


def test_transport_steps_make_no_complex_ffts(monkeypatch, grid512):
    counts = _count_ffts(monkeypatch)

    def run(n_steps):
        counts.clear()
        _moving_packet_run(grid512, n_steps)
        return dict(counts)

    short, long = run(50), run(100)
    # complex FFTs come only from the quantum-potential column of each
    # snapshot (steps 0, 50 and 0, 50, 100), never from a step
    assert short["fft"] == short["ifft"] == 2
    assert long["fft"] == long["ifft"] == 3
    # four RK4 stages, one batched rfft/irfft pair each, plus one pair for
    # the initial ds/dz
    assert short["rfft"] == short["irfft"] == 4 * 50 + 1
    assert long["rfft"] == long["irfft"] == 4 * 100 + 1
