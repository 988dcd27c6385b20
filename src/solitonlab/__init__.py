"""solitonlab: a numerical laboratory for guided-wave particle kinematics,
dispersion-vs-soliton dynamics, polar-form quantum-potential diagnostics,
and hidden-phase barrier statistics."""

from .dispersion import BranchKind, DispersionBranch, evanescent_kappa, group_velocity, omega
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    DomainError,
    NodeError,
    NumericalError,
)
from .experiments import (
    BarrierSpec,
    BohrOrbit,
    DichotomySettings,
    MonteCarloReport,
    PhaseAccordance,
    PhotonRelations,
    bohr_orbit,
    bohr_phase_accordance,
    linear_barrier_transmission,
    phase_accordance_mismatch,
    photon_relations,
    rectangular_barrier_transmission,
    run_barrier_monte_carlo,
    run_dispersion_vs_soliton,
)
from .grid import (
    ComplexField,
    Grid1D,
    PacketKind,
    PacketSpec,
    build_packet,
    observables,
    spectral_derivative,
)
from .kinematics import (
    KinematicState,
    PhysicalConstants,
    electron_constants,
    guide_width,
    kinematic_state,
)
from .madelung import (
    MadelungField,
    SolitonAmplitude,
    continuity_residual,
    continuity_residual_from_rate,
    decompose,
    dispersionless_initial,
    evolve_dispersionless,
    hj_residual,
    hj_residual_from_rate,
    polar_residuals,
    quantum_potential,
    recompose,
    soliton_amplitude,
)
from .report import RunReport, Snapshot, read_snapshot_csv, write_report, write_snapshot_csv
from .solvers import (
    Scheme,
    SolverConfig,
    evolve_klein_gordon,
    evolve_linear_schrodinger,
    evolve_nls,
    kg_energy,
    nls_breather_exact,
    nls_residual,
    one_branch_time_derivative,
)

__version__ = "0.1.0"
