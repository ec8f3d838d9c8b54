"""Quantum Sagnac interferometer simulator.

Builds the rotating-disk metric, evaluates the matter-wave loop phase,
assembles the two-radius / two-frequency branch state, quantifies its
entanglement, solves for maximally entangling parameters in closed form,
and evaluates the Bohr-orbit hydrogen analogy.
"""

from .constants import (
    ConstantSet,
    RegimeCheck,
    RegimeStatus,
    UnitSystem,
    constants_for,
    regime_check,
)
from .design import SweepRow, SweepSpec, solve_omega2, solve_r2, sweep
from .hydrogen import (
    BohrOrbit,
    HydrogenPhases,
    bohr_orbit,
    hydrogen_pair_report,
    hydrogen_phase,
)
from .metric import (
    DiskMetric,
    Perturbation,
    flat_background,
    perturbation,
    rotating_disk_metric,
)
from .phase import (
    PhaseResult,
    hamiltonian_energy,
    loop_phase,
    loop_time,
    sagnac_phase,
    two_radius_relative_phase,
)
from .state import (
    EntanglementReport,
    InterferometerConfig,
    PureState2x2,
    assemble_full_state,
    concurrence_from_delta,
    entanglement_report,
    entangling_phase,
    entangling_phase_value,
    entropy_from_concurrence,
    report_from_parameters,
)

__all__ = [
    "BohrOrbit",
    "ConstantSet",
    "DiskMetric",
    "EntanglementReport",
    "HydrogenPhases",
    "InterferometerConfig",
    "Perturbation",
    "PhaseResult",
    "PureState2x2",
    "RegimeCheck",
    "RegimeStatus",
    "SweepRow",
    "SweepSpec",
    "UnitSystem",
    "assemble_full_state",
    "bohr_orbit",
    "concurrence_from_delta",
    "constants_for",
    "entanglement_report",
    "entangling_phase",
    "entangling_phase_value",
    "entropy_from_concurrence",
    "flat_background",
    "hamiltonian_energy",
    "hydrogen_pair_report",
    "hydrogen_phase",
    "loop_phase",
    "loop_time",
    "perturbation",
    "regime_check",
    "report_from_parameters",
    "rotating_disk_metric",
    "sagnac_phase",
    "solve_omega2",
    "solve_r2",
    "sweep",
    "two_radius_relative_phase",
]

__version__ = "0.1.0"
