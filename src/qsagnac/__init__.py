"""Quantum Sagnac interferometer simulator.

Builds the rotating-disk metric, evaluates the matter-wave loop phase,
assembles the two-radius / two-frequency branch state, quantifies its
entanglement, solves for maximally entangling parameters in closed form,
and evaluates the Bohr-orbit hydrogen analogy.

Importing the package loads no submodule: each public name is imported
from its home module on first use (PEP 562), so a command-line call loads
only what its subcommand needs.
"""

# each public name's home module
_HOMES = {
    name: module
    for module, names in {
        "constants": "ConstantSet RegimeCheck RegimeStatus UnitSystem "
                     "constants_for regime_check",
        "design": "SweepRow SweepSpec solve_omega2 solve_r2 sweep",
        "hydrogen": "BohrOrbit HydrogenPhases bohr_orbit hydrogen_pair_report "
                    "hydrogen_phase",
        "metric": "DiskMetric Perturbation flat_background perturbation "
                  "rotating_disk_metric",
        "phase": "PhaseResult entangling_phase_value hamiltonian_energy "
                 "loop_phase loop_time sagnac_phase two_radius_relative_phase",
        "state": "EntanglementReport InterferometerConfig PureState2x2 "
                 "assemble_full_state concurrence_from_delta entanglement_report "
                 "entropy_from_concurrence report_from_parameters",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the submodule, not the package
    module = __import__(f"{__name__}.{_HOMES[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return __all__
