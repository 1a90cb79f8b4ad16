"""Nonlinear f-deformed oscillators.

A deformation profile f turns the harmonic oscillator into a family of
solvable nonlinear models: classically the amplitude rotates at an
energy-dependent frequency, quantum mechanically the ladder operator is
reweighted level by level.  The package covers the classical flow and its
invariants, truncated Fock-space dynamics, standard and deformed Wigner
functions, symplectic tomography, deformed coherent states with their
entanglement diagnostics, and first-order deformed thermodynamics.
"""

from types import ModuleType as _ModuleType

from .classical import (
    PhasePoint,
    PhaseSpaceDistribution,
    amplitude_trajectory,
    classical_invariants,
    evolve_amplitude,
    gaussian_distribution,
    phase_space_integral,
    propagate_distribution,
)
from .coherent import (
    CoherentStateVector,
    SchmidtSpectrum,
    TwoModeState,
    eigen_residual,
    nonlinear_coherent_state,
    position_wavefunction,
    schmidt_spectrum,
    two_mode_coherent_state,
    two_mode_eigen_residuals,
)
from .errors import (
    DegenerateDeformationError,
    DegenerateRayError,
    DomainError,
    NumericToleranceError,
    SeriesDivergenceError,
    TruncationError,
)
from .fock import (
    DensityMatrix,
    coherent_density,
    commutator_defect,
    deformed_lowering,
    density_from_amplitudes,
    evolve_density,
    expectation,
    fock_density,
    hamiltonian_diagonal,
    heisenberg_invariant,
    lowering_operator,
    vacuum_density,
)
from .hermite import hermite_functions
from .nonlinearity import (
    NonlinearitySpec,
    custom,
    eval_f,
    f_factorial,
    frequency,
    identity,
    kerr,
    log_f_factorial,
    q_oscillator,
    spec_from_dict,
    spec_to_dict,
)
from .thermo import (
    DeformedThermoReport,
    ThermoReport,
    chi_expectation,
    deformed_partition,
    exact_deformed_report,
    linear_thermo,
    mean_energy,
    occupation,
    occupation_second_moment,
    partition_closed,
    thermal_series,
)
from .tomography import (
    TomogramSlice,
    classical_tomogram_evolved,
    fock_tomogram_closed,
    quantum_tomogram,
    radon_classical,
    ray_from_scale_angle,
)
from .wigner import (
    WignerGrid,
    deformed_parity_operator,
    deformed_wigner,
    deformed_wigner_values,
    wigner_from_density,
    wigner_values,
)

__version__ = "0.1.0"

# every name imported above, submodules aside, and the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
