"""Time-rescaled shortcuts to adiabaticity for two-level Dirac-type dynamics."""

from .rescaling import BoundaryReport, CustomRescaling, RescalingFunction, check_boundary
from .propagator import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliHamiltonian,
    UnitarityError,
    evolve_state,
    evolve_states,
    norm_defect,
    propagate,
    propagate_sampled,
    rescaled_propagate,
    su2_exponential,
    time_rescaled,
    unitarity_defect,
)
from .gauge import (
    GaugeFrame,
    K_matrix,
    frak_vector_potential,
    frame_unitary,
    gauge_equivalence_check,
    phi_dot,
    phi_of_t,
    transformed_hamiltonian,
)
from .iontrap import (
    IonTrapModel,
    PhysicalTrapParams,
    WavepacketGrid,
    build_demo_hamiltonian,
    fidelity_curves,
    instantaneous_eigenstate,
    physical_units_map,
)
from .floquet import (
    WeylModelParams,
    build_pumping_h,
    build_rotating_frame_h,
    build_single_mode_h,
    floquet_operator,
    linearized_h_near_touching,
    perturbative_floquet,
    pumping_path,
    quasienergies,
    quasienergy_gap,
    rescaled_floquet_equivalence,
    scan_quasienergies,
)
from .classical import (
    AppendixCheckResult,
    ClassicalModel,
    appendix_equivalence_check,
    canonical_map,
    evolve_classical,
    h1h2,
    harmonic_model,
    kappa,
    quantum_coeffs,
    quartic_model,
)

__version__ = "0.1.0"
