"""Digital simulation of a three-level atom coupled to a truncated field mode."""

from .circuits import Circuit, circuit_from_json, circuit_to_json, circuit_unitary, run_circuit
from .encoding import (
    ATOM_LEVELS,
    BasisLabel,
    INVALID_BASIS_INDICES,
    VALID_BASIS_INDICES,
    decode_basis,
    encode_basis,
    leakage_probability,
)
from .gates import Gate, gate_unitary, rccx_truth_table
from .linalg import (
    MeasurementHistogram,
    apply_operator,
    basis_state,
    hermitian_expm,
    partial_trace,
    partial_trace_factors,
    sample_measurements,
    tensor_product,
    von_neumann_entropy,
)
from .models import (
    DEFAULT_COUPLING,
    ModelParams,
    Trajectory,
    analytic_jc2_amplitudes,
    build_jc2_hamiltonian,
    build_three_level_hamiltonian,
    coherent_state,
    entropy_trajectory,
    exact_jc2_amplitudes,
    exact_three_level_evolution,
    excitation_expectation,
    lambda_dark_state,
    lambda_integrate,
    populations,
    rabi_frequency,
    reduced_atom_density,
)
from .noise import (
    CalibrationData,
    ErrorBudget,
    apply_readout_error,
    backend_comparison,
    bundled_backend_names,
    bundled_calibration,
    count_error_units,
    fidelity_estimate,
    hardware_reference_circuit,
    load_calibration,
)
from .trotter import (
    TrotterPlan,
    build_step,
    choose_dt,
    compose_steps,
    exact_step_unitary,
    fit_error_slope,
    phase_aligned_distance,
    prepare_initial_state,
    rz_angle,
    step_system_unitary,
    strip_ancilla,
    trotter_error,
    trotter_plan,
)

__version__ = "0.1.0"
