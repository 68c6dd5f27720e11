"""Product-formula circuits: angles, structure, exactness limits, scaling.

The per-step circuits are compared with the exact propagator of the same
Hamiltonian on the physical subspace; the fitted log-log slopes pin the
order of each formula. Everything here are unit-sized versions of the
slower whole-evolution checks in the acceptance suite.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jcsim.circuits import Circuit, circuit_unitary, run_circuit
from jcsim.encoding import INVALID_BASIS_INDICES, VALID_BASIS_INDICES
from jcsim.gates import Gate
from jcsim.linalg import basis_state, hermitian_expm
from jcsim.models import DEFAULT_COUPLING, ModelParams, build_three_level_hamiltonian
from jcsim.trotter import (
    ANCILLA,
    DEFAULT_PHASE_BUDGET,
    TOTAL_QUBITS,
    TrotterPlan,
    build_step,
    choose_dt,
    compose_steps,
    diagonal_coefficients,
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

G = DEFAULT_COUPLING


def zero_frequency_params(**couplings) -> ModelParams:
    g = {"ge": G, "ef": G}
    g.update(couplings)
    return ModelParams(omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0}, g_couplings=g)


# -- angles and step sizing ------------------------------------------------------


def test_rz_angle_frozen_reference_value():
    # 2 * (2 pi * 25 kHz) * 1 microsecond
    angle = rz_angle(DEFAULT_COUPLING, 1e-6)
    assert abs(angle - 0.3141592653589793) < 1e-15
    assert round(angle, 5) == 0.31416


@given(
    a=st.floats(-1e6, 1e6, allow_nan=False),
    b=st.floats(-1e6, 1e6, allow_nan=False),
    dt=st.floats(0, 1e-3, allow_nan=False),
)
def test_rz_angle_is_linear(a, b, dt):
    assert rz_angle(a + b, dt) == pytest.approx(rz_angle(a, dt) + rz_angle(b, dt), abs=1e-9)
    assert rz_angle(a, 0.0) == 0.0


def test_choose_dt_hits_the_phase_budget():
    dt = choose_dt(G)
    assert abs(G * dt - DEFAULT_PHASE_BUDGET) < 1e-15
    assert abs(G * choose_dt(G, 0.05) - 0.05) < 1e-15
    with pytest.raises(ValueError, match="coupling"):
        choose_dt(0.0)
    with pytest.raises(ValueError, match="budget"):
        choose_dt(G, 1.5)


def test_diagonal_coefficients_reproduce_level_energies():
    p = ModelParams()
    w = p.omega_levels
    coeffs = {label: c for label, _, c in diagonal_coefficients(p)}
    assert coeffs["field Z(q0)"] == -0.5 * p.omega_f
    c_identity = 0.25 * (w["g"] + w["e"] + w["f"])
    # atomic energy at (q1, q2) from the Z expansion, z = 1 - 2*bit
    def energy(q1, q2):
        z1, z2 = 1 - 2 * q1, 1 - 2 * q2
        return (
            c_identity
            + coeffs["atom Z(q1)"] * z1
            + coeffs["atom Z(q2)"] * z2
            + coeffs["atom ZZ(q1,q2)"] * z1 * z2
        )

    assert energy(0, 0) == pytest.approx(w["g"], rel=1e-12)
    assert energy(1, 0) == pytest.approx(w["e"], rel=1e-12)
    assert energy(1, 1) == pytest.approx(w["f"], rel=1e-12)
    # the excluded pattern gets exactly zero, so no phase reaches it
    assert energy(0, 1) == pytest.approx(0.0, abs=1e-9)


# -- step structure ----------------------------------------------------------------


def test_step_angle_table_matches_emitted_rotations():
    p = ModelParams()
    dt = choose_dt(G)
    for order in (1, 2):
        plan = trotter_plan(p, order, dt, steps=3)
        circuit = build_step(p, order, dt)
        emitted = [g.angle for g in circuit.gates if g.kind in ("RZ", "CRZ")]
        assert emitted == [angle for _, _, angle in plan.angle_table]
        for label, coeff, angle in plan.angle_table:
            assert angle == pytest.approx(rz_angle(coeff, dt), rel=1e-12)
        assert plan.total_time == pytest.approx(3 * dt)


def test_first_order_step_gate_census():
    circuit = build_step(ModelParams(), 1, choose_dt(G))
    kinds = [g.kind for g in circuit.gates]
    assert kinds.count("RZ") == 4       # three Z terms + the ZZ core
    assert kinds.count("CX") == 2 + 4   # ZZ conjugation + two exchange folds
    assert kinds.count("RCCX") == 4     # compute/uncompute per exchange
    assert kinds.count("CH") == 4
    assert kinds.count("CRZ") == 2
    assert kinds.count("X") == 4        # the not-q2 conditioning per block
    assert circuit.qubit_count == TOTAL_QUBITS


def test_second_order_step_is_phase_palindromic():
    p = ModelParams()
    dt = choose_dt(G)
    plan = trotter_plan(p, 2, dt, steps=1)
    half_labels = [label for label, _, _ in plan.angle_table if label.endswith(" half")]
    assert len(half_labels) == 8
    assert half_labels[:4] == half_labels[4:][::-1]


def test_second_order_step_is_time_symmetric():
    # the reversed-time step inverts the forward step on the system block
    # (the idle ancilla-|1> sector is unconstrained and does not matter)
    p = ModelParams()
    dt = choose_dt(G)
    forward = step_system_unitary(build_step(p, 2, dt))
    backward = step_system_unitary(build_step(p, 2, -dt))
    assert np.max(np.abs(forward @ backward - np.eye(8))) < 1e-11


def test_zero_coupling_step_reduces_to_diagonal_phases():
    p = ModelParams(g_couplings={"ge": 0.0, "ef": 0.0})
    dt = choose_dt(G)
    for order in (1, 2):
        u_sys = step_system_unitary(build_step(p, order, dt))
        exact = exact_step_unitary(p, dt)
        valid = list(VALID_BASIS_INDICES)
        assert (
            phase_aligned_distance(u_sys[np.ix_(valid, valid)], exact[np.ix_(valid, valid)])
            < 1e-10
        )


def test_zero_dt_step_is_identity():
    p = ModelParams()
    for order in (1, 2):
        u = circuit_unitary(build_step(p, order, 0.0))
        assert np.max(np.abs(u - np.eye(16))) < 1e-12


def test_interaction_block_alone_is_exact():
    # with vanishing bare energies the whole step is the exchange block,
    # which equals exp(-i H_int dt) with no splitting error at all
    p = zero_frequency_params()
    h = build_three_level_hamiltonian(p)
    for dt in (0.3 / G, 0.05 / G):
        u_sys = step_system_unitary(build_step(p, 1, dt))
        exact = hermitian_expm(h, dt)
        assert np.max(np.abs(u_sys - exact)) < 1e-12


def test_single_exchange_block_matches_two_level_rotation():
    # only g<->e coupling: the |g,1>/|e,0> doublet sees RX(2 g dt)
    p = zero_frequency_params(ef=0.0)
    dt = 0.25 / G
    u_sys = step_system_unitary(build_step(p, 1, dt))
    phase = G * dt
    expected = np.array(
        [[math.cos(phase), -1j * math.sin(phase)],
         [-1j * math.sin(phase), math.cos(phase)]]
    )
    assert np.max(np.abs(u_sys[np.ix_([1, 2], [1, 2])] - expected)) < 1e-12
    # every other basis state is a spectator
    others = [0, 3, 6, 7]
    assert np.max(np.abs(u_sys[np.ix_(others, others)] - np.eye(4))) < 1e-12


# -- error scaling ------------------------------------------------------------------


def test_first_order_error_scales_quadratically_per_step():
    p = ModelParams()
    e_coarse = trotter_error(p, 1, 0.2 / G)
    e_fine = trotter_error(p, 1, 0.1 / G)
    assert e_coarse / e_fine == pytest.approx(4.0, rel=0.25)


def test_fitted_slopes_identify_the_orders():
    p = ModelParams()
    dts = np.array([0.2, 0.1, 0.05, 0.025]) / G
    errors1 = np.array([trotter_error(p, 1, dt) for dt in dts])
    errors2 = np.array([trotter_error(p, 2, dt) for dt in dts])
    assert abs(fit_error_slope(dts, errors1) - 2.0) <= 0.3
    assert abs(fit_error_slope(dts, errors2) - 3.0) <= 0.4
    assert np.all(errors2 < errors1)


def test_fit_error_slope_recovers_exact_power_law():
    dts = np.array([0.1, 0.05, 0.02, 0.01])
    assert fit_error_slope(dts, 3.0 * dts**2.5) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError, match="positive"):
        fit_error_slope(dts, np.zeros(4))


def test_phase_aligned_distance_ignores_global_phase():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(m)
    assert phase_aligned_distance(q, np.exp(0.7j) * q) < 1e-12
    assert phase_aligned_distance(q, q) == pytest.approx(0.0, abs=1e-12)


# -- physicality: selection rule and ancilla hygiene ---------------------------------


@pytest.mark.parametrize("order", [1, 2])
def test_no_leakage_and_clean_ancilla_over_many_steps(order):
    p = ModelParams()
    step = build_step(p, order, choose_dt(G))
    for index in VALID_BASIS_INDICES:
        state = basis_state(index, TOTAL_QUBITS)
        for _ in range(10):
            state = run_circuit(step, state)
            assert float(np.sum(np.abs(state[8:]) ** 2)) < 1e-10
            system = state[:8]
            leak = sum(abs(system[i]) ** 2 for i in INVALID_BASIS_INDICES)
            assert leak < 1e-10


def test_step_never_couples_valid_to_excluded():
    p = ModelParams()
    for order in (1, 2):
        u_sys = step_system_unitary(build_step(p, order, choose_dt(G)))
        block = u_sys[np.ix_(list(INVALID_BASIS_INDICES), list(VALID_BASIS_INDICES))]
        assert np.max(np.abs(block)) < 1e-12


def test_excitation_is_conserved_by_the_digitized_step():
    # every factor of the splitting commutes with the excitation operator
    from jcsim.models import excitation_expectation

    p = ModelParams()
    step = build_step(p, 2, choose_dt(G))
    state = run_circuit(prepare_initial_state("e", fock_n=1), basis_state(0, TOTAL_QUBITS))
    n0 = excitation_expectation(strip_ancilla(state))
    for _ in range(50):
        state = run_circuit(step, state)
    drift = abs(excitation_expectation(strip_ancilla(state)) - n0)
    assert drift < 1e-10


# -- preparation and ancilla helpers ---------------------------------------------


def test_prepare_initial_state_reaches_the_right_basis_index():
    cases = {("g", 0): 0, ("g", 1): 1, ("e", 0): 2, ("e", 1): 3, ("f", 0): 6, ("f", 1): 7}
    for (level, fock), index in cases.items():
        circuit = prepare_initial_state(level, fock_n=fock)
        state = run_circuit(circuit, basis_state(0, TOTAL_QUBITS))
        assert abs(state[index] - 1.0) < 1e-12


def test_prepare_initial_state_weak_excitation():
    circuit = prepare_initial_state("g", theta_f=0.2)
    state = run_circuit(circuit, basis_state(0, TOTAL_QUBITS))
    p_excited = abs(state[1]) ** 2
    assert abs(p_excited - math.sin(0.1) ** 2) < 1e-12
    assert abs(p_excited - 0.009966711079379185) < 1e-12
    # theta_f = 0 emits no field rotation at all
    assert len(prepare_initial_state("g", theta_f=0.0)) == 0


def test_prepare_initial_state_validation():
    with pytest.raises(ValueError, match="unknown atomic level"):
        prepare_initial_state("x")
    with pytest.raises(ValueError, match="outside truncated mode"):
        prepare_initial_state("g", fock_n=2)
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        prepare_initial_state("g", theta_f=0.6)


def test_strip_ancilla_checks_residual_population():
    state = basis_state(2, TOTAL_QUBITS)
    assert np.array_equal(strip_ancilla(state), basis_state(2, 3))
    with pytest.raises(ValueError, match="ancilla population"):
        strip_ancilla(basis_state(8, TOTAL_QUBITS))


def test_step_system_unitary_rejects_ancilla_coupling():
    bad = Circuit(TOTAL_QUBITS, (Gate("H", (ANCILLA,)),))
    with pytest.raises(ValueError, match="ancilla"):
        step_system_unitary(bad)


def test_compose_steps_repeats_gates():
    step = build_step(ModelParams(), 1, choose_dt(G))
    triple = compose_steps(step, 3)
    assert len(triple) == 3 * len(step)
    assert len(compose_steps(step, 0)) == 0
    with pytest.raises(ValueError, match=">= 0"):
        compose_steps(step, -1)


# -- plans -------------------------------------------------------------------------


def test_trotter_plan_validation_and_json():
    p = ModelParams()
    dt = choose_dt(G)
    plan = trotter_plan(p, 1, dt, steps=5)
    payload = json.loads(plan.to_json())
    assert payload["order"] == 1
    assert payload["steps"] == 5
    assert [row["term"] for row in payload["angle_table"]] == [
        "field Z(q0)",
        "atom Z(q1)",
        "atom Z(q2)",
        "atom ZZ(q1,q2)",
        "exchange g<->e core",
        "exchange e<->f core",
    ]
    with pytest.raises(ValueError, match="angle = 2\\*coeff\\*dt"):
        TrotterPlan(order=1, dt=dt, steps=1, angle_table=(("broken", 1.0, 1.0),))
    with pytest.raises(ValueError, match="order"):
        TrotterPlan(order=3, dt=dt, steps=1, angle_table=())
