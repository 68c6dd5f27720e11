"""Model Hamiltonians, closed forms, and the Lambda integrator.

Closed-form amplitudes are checked against an RK4 integration of the
two-amplitude Schrodinger equation written directly in this file, and the
three-level Hamiltonian is audited entry by entry against the encoding.
"""

import math
import signal

import numpy as np
import pytest

from jcsim.encoding import INVALID_BASIS_INDICES
from jcsim.linalg import basis_state, hermitian_expm, partial_trace_factors, von_neumann_entropy
from jcsim.models import (
    DEFAULT_COUPLING,
    TAU,
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
    jc2_basis_index,
    jc2_number_operator,
    lambda_dark_state,
    lambda_fastest_drive,
    lambda_integrate,
    lambda_rhs_matrix,
    lambda_step_size,
    populations,
    rabi_frequency,
    reduced_atom_density,
    three_level_number_operator,
)


def rk4_doublet_oracle(g: float, n: int, t: float, steps: int = 4000) -> tuple[complex, complex]:
    """Integrate c_e' = -i k c_g, c_g' = -i k c_e with k = g sqrt(n+1)."""
    k = g * math.sqrt(n + 1)
    m = np.array([[0.0, -1j * k], [-1j * k, 0.0]])
    c = np.array([1.0, 0.0], dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = m @ c
        k2 = m @ (c + 0.5 * h * k1)
        k3 = m @ (c + 0.5 * h * k2)
        k4 = m @ (c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return complex(c[0]), complex(c[1])


# -- parameters and trajectories -------------------------------------------------


def test_default_parameters():
    p = ModelParams()
    assert p.omega_f == DEFAULT_COUPLING == TAU * 25e3
    assert p.omega_levels == {"g": 0.0, "e": DEFAULT_COUPLING, "f": 2.5 * DEFAULT_COUPLING}
    assert p.g_couplings == {"ge": DEFAULT_COUPLING, "ef": DEFAULT_COUPLING}
    assert p.nbar == 2.0
    assert p.n_max == 16
    assert p.omega_a == DEFAULT_COUPLING


def test_params_validation():
    with pytest.raises(ValueError, match="omega_levels"):
        ModelParams(omega_levels={"g": 0.0, "e": 1.0})
    with pytest.raises(ValueError, match="g_couplings"):
        ModelParams(g_couplings={"ge": 1.0})
    with pytest.raises(ValueError, match="finite"):
        ModelParams(omega_f=-1.0)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(nbar=float("nan"))
    with pytest.raises(ValueError, match="n_max"):
        ModelParams(n_max=0)


def test_with_replaces_fields():
    p = ModelParams().with_(nbar=0.0, n_max=4)
    assert (p.nbar, p.n_max) == (0.0, 4)
    assert p.omega_f == DEFAULT_COUPLING


def test_trajectory_validation_and_serialization():
    t = Trajectory(times=[0.0, 1.0], columns={"P_x": [0.25, 0.5]})
    assert t.names == ["P_x"]
    csv = t.to_csv()
    assert csv.splitlines()[0] == "t,P_x"
    assert t.to_json_dict() == {"t": [0.0, 1.0], "P_x": [0.25, 0.5]}
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=[0.0, 0.0], columns={})
    with pytest.raises(ValueError, match="length"):
        Trajectory(times=[0.0, 1.0], columns={"x": [1.0]})
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        Trajectory(times=[0.0, 1.0], columns={"P_x": [0.0, 1.5]})


def test_trajectory_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(times=[0.0, 1.0], columns={"P_x": [0.5, math.nan]})
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(times=[0.0, 1.0], columns={"entropy_nats": [0.0, math.inf]})
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times=[0.0, math.inf], columns={})


def test_trajectory_csv_round_trips_floats_exactly():
    t = Trajectory(times=[0.0, 1e-6], columns={"v": [1.0 / 3.0, 2.0 / 7.0]})
    line = t.to_csv().splitlines()[1]
    assert [float(x) for x in line.split(",")] == [0.0, 1.0 / 3.0]


# -- two-level model ---------------------------------------------------------------


def test_jc2_matrix_elements():
    p = ModelParams(n_max=5)
    h = build_jc2_hamiltonian(p)
    g = p.g_couplings["ge"]
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    for n in range(5):
        i = jc2_basis_index(n, True, 5)
        j = jc2_basis_index(n + 1, False, 5)
        assert abs(h[i, j] - g * math.sqrt(n + 1)) < 1e-12 * g
    # diagonal: omega_f * n +/- omega_a / 2
    for n in range(6):
        up = jc2_basis_index(n, True, 5)
        down = jc2_basis_index(n, False, 5)
        assert abs(h[up, up] - (p.omega_f * n + 0.5 * p.omega_a)) < 1e-9
        assert abs(h[down, down] - (p.omega_f * n - 0.5 * p.omega_a)) < 1e-9


def test_jc2_commutes_with_number_operator():
    p = ModelParams(n_max=6)
    h = build_jc2_hamiltonian(p)
    num = jc2_number_operator(6)
    comm = h @ num - num @ h
    assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))


def test_jc2_basis_index():
    assert jc2_basis_index(0, True, 3) == 0
    assert jc2_basis_index(0, False, 3) == 1
    assert jc2_basis_index(2, True, 3) == 4
    with pytest.raises(ValueError, match="outside truncation"):
        jc2_basis_index(4, True, 3)


def test_rabi_frequency_values():
    g = DEFAULT_COUPLING
    assert abs(rabi_frequency(g, 0) - 2 * g) < 1e-9
    assert abs(rabi_frequency(g, 3) - 4 * g) < 1e-9
    with pytest.raises(ValueError):
        rabi_frequency(g, -1)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_analytic_amplitudes_match_rk4_oracle(n):
    g = DEFAULT_COUPLING
    for t in (0.3 / g, 1.7 / g):
        c_e, c_g = analytic_jc2_amplitudes(g, n, t)
        o_e, o_g = rk4_doublet_oracle(g, n, t)
        assert abs(c_e - o_e) < 1e-9
        assert abs(c_g - o_g) < 1e-9
        assert abs(abs(c_e) ** 2 + abs(c_g) ** 2 - 1.0) < 1e-12


def test_analytic_amplitudes_match_exact_propagator():
    # in the frame with vanishing bare energies the closed form is exact
    g = DEFAULT_COUPLING
    n = 1
    p = ModelParams(
        omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0}, n_max=n + 1
    )
    h = build_jc2_hamiltonian(p)
    psi0 = np.zeros(2 * (n + 2), dtype=complex)
    psi0[jc2_basis_index(n, True, n + 1)] = 1.0
    t = 0.9 / g
    psi_t = hermitian_expm(h, t) @ psi0
    c_e, c_g = analytic_jc2_amplitudes(g, n, t)
    assert abs(psi_t[jc2_basis_index(n, True, n + 1)] - c_e) < 1e-12
    assert abs(psi_t[jc2_basis_index(n + 1, False, n + 1)] - c_g) < 1e-12


@pytest.mark.parametrize("n", [0, 3, 50])
def test_exact_jc2_amplitudes_match_closed_form(n):
    g = DEFAULT_COUPLING
    times = np.linspace(0.0, 12.0 / g, 301)
    exact = exact_jc2_amplitudes(g, n, times)
    closed = np.array([analytic_jc2_amplitudes(g, n, t) for t in times])
    assert exact.shape == (times.size, 2)
    assert np.max(np.abs(exact - closed)) < 1e-12


def full_ladder_jc2_amplitudes(g: float, n: int, times: np.ndarray) -> np.ndarray:
    """Oracle: the doublet rows of the full ladder truncated at n+1 photons."""
    frame = ModelParams(omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0},
                        g_couplings={"ge": g, "ef": 0.0}, n_max=n + 1)
    idx_e = jc2_basis_index(n, True, n + 1)
    idx_g = jc2_basis_index(n + 1, False, n + 1)
    psi0 = np.zeros(2 * (n + 2), dtype=complex)
    psi0[idx_e] = 1.0
    w, v = np.linalg.eigh(build_jc2_hamiltonian(frame))
    states = v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi0)[:, None])
    return states[[idx_e, idx_g], :].T


@pytest.mark.parametrize("n", [0, 3, 50])
def test_exact_jc2_amplitudes_match_full_ladder(n):
    g = DEFAULT_COUPLING
    times = np.linspace(0.0, 12.0 / g, 301)
    exact = exact_jc2_amplitudes(g, n, times)
    assert exact.shape == (times.size, 2)
    assert np.max(np.abs(exact - full_ladder_jc2_amplitudes(g, n, times))) < 1e-12


def test_analytic_amplitudes_take_an_array_of_times():
    g = DEFAULT_COUPLING
    times = np.linspace(0.0, 12.0 / g, 37)
    c_e, c_g = analytic_jc2_amplitudes(g, 3, times)
    assert c_e.shape == c_g.shape == times.shape
    for t, a_e, a_g in zip(times, c_e, c_g):
        s_e, s_g = analytic_jc2_amplitudes(g, 3, float(t))
        assert abs(a_e - s_e) < 1e-15 and abs(a_g - s_g) < 1e-15
    grid = analytic_jc2_amplitudes(g, 3, times.reshape(37, 1))
    assert grid[0].shape == (37, 1)


def test_reduced_atom_density_matches_partial_trace():
    g = DEFAULT_COUPLING
    n = 0
    p = ModelParams(omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0}, n_max=2)
    h = build_jc2_hamiltonian(p)
    psi0 = np.zeros(6, dtype=complex)
    psi0[jc2_basis_index(n, True, 2)] = 1.0
    t = 0.6 / g
    psi_t = hermitian_expm(h, t) @ psi0
    rho_atom = partial_trace_factors(psi_t, [3, 2], keep=[1])
    assert np.max(np.abs(rho_atom - reduced_atom_density(g, n, t))) < 1e-12


def test_coherent_state_is_poissonian():
    nbar = 2.0
    state = coherent_state(nbar, 20)
    probs = np.abs(state) ** 2
    assert abs(probs.sum() - 1.0) < 1e-12
    ns = np.arange(21)
    assert abs(float(ns @ probs) - nbar) < 1e-4
    # ratio p(n+1)/p(n) = nbar/(n+1) for a Poisson distribution
    for n in range(5):
        assert abs(probs[n + 1] / probs[n] - nbar / (n + 1)) < 1e-9


def test_coherent_state_vacuum_and_validation():
    vac = coherent_state(0.0, 3)
    assert np.array_equal(vac, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="increase n_max to at least"):
        coherent_state(4.0, 6)
    with pytest.raises(ValueError, match="nbar"):
        coherent_state(-1.0, 4)


@pytest.mark.parametrize("nbar", [900.0, 1e4, 1e5, 1e300])
def test_coherent_state_search_ends_for_every_finite_nbar(nbar):
    # the tail term underflows to 0 for these nbar; the search must still end
    def expire(*_):
        raise TimeoutError(f"coherent_state({nbar}, 30) ran for more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match="increase n_max"):
            coherent_state(nbar, 30)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_coherent_state_names_the_truncation_when_found():
    with pytest.raises(ValueError, match="increase n_max to at least 1046$"):
        coherent_state(900.0, 30)
    with pytest.raises(ValueError, match="increase n_max beyond"):
        coherent_state(1e300, 30)
    for nbar in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="nbar"):
            coherent_state(nbar, 30)


def test_entropy_trajectory_starts_pure_and_stays_bounded():
    p = ModelParams(nbar=2.0, n_max=20)
    times = np.linspace(0.0, 6.0 / DEFAULT_COUPLING, 40)
    traj = entropy_trajectory(p, times)
    values = traj.columns["entropy_nats"]
    assert values[0] < 1e-9
    assert values.max() <= math.log(2.0) + 1e-9
    assert values[1:].max() > 0.1  # entanglement actually builds up


def test_entropy_trajectory_vacuum_matches_binary_entropy():
    # with nbar = 0 only the |e,0> <-> |g,1> doublet evolves, so the atomic
    # entropy is the binary entropy of p = sin^2(g t)
    g = DEFAULT_COUPLING
    p = ModelParams(omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0},
                    nbar=0.0, n_max=2)
    times = np.linspace(0.0, 2.0 / g, 30)
    traj = entropy_trajectory(p, times)
    for t, s in zip(times, traj.columns["entropy_nats"]):
        prob = math.sin(g * t) ** 2
        expected = 0.0
        for q in (prob, 1 - prob):
            if q > 0:
                expected -= q * math.log(q)
        assert abs(s - expected) < 1e-8


def test_entropy_trajectory_matches_pointwise_partial_trace():
    p = ModelParams(nbar=2.0, n_max=20)
    times = np.linspace(0.0, 8.0 / DEFAULT_COUPLING, 57)
    psi0 = np.kron(coherent_state(p.nbar, p.n_max), [1.0, 0.0])
    w, v = np.linalg.eigh(build_jc2_hamiltonian(p))
    expected = []
    for t in times:
        psi_t = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
        expected.append(von_neumann_entropy(partial_trace_factors(psi_t, [p.n_max + 1, 2], keep=[1])))
    got = entropy_trajectory(p, times).columns["entropy_nats"]
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


# -- three-level model ----------------------------------------------------------------


def test_three_level_hamiltonian_entry_audit():
    p = ModelParams()
    h = build_three_level_hamiltonian(p)
    w = p.omega_levels
    g = p.g_couplings
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = w["g"]
    expected[1, 1] = p.omega_f + w["g"]
    expected[2, 2] = w["e"]
    expected[3, 3] = p.omega_f + w["e"]
    expected[6, 6] = w["f"]
    expected[7, 7] = p.omega_f + w["f"]
    expected[1, 2] = expected[2, 1] = g["ge"]
    expected[3, 6] = expected[6, 3] = g["ef"]
    assert np.array_equal(h, expected)


def test_three_level_hamiltonian_is_zero_on_excluded_patterns():
    h = build_three_level_hamiltonian(ModelParams())
    for index in INVALID_BASIS_INDICES:
        assert np.all(h[index, :] == 0.0)
        assert np.all(h[:, index] == 0.0)


def test_three_level_number_operator_frozen_diagonal():
    op = three_level_number_operator()
    assert np.array_equal(np.diag(op).real, [0, 1, 1, 2, 0, 0, 2, 3])
    assert np.count_nonzero(op - np.diag(np.diag(op))) == 0


def test_three_level_hamiltonian_commutes_with_number_operator():
    h = build_three_level_hamiltonian(ModelParams())
    num = three_level_number_operator()
    comm = h @ num - num @ h
    assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))


def test_populations_and_excitation():
    state = np.sqrt([0.5, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2, 0.0]).astype(complex)
    pops = populations(state)
    assert abs(pops["g"] - 0.5) < 1e-12
    assert abs(pops["e"] - 0.3) < 1e-12
    assert abs(pops["f"] - 0.2) < 1e-12
    # <N> = 0.5*0 + 0.3*1 + 0.2*2
    assert abs(excitation_expectation(state) - 0.7) < 1e-12
    with pytest.raises(ValueError, match="dimension 8"):
        populations(basis_state(0, 2))


def test_populations_of_a_batch_match_each_column():
    rng = np.random.default_rng(13)
    batch = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
    batch /= np.linalg.norm(batch, axis=0)
    pops = populations(batch)
    assert list(pops) == ["g", "e", "f"]
    for j in range(6):
        single = populations(batch[:, j])
        for level, values in pops.items():
            assert values.shape == (6,)
            assert isinstance(single[level], float)
            assert abs(values[j] - single[level]) < 1e-15
    total = pops["g"] + pops["e"] + pops["f"] + (np.abs(batch[list(INVALID_BASIS_INDICES)]) ** 2).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-14
    for shape in [(8, 2, 2), (4, 3)]:
        with pytest.raises(ValueError, match="dimension 8"):
            populations(np.zeros(shape, dtype=complex))


def test_single_excitation_block_is_sigma_x_exchange():
    # with vanishing bare energies the |g,1>/|e,0> block is exactly g sigma_x
    g = DEFAULT_COUPLING
    p = ModelParams(omega_f=0.0, omega_levels={"g": 0.0, "e": 0.0, "f": 0.0})
    h = build_three_level_hamiltonian(p)
    block = h[np.ix_([1, 2], [1, 2])]
    assert np.array_equal(block, g * np.array([[0, 1], [1, 0]]))
    dt = 0.4 / g
    u = hermitian_expm(h, dt)
    expected = np.array(
        [[math.cos(g * dt), -1j * math.sin(g * dt)],
         [-1j * math.sin(g * dt), math.cos(g * dt)]]
    )
    assert np.max(np.abs(u[np.ix_([1, 2], [1, 2])] - expected)) < 1e-12


def test_exact_three_level_evolution_conserves_norm_and_excitation():
    p = ModelParams()
    psi0 = (basis_state(1, 3) + basis_state(2, 3)) / np.sqrt(2)
    times = np.linspace(0.0, 20.0 / DEFAULT_COUPLING, 200)
    states = exact_three_level_evolution(p, psi0, times)
    norms = np.linalg.norm(states, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    n0 = excitation_expectation(states[:, 0])
    drift = max(abs(excitation_expectation(states[:, i]) - n0) for i in range(times.size))
    assert drift < 1e-10


# -- Lambda configuration ----------------------------------------------------------


def test_lambda_rhs_matrix_shape():
    m = lambda_rhs_matrix(2.0, 3.0)
    assert np.array_equal(
        m, 0.5j * np.array([[0, 0, 2], [0, 0, 3], [2, 3, 0]])
    )


def test_lambda_step_size_resolves_fastest_drive():
    assert lambda_step_size(100.0, 50.0, 10.0) == pytest.approx(0.0001)
    # short spans are still cut into >= 1000 pieces
    assert lambda_step_size(1.0, 1.0, 0.5) == pytest.approx(0.0005)


def test_lambda_step_size_without_drive_cuts_the_span():
    assert lambda_fastest_drive(3.0, 5.0) == 5.0
    assert lambda_step_size(0.0, 0.0, 2.0) == pytest.approx(0.002)


def test_lambda_integrate_matches_stagewise_rk4_on_uneven_grid():
    omega_p, omega_c = DEFAULT_COUPLING, 0.45 * DEFAULT_COUPLING
    p = ModelParams(omega_p=omega_p, omega_c=omega_c)
    k_matrix = lambda_rhs_matrix(omega_p, omega_c)
    times = np.array([0.0, 0.3, 0.31, 1.2, 1.25, 4.0, 4.7, 9.9]) / DEFAULT_COUPLING
    c0 = np.array([0.6, 0.8j, 0.0])
    h_max = lambda_step_size(omega_p, omega_c, float(times[-1]))
    c = c0.astype(complex)
    expected = [np.abs(c) ** 2]
    for span in np.diff(times):
        steps = max(1, math.ceil(span / h_max))
        h = span / steps
        for _ in range(steps):
            k1 = k_matrix @ c
            k2 = k_matrix @ (c + 0.5 * h * k1)
            k3 = k_matrix @ (c + 0.5 * h * k2)
            k4 = k_matrix @ (c + h * k3)
            c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        expected.append(np.abs(c) ** 2)
    traj = lambda_integrate(p, c0, times)
    got = np.array([traj.columns["P1"], traj.columns["P2"], traj.columns["P3"]]).T
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


def test_lambda_norm_is_conserved():
    p = ModelParams(omega_p=DEFAULT_COUPLING, omega_c=0.7 * DEFAULT_COUPLING)
    times = np.linspace(0.0, 40.0 / DEFAULT_COUPLING, 30)
    traj = lambda_integrate(p, np.array([1.0, 0.0, 0.0]), times)
    totals = traj.columns["P1"] + traj.columns["P2"] + traj.columns["P3"]
    assert np.max(np.abs(totals - 1.0)) < 1e-8


def test_lambda_dark_state_never_populates_level_three():
    omega_p, omega_c = DEFAULT_COUPLING, 0.6 * DEFAULT_COUPLING
    dark = lambda_dark_state(omega_p, omega_c)
    expected = np.array([omega_c, -omega_p, 0.0]) / math.hypot(omega_p, omega_c)
    assert np.max(np.abs(dark - expected)) < 1e-12
    p = ModelParams(omega_p=omega_p, omega_c=omega_c)
    times = np.linspace(0.0, 60.0 / DEFAULT_COUPLING, 40)
    traj = lambda_integrate(p, dark, times)
    assert np.max(traj.columns["P3"]) < 1e-10
    assert np.max(np.abs(traj.columns["P1"] - traj.columns["P1"][0])) < 1e-10


def test_lambda_single_drive_reduces_to_rabi():
    # Omega_c = 0 leaves a two-level problem: P1 = cos^2, P3 = sin^2
    omega_p = DEFAULT_COUPLING
    p = ModelParams(omega_p=omega_p, omega_c=0.0)
    times = np.linspace(0.0, 3 * TAU / omega_p, 60)
    traj = lambda_integrate(p, np.array([1.0, 0.0, 0.0]), times)
    for t, p1, p2, p3 in zip(times, traj.columns["P1"], traj.columns["P2"], traj.columns["P3"]):
        assert abs(p1 - math.cos(omega_p * t / 2) ** 2) < 1e-7
        assert abs(p3 - math.sin(omega_p * t / 2) ** 2) < 1e-7
        assert p2 < 1e-12


def test_lambda_integrate_validation():
    p = ModelParams()
    with pytest.raises(ValueError, match="norm"):
        lambda_integrate(p, np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="three amplitudes"):
        lambda_integrate(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        lambda_integrate(p, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="undefined"):
        lambda_dark_state(0.0, 0.0)
