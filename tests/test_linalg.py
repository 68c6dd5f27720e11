"""Linear-algebra core, checked against independent dense oracles.

The propagator is compared with a scaling-and-squaring Taylor series and the
targeted operator application with an explicit basis-by-basis embedding, both
written here without reusing any package code paths.
"""

import json
import math

import numpy as np
import pytest

from jcsim.linalg import (
    MeasurementHistogram,
    apply_operator,
    basis_state,
    hermitian_expm,
    is_hermitian,
    is_unitary,
    partial_trace,
    partial_trace_factors,
    sample_measurements,
    tensor_product,
    von_neumann_entropy,
)


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Oracle: exp(m) by scaling-and-squaring with a plain Taylor series."""
    norm = np.linalg.norm(m, np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    small = m / (2**squarings)
    term = np.eye(m.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 40):
        term = term @ small / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def embed_operator(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Oracle: full 2^n matrix of `u` on `targets`, built entry by entry.

    targets[0] is the most significant bit of u's own index; bit k of a
    global index is qubit k.
    """
    k = len(targets)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_col = 0
        for pos, q in enumerate(targets):
            sub_col |= ((col >> q) & 1) << (k - 1 - pos)
        rest = col
        for q in targets:
            rest &= ~(1 << q)
        for sub_row in range(2**k):
            row = rest
            for pos, q in enumerate(targets):
                row |= ((sub_row >> (k - 1 - pos)) & 1) << q
            full[row, col] += u[sub_row, sub_col]
    return full


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return state / np.linalg.norm(state)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- basis states and products ------------------------------------------------


def test_basis_state_places_single_amplitude():
    state = basis_state(5, 3)
    assert state.shape == (8,)
    assert state[5] == 1.0
    assert np.count_nonzero(state) == 1


def test_basis_state_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        basis_state(8, 3)
    with pytest.raises(ValueError, match="out of range"):
        basis_state(-1, 3)


def test_tensor_product_first_factor_is_most_significant():
    one = np.array([0.0, 1.0])
    zero = np.array([1.0, 0.0])
    combined = tensor_product(one, zero)
    assert np.array_equal(combined, np.array([0.0, 0.0, 1.0, 0.0]))


def test_hermitian_and_unitary_predicates():
    assert is_hermitian(np.array([[1.0, 2j], [-2j, 3.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_hermitian(np.zeros((2, 3)))
    assert is_unitary(np.eye(4))
    assert not is_unitary(2 * np.eye(4))
    assert not is_unitary(np.zeros((2, 3)))


# -- propagator against the Taylor oracle -------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 6, 8])
@pytest.mark.parametrize("t", [0.0, 0.3, 2.7])
def test_hermitian_expm_matches_taylor_oracle(dim, t):
    rng = np.random.default_rng(dim * 101 + 7)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    expected = expm_taylor(-1j * h * t)
    got = hermitian_expm(h, t)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_hermitian_expm_is_unitary_and_composes():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (m + m.conj().T) / 2
    u1 = hermitian_expm(h, 0.4)
    u2 = hermitian_expm(h, 1.1)
    assert is_unitary(u1)
    assert np.max(np.abs(u1 @ u2 - hermitian_expm(h, 1.5))) < 1e-12


def test_hermitian_expm_handles_large_frequency_scales():
    # entries around 1e5 rad/s, as the default model uses
    h = 2e5 * np.array([[1.0, 0.5], [0.5, -1.0]])
    t = 1e-5
    assert np.max(np.abs(hermitian_expm(h, t) - expm_taylor(-1j * h * t))) < 1e-10


def test_hermitian_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


# -- targeted operator application against the embedding oracle ---------------


def test_apply_operator_matches_embedding_oracle():
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(12):
            k = int(rng.integers(1, min(n, 3) + 1))
            targets = tuple(rng.permutation(n)[:k].tolist())
            cases.append((n, targets))
    for n, targets in cases:
        u = random_unitary(rng, 2 ** len(targets))
        state = random_state(rng, n)
        expected = embed_operator(u, targets, n) @ state
        got = apply_operator(state, u, targets)
        assert np.max(np.abs(got - expected)) < 1e-12, (n, targets)
        # a trailing batch axis is carried along: each column is one state
        batch = np.stack([random_state(rng, n) for _ in range(3)], axis=1)
        got_batch = apply_operator(batch, u, targets)
        assert got_batch.shape == batch.shape
        for col in range(batch.shape[1]):
            column = apply_operator(batch[:, col], u, targets)
            assert np.max(np.abs(got_batch[:, col] - column)) < 1e-12, (n, targets, col)


def test_apply_operator_reading_order_on_reversed_targets():
    # |10> means q1=1, q0=0; CX with control q0 (targets (0, 1)) leaves it alone
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    state = basis_state(2, 2)
    assert np.array_equal(apply_operator(state, cx, (0, 1)), state)
    # control q1 (targets (1, 0)) flips q0
    flipped = apply_operator(state, cx, (1, 0))
    assert np.array_equal(flipped, basis_state(3, 2))


def test_apply_operator_validation():
    state = basis_state(0, 2)
    u2 = np.eye(2)
    with pytest.raises(ValueError, match="duplicate"):
        apply_operator(state, np.eye(4), (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        apply_operator(state, u2, (2,))
    with pytest.raises(ValueError, match="shape"):
        apply_operator(state, np.eye(4), (0,))
    with pytest.raises(ValueError, match="power of 2"):
        apply_operator(np.ones(3), u2, (0,))


def test_apply_operator_preserves_norm():
    rng = np.random.default_rng(5)
    state = random_state(rng, 3)
    u = random_unitary(rng, 4)
    out = apply_operator(state, u, (2, 0))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# -- partial traces ------------------------------------------------------------


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = (basis_state(0, 2) + basis_state(3, 2)) / np.sqrt(2)
    for keep in ([0], [1]):
        rho = partial_trace(bell, keep)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12


def test_partial_trace_of_product_state_recovers_factors():
    rng = np.random.default_rng(17)
    a = random_state(rng, 1)
    b = random_state(rng, 2)
    state = tensor_product(b, a)  # b on qubits 2,1; a on qubit 0
    rho_a = partial_trace(state, [0])
    rho_b = partial_trace(state, [1, 2])
    assert np.max(np.abs(rho_a - np.outer(a, a.conj()))) < 1e-12
    assert np.max(np.abs(rho_b - np.outer(b, b.conj()))) < 1e-12


def test_partial_trace_keep_order_keeps_significance():
    # |q2 q1 q0> = |110>: keeping [0, 2] must give |10><10| indexed (q2, q0)
    rho = partial_trace(basis_state(6, 3), [0, 2])
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_partial_trace_factors_non_qubit_dims():
    a = np.array([1.0, 1j, -1.0]) / np.sqrt(3)
    b = np.array([0.6, 0.8j])
    state = np.kron(a, b)
    rho_b = partial_trace_factors(state, [3, 2], keep=[1])
    assert np.max(np.abs(rho_b - np.outer(b, b.conj()))) < 1e-12
    rho_a = partial_trace_factors(state, [3, 2], keep=[0])
    assert np.max(np.abs(rho_a - np.outer(a, a.conj()))) < 1e-12


def test_partial_trace_validation():
    with pytest.raises(ValueError, match="norm"):
        partial_trace(np.array([1.0, 1.0]), [0])
    with pytest.raises(ValueError, match="do not factor"):
        partial_trace_factors(np.eye(6) / 6, [4, 2], keep=[0])
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(basis_state(0, 2), [2])


def test_density_matrix_input_accepted():
    rho = np.diag([0.25, 0.75]).astype(complex)
    full = np.kron(rho, np.eye(2) / 2)
    reduced = partial_trace_factors(full, [2, 2], keep=[0])
    assert np.max(np.abs(reduced - rho)) < 1e-12


# -- entropy --------------------------------------------------------------------


def test_entropy_of_pure_state_is_zero():
    rho = np.outer(basis_state(1, 1), basis_state(1, 1).conj())
    assert von_neumann_entropy(rho) == 0.0


def test_entropy_of_maximally_mixed_state_is_log_dim():
    for dim in (2, 3, 4):
        assert abs(von_neumann_entropy(np.eye(dim) / dim) - math.log(dim)) < 1e-12


def test_entropy_binary_closed_form_and_subsystem_symmetry():
    for p in (0.1, 0.25, 0.5, 0.9):
        state = math.sqrt(p) * basis_state(0, 2) + math.sqrt(1 - p) * basis_state(3, 2)
        expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
        s0 = von_neumann_entropy(partial_trace(state, [0]))
        s1 = von_neumann_entropy(partial_trace(state, [1]))
        assert abs(s0 - expected) < 1e-12
        assert abs(s0 - s1) < 1e-12


def test_entropy_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(23)
    w = rng.random(4)
    w /= w.sum()
    rho = np.diag(w).astype(complex)
    u = random_unitary(rng, 4)
    rotated = u @ rho @ u.conj().T
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


def test_entropy_clamps_tiny_negative_eigenvalues_but_rejects_real_ones():
    rho = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    assert von_neumann_entropy(rho) >= 0.0
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.2, -0.2]).astype(complex))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = rng.random(dim)
    u = random_unitary(rng, dim)
    return (u * (w / w.sum())) @ u.conj().T


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_entropy_of_a_stack_matches_each_matrix(dim):
    rng = np.random.default_rng(dim)
    pure = random_unitary(rng, dim)[:, 0]
    stack = [random_density(rng, dim) for _ in range(6)]
    stack += [np.outer(pure, pure.conj()), np.eye(dim) / dim]
    got = von_neumann_entropy(np.array(stack))
    assert got.shape == (len(stack),)
    for rho, value in zip(stack, got):
        single = von_neumann_entropy(rho)
        assert isinstance(single, float)
        assert abs(value - single) < 1e-14
    assert abs(got[-1] - math.log(dim)) < 1e-12
    assert abs(got[-2]) < 1e-12


@pytest.mark.parametrize(
    "bad,message",
    [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.diag([0.7, 0.7]), "trace"),
        (np.diag([1.2, -0.2]), "negative eigenvalue"),
    ],
)
@pytest.mark.parametrize("position", [0, 3])
def test_entropy_of_a_stack_rejects_one_invalid_matrix(bad, message, position):
    rng = np.random.default_rng(5)
    stack = np.array([random_density(rng, 2) for _ in range(4)])
    stack[position] = bad
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy(stack)


def test_entropy_rejects_wrong_shapes():
    for shape in [(2,), (2, 3), (3, 2, 3), (2, 2, 2, 2)]:
        with pytest.raises(ValueError, match="Hermitian"):
            von_neumann_entropy(np.zeros(shape, dtype=complex))


# -- sampling and histograms -----------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    rng = np.random.default_rng(31)
    state = random_state(rng, 3)
    first = sample_measurements(state, 500, seed=42)
    second = sample_measurements(state, 500, seed=42)
    other = sample_measurements(state, 500, seed=43)
    assert first == second
    assert first != other


def test_sampling_counts_sum_and_skip_zero_probability():
    state = (basis_state(0, 2) + basis_state(2, 2)) / np.sqrt(2)
    hist = sample_measurements(state, 1000, seed=0)
    assert hist.shots == 1000
    assert sum(hist.counts.values()) == 1000
    assert set(hist.counts) <= {"00", "10"}


def test_sampling_statistics_on_balanced_state():
    state = np.ones(2, dtype=complex) / np.sqrt(2)
    shots = 100_000
    hist = sample_measurements(state, shots, seed=7)
    sigma = math.sqrt(shots * 0.25)
    assert abs(hist.counts["0"] - shots / 2) < 5 * sigma


def test_sampling_key_width_matches_register():
    hist = sample_measurements(basis_state(1, 4), 10, seed=1)
    assert hist.counts == {"0001": 10}
    assert hist.qubit_count == 4


def test_sampling_rejects_unnormalized_state():
    with pytest.raises(ValueError, match="norm"):
        sample_measurements(np.array([1.0, 1.0]), 10, seed=0)
    with pytest.raises(ValueError, match="shots"):
        sample_measurements(basis_state(0, 1), 0, seed=0)


def test_histogram_json_round_trip():
    hist = MeasurementHistogram(counts={"01": 3, "10": 7}, shots=10)
    text = hist.to_json()
    assert MeasurementHistogram.from_json(text) == hist
    payload = json.loads(text)
    assert payload == {"shots": 10, "counts": {"01": 3, "10": 7}}


def test_histogram_probability_lookup():
    hist = MeasurementHistogram(counts={"0": 25, "1": 75}, shots=100)
    assert hist.probability("1") == 0.75
    assert hist.probability("0") == 0.25


def test_histogram_validation():
    with pytest.raises(ValueError, match="sum to shots"):
        MeasurementHistogram(counts={"0": 1}, shots=2)
    with pytest.raises(ValueError, match="same length"):
        MeasurementHistogram(counts={"0": 1, "01": 1}, shots=2)
    with pytest.raises(ValueError, match="bad bitstring"):
        MeasurementHistogram(counts={"0x": 2}, shots=2)
    with pytest.raises(ValueError, match="positive"):
        MeasurementHistogram(counts={}, shots=0)
    with pytest.raises(ValueError, match="malformed"):
        MeasurementHistogram.from_json('{"shots": 5}')
