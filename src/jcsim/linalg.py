"""Dense linear algebra for small quantum systems.

Conventions used across the package:

- ``hbar = 1``: Hamiltonian entries are angular frequencies (rad/s) and times
  are seconds, so ``H * t`` is a phase in radians.
- A pure state is a 1-D complex ndarray of length ``2**n``; bit ``k`` of the
  basis index is qubit ``k`` (q0 is the least significant bit).
- Bitstrings are displayed most-significant first, e.g. ``"110"`` means
  q2=1, q1=1, q0=0.
- A multi-qubit gate matrix is indexed in reading order: the first entry of
  ``targets`` is the most significant bit of the matrix index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def basis_state(index: int, qubit_count: int) -> np.ndarray:
    """Computational basis state |index> on `qubit_count` qubits."""
    dim = 2**qubit_count
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {qubit_count} qubits")
    state = np.zeros(dim, dtype=complex)
    state[index] = 1.0
    return state


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with `a`'s index slowest (most significant)."""
    return np.kron(np.asarray(a), np.asarray(b))


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol


def hermitian_expm(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator exp(-i*h*t) of a Hermitian generator.

    Computed by eigendecomposition, which keeps the result unitary to
    rounding precision for the small dense operators used here.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol=1e-12 * max(1.0, float(np.max(np.abs(h)) or 1.0))):
        raise ValueError("generator must be Hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _qubit_count_of(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def apply_operator(state: np.ndarray, u: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k x 2^k operator to the `targets` qubits of a state.

    `state` is a pure state ``(2**n,)`` or a batch ``(2**n, m)`` whose
    trailing axis is carried along, e.g. the columns of a unitary.
    ``targets[0]`` is the most significant bit of the operator's own index.
    The state is not renormalized; unitary inputs preserve the norm.
    """
    state = np.asarray(state, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if state.ndim not in (1, 2):
        raise ValueError(f"expected a state (2**n,) or a batch (2**n, m), got shape {state.shape}")
    n = _qubit_count_of(state.shape[0])
    targets = tuple(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if u.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {u.shape} does not match {k} targets")
    # sublist labels: qubit t is axis n-1-t of the state tensor, label n is
    # the batch axis, labels n+1.. are the operator's output axes
    axes = [n - 1 - t for t in targets]
    new = list(range(n + 1, n + 1 + k))
    labels = list(range(n)) + [n] * (state.ndim - 1)
    out_labels = [new[axes.index(a)] if a in axes else a for a in labels]
    tensor = state.reshape([2] * n + list(state.shape[1:]))
    out = np.einsum(u.reshape([2] * (2 * k)), new + axes, tensor, labels, out_labels)
    return out.reshape(state.shape)


def _validate_density_matrix(rho: np.ndarray, trace_tol: float, psd_tol: float) -> np.ndarray:
    """Eigenvalues of a (d, d) matrix or (T, d, d) stack; checks each is Hermitian, unit-trace, PSD."""
    square = rho.ndim in (2, 3) and rho.shape[-1] == rho.shape[-2]
    if not (square and np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)), initial=0.0) <= 1e-10):
        raise ValueError("density matrix must be Hermitian")
    if not np.max(np.abs(np.einsum("...ii", rho) - 1.0), initial=0.0) <= trace_tol:
        raise ValueError("density matrix trace must be 1")
    w = np.linalg.eigvalsh(rho)
    if np.any(w < -psd_tol):
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return w


def _as_density(rho_or_state: np.ndarray, trace_tol: float = 1e-10, psd_tol: float = 1e-10) -> np.ndarray:
    arr = np.asarray(rho_or_state, dtype=complex)
    if arr.ndim == 1:
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        return np.outer(arr, arr.conj())
    if arr.ndim == 2:
        _validate_density_matrix(arr, trace_tol, psd_tol)
        return arr
    raise ValueError("expected a state vector or a density matrix")


def partial_trace_factors(
    rho_or_state: np.ndarray, dims: list[int], keep: list[int]
) -> np.ndarray:
    """Partial trace over a tensor-factorized space.

    `dims` lists the factor dimensions in Kronecker order (first factor is
    the most significant index block); `keep` are positions into `dims`.
    The reduced matrix keeps the surviving factors in their original order.
    """
    rho = _as_density(rho_or_state)
    dims = [int(d) for d in dims]
    if math.prod(dims) != rho.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {rho.shape[0]}")
    k = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range")
    # sublist labels: factor i has row label i and column label k+i when
    # kept, i when traced out
    col = [k + i if i in keep else i for i in range(k)]
    reduced = np.einsum(rho.reshape(dims + dims), list(range(k)) + col, keep + [k + i for i in keep])
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def partial_trace(rho_or_state: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced density matrix over the kept qubits (q0 = least significant).

    Kept qubits retain their relative significance, so keeping [0, 2] of a
    3-qubit state yields a 4x4 matrix indexed by (q2, q0).
    """
    arr = np.asarray(rho_or_state)
    n = _qubit_count_of(arr.shape[0])
    factors = sorted(n - 1 - int(q) for q in keep)
    if any(f < 0 or f >= n for f in factors):
        raise ValueError(f"keep qubits {list(keep)} out of range for {n} qubits")
    return partial_trace_factors(arr, [2] * n, factors)


def von_neumann_entropy(rho: np.ndarray, negative_tol: float = 1e-9) -> float | np.ndarray:
    """Entropy -Tr[rho ln rho] in nats of a (d, d) matrix, or (T,) of a (T, d, d) stack.

    Eigenvalues in [-negative_tol, 0) are clamped to 0; anything lower is a
    genuinely invalid density matrix and raises.
    """
    w = _validate_density_matrix(np.asarray(rho, dtype=complex), 1e-9, negative_tol)
    # an eigenvalue a rounding error above 1 would give a tiny negative sum
    entropy = np.maximum(-np.sum(w * np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1), 0.0)
    return float(entropy) if entropy.ndim == 0 else entropy


@dataclass(frozen=True)
class MeasurementHistogram:
    """Shot counts keyed by bitstring, most significant qubit first."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")
        lengths = {len(k) for k in self.counts}
        if len(lengths) > 1:
            raise ValueError("all bitstrings must have the same length")
        for key, value in self.counts.items():
            if value < 0:
                raise ValueError(f"negative count for {key!r}")
            if set(key) - {"0", "1"}:
                raise ValueError(f"bad bitstring {key!r}")

    @property
    def qubit_count(self) -> int:
        return len(next(iter(self.counts)))

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MeasurementHistogram":
        try:
            shots = int(data["shots"])
            counts = {str(k): int(v) for k, v in data["counts"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed histogram payload: {exc}") from exc
        return cls(counts=counts, shots=shots)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementHistogram":
        return cls.from_json_dict(json.loads(text))


def sample_measurements(state: np.ndarray, shots: int, seed: int) -> MeasurementHistogram:
    """Multinomial sampling of computational-basis outcomes.

    Uses numpy's seeded PCG64 generator, so a (state, shots, seed) triple
    maps to one histogram on every platform.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    state = np.asarray(state, dtype=complex)
    n = _qubit_count_of(state.shape[0])
    probs = np.abs(state) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state norm {math.sqrt(total)} is not 1")
    probs = probs / total
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(drawn) if c > 0}
    return MeasurementHistogram(counts=counts, shots=shots)
