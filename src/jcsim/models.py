"""Atom-field models: exact Hamiltonians, closed-form dynamics, trajectories.

Three related systems live here:

- the two-level atom exchanging one excitation with a truncated field mode
  (vacuum Rabi oscillations, collapse of atomic coherence for coherent field
  states);
- its three-level extension on the q2 q1 q0 encoding from `encoding`;
- the driven three-level Lambda configuration, integrated as amplitude ODEs.

Basis orderings.  The two-level composite space is field (x) atom with the
field factor slowest; the atom basis is (e, g) with the excited state first,
so reduced atomic density matrices read diag(P_e, P_g).  All frequencies are
angular (rad/s), times are seconds, hbar = 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoding
from .linalg import tensor_product, von_neumann_entropy

TAU = 2.0 * math.pi

#: Vacuum coupling used as the default frequency scale everywhere.
DEFAULT_COUPLING = TAU * 25e3  # rad/s


def _default_levels() -> dict[str, float]:
    # First transition resonant with the field; the upper level sits off the
    # harmonic ladder (2.5 rather than 2 field quanta) as real atoms do.  A
    # perfectly harmonic resonant ladder would commute with the interaction
    # and make every product formula exact, which hides discretization error.
    return {"g": 0.0, "e": DEFAULT_COUPLING, "f": 2.5 * DEFAULT_COUPLING}


def _default_couplings() -> dict[str, float]:
    return {"ge": DEFAULT_COUPLING, "ef": DEFAULT_COUPLING}


@dataclass(frozen=True)
class ModelParams:
    """Model configuration shared by the exact and digitized evolutions.

    omega_f        field mode frequency (rad/s)
    omega_levels   atomic level frequencies keyed 'g', 'e', 'f'
    g_couplings    exchange couplings keyed 'ge' (g<->e) and 'ef' (e<->f)
    omega_p/_c     pump and coupling Rabi frequencies of the Lambda drive
    nbar           mean photon number of the initial coherent field state
    n_max          field truncation for the two-level model (>= 1)
    """

    omega_f: float = DEFAULT_COUPLING
    omega_levels: dict[str, float] = field(default_factory=_default_levels)
    g_couplings: dict[str, float] = field(default_factory=_default_couplings)
    omega_p: float = DEFAULT_COUPLING
    omega_c: float = DEFAULT_COUPLING
    nbar: float = 2.0
    n_max: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_levels", dict(self.omega_levels))
        object.__setattr__(self, "g_couplings", dict(self.g_couplings))
        if set(self.omega_levels) != {"g", "e", "f"}:
            raise ValueError(f"omega_levels needs keys g/e/f, got {sorted(self.omega_levels)}")
        if set(self.g_couplings) != {"ge", "ef"}:
            raise ValueError(f"g_couplings needs keys ge/ef, got {sorted(self.g_couplings)}")
        rates = [self.omega_f, self.omega_p, self.omega_c, self.nbar,
                 *self.omega_levels.values(), *self.g_couplings.values()]
        for value in rates:
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"rates must be finite and >= 0, got {value}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def omega_a(self) -> float:
        """Two-level atomic transition frequency (e minus g)."""
        return self.omega_levels["e"] - self.omega_levels["g"]

    def with_(self, **changes) -> "ModelParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables on a strictly increasing time grid."""

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ValueError("times must be a finite, non-empty 1-D array")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        columns = {name: np.asarray(vals, dtype=float) for name, vals in self.columns.items()}
        object.__setattr__(self, "columns", columns)
        for name, vals in columns.items():
            if vals.shape != times.shape:
                raise ValueError(f"column {name!r} length does not match times")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"column {name!r} has non-finite values")
            if name.startswith("P") or name == "leakage":
                if not (-1e-9 <= vals.min() and vals.max() <= 1.0 + 1e-9):
                    raise ValueError(f"probability column {name!r} leaves [0, 1]")

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def to_csv(self) -> str:
        header = ",".join(["t", *self.columns])
        rows = [header]
        for i, t in enumerate(self.times):
            rows.append(",".join([repr(float(t))] + [repr(float(v[i])) for v in self.columns.values()]))
        return "\n".join(rows) + "\n"

    def to_json_dict(self) -> dict:
        out = {"t": [float(t) for t in self.times]}
        for name, vals in self.columns.items():
            out[name] = [float(v) for v in vals]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# --------------------------------------------------------------------------
# two-level atom, truncated field mode


def _ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)


def build_jc2_hamiltonian(p: ModelParams) -> np.ndarray:
    """Excitation-conserving two-level Hamiltonian on field (x) atom.

    H = omega_f a'a + (omega_a/2) sigma_z + g (a sigma_+ + a' sigma_-),
    with g = g_couplings['ge'] and the field truncated at n_max photons.
    """
    dim_f = p.n_max + 1
    a = _ladder(p.n_max)
    eye_f = np.eye(dim_f, dtype=complex)
    sigma_z = np.diag([1.0, -1.0]).astype(complex)   # atom basis (e, g)
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    g = p.g_couplings["ge"]
    h = p.omega_f * tensor_product(a.conj().T @ a, np.eye(2))
    h += 0.5 * p.omega_a * tensor_product(eye_f, sigma_z)
    h += g * (tensor_product(a, sigma_plus) + tensor_product(a.conj().T, sigma_plus.conj().T))
    return h


def jc2_number_operator(n_max: int) -> np.ndarray:
    """Total excitation operator a'a + sigma_+ sigma_- (commutes with H)."""
    a = _ladder(n_max)
    return tensor_product(a.conj().T @ a, np.eye(2)) + tensor_product(
        np.eye(n_max + 1), np.diag([1.0, 0.0])
    )


def jc2_basis_index(photon_n: int, atom_excited: bool, n_max: int) -> int:
    """Index of |photon_n> (x) |e or g| in the composite space."""
    if not 0 <= photon_n <= n_max:
        raise ValueError(f"photon number {photon_n} outside truncation {n_max}")
    return photon_n * 2 + (0 if atom_excited else 1)


def rabi_frequency(g: float, n: int) -> float:
    """Oscillation frequency 2 g sqrt(n+1) of the n-excitation doublet."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return 2.0 * g * math.sqrt(n + 1)


def analytic_jc2_amplitudes(g: float, n: int, t):
    """Closed-form amplitudes (c_e on |e,n>, c_g on |g,n+1>) from c_e(0)=1.

    `t` is a time or an array of times; each amplitude takes its shape.
    Valid in the frame where the bare energies vanish (resonant exchange);
    populations are frame-independent.
    """
    if n < 0:
        raise ValueError("photon number must be >= 0")
    phase = g * math.sqrt(n + 1) * np.asarray(t, dtype=float)
    return np.cos(phase).astype(complex), -1j * np.sin(phase)


def exact_jc2_amplitudes(g: float, n: int, times: np.ndarray) -> np.ndarray:
    """Amplitudes (c_e on |e,n>, c_g on |g,n+1>) from c_e(0)=1, one row per time.

    The excitation number is conserved, so the doublet is an invariant block
    with generator g sqrt(n+1) sigma_x in the frame of `analytic_jc2_amplitudes`
    (bare energies zero); it is propagated by eigendecomposition, independently
    of the closed-form cos/sin.
    """
    block = g * math.sqrt(n + 1) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    start = np.array([1.0, 0.0], dtype=complex)
    return _exact_states(block, start, np.asarray(times, dtype=float)).T


def reduced_atom_density(g: float, n: int, t: float) -> np.ndarray:
    """Reduced atomic state diag(cos^2, sin^2) of the exchange doublet."""
    c_e, c_g = analytic_jc2_amplitudes(g, n, t)
    return np.diag([abs(c_e) ** 2, abs(c_g) ** 2]).astype(complex)


def coherent_state(nbar: float, n_max: int) -> np.ndarray:
    """Truncated coherent field state with mean photon number nbar.

    Raises if the truncation drops more than 1e-6 of the Poisson weight,
    naming the smallest adequate n_max if it is below n_max + 10**5.
    """
    if not 0 <= nbar < math.inf:
        raise ValueError("nbar must be finite and >= 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if nbar == 0.0:
        state = np.zeros(n_max + 1, dtype=complex)
        state[0] = 1.0
        return state
    ns = np.arange(n_max + 1)
    log_p = -nbar + ns * math.log(nbar) - np.array([math.lgamma(n + 1) for n in ns])
    probs = np.exp(log_p)
    weight = probs.sum()
    if weight < 1.0 - 1e-6:
        # tail terms in log space, so an underflowed term cannot stall the search
        required = n_max
        cumulative = weight
        log_term = log_p[-1]
        while cumulative < 1.0 - 1e-6 and required < n_max + 10**5:
            required += 1
            log_term += math.log(nbar / required)
            cumulative += math.exp(log_term)
        advice = "to at least" if cumulative >= 1.0 - 1e-6 else "beyond"
        raise ValueError(
            f"n_max={n_max} keeps only {weight:.9f} of the coherent-state weight "
            f"for nbar={nbar}; increase n_max {advice} {required}"
        )
    return np.sqrt(probs / weight).astype(complex)


def _exact_states(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns psi(t) for every t, via one eigendecomposition of h."""
    w, v = np.linalg.eigh(h)
    coeffs = v.conj().T @ psi0
    phases = np.exp(-1j * np.outer(w, times))
    return v @ (phases * coeffs[:, None])


def entropy_trajectory(p: ModelParams, times: np.ndarray) -> Trajectory:
    """Atomic von Neumann entropy (nats) under exact two-level evolution.

    Initial state: atom excited, field in `coherent_state(p.nbar, p.n_max)`.
    The reduced 2x2 atomic matrices of the whole grid come from one einsum
    over the exact state columns, and their entropies from one stacked call.
    """
    times = np.asarray(times, dtype=float)
    field_state = coherent_state(p.nbar, p.n_max)
    atom_excited = np.array([1.0, 0.0], dtype=complex)
    psi0 = tensor_product(field_state, atom_excited)
    h = build_jc2_hamiltonian(p)
    # rows of the state columns are (photon n, atom) pairs, field slowest
    states = _exact_states(h, psi0, times).reshape(p.n_max + 1, 2, times.size)
    rho_atom = np.einsum("nat,nbt->tab", states, states.conj())
    entropy = von_neumann_entropy(rho_atom)
    return Trajectory(times=times, columns={"entropy_nats": entropy})


# --------------------------------------------------------------------------
# three-level atom on the q2 q1 q0 encoding


def build_three_level_hamiltonian(p: ModelParams) -> np.ndarray:
    """8x8 Hamiltonian on the encoded space; zero on the excluded patterns.

    Diagonal: omega_f * n + omega_level per physical basis state.  Coupling:
    g_ge exchanges |g,1> <-> |e,0|, g_ef exchanges |e,1> <-> |f,0>; within
    one excitation manifold the interaction reduces to g_ge sigma_x.
    """
    h = np.zeros((8, 8), dtype=complex)
    for index in encoding.VALID_BASIS_INDICES:
        label = encoding.decode_basis(index)
        h[index, index] = p.omega_f * label.photon_n + p.omega_levels[label.atom_level]
    pairs = [
        ("ge", encoding.BasisLabel(1, "g"), encoding.BasisLabel(0, "e")),
        ("ef", encoding.BasisLabel(1, "e"), encoding.BasisLabel(0, "f")),
    ]
    for key, lower, upper in pairs:
        i, j = encoding.encode_basis(lower), encoding.encode_basis(upper)
        h[i, j] = p.g_couplings[key]
        h[j, i] = p.g_couplings[key]
    return h


def three_level_number_operator() -> np.ndarray:
    """Diagonal excitation operator n + rank(level); zero on excluded patterns."""
    op = np.zeros((8, 8), dtype=complex)
    for index in encoding.VALID_BASIS_INDICES:
        label = encoding.decode_basis(index)
        op[index, index] = label.photon_n + encoding.LEVEL_RANK[label.atom_level]
    return op


def populations(state: np.ndarray) -> dict:
    """Level populations P_g, P_e, P_f (floats) of an encoded state (8,), or (m,) of a batch (8, m)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != 8:
        raise ValueError("expected a 3-qubit encoded state of dimension 8, or a batch (8, m)")
    out = {level: sum(np.abs(state[encoding.encode_basis(encoding.BasisLabel(n, level))]) ** 2 for n in (0, 1))
           for level in encoding.ATOM_LEVELS}
    return out if state.ndim == 2 else {level: float(total) for level, total in out.items()}


def excitation_expectation(state: np.ndarray) -> float:
    """<N> of an encoded 3-qubit state (excluded patterns carry weight 0)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("expected a 3-qubit encoded state of dimension 8")
    op = three_level_number_operator()
    return float(np.real(state.conj() @ (op @ state)))


def exact_three_level_evolution(p: ModelParams, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns exp(-i H t) psi0 of the encoded three-level model."""
    return _exact_states(build_three_level_hamiltonian(p), np.asarray(psi0, complex), np.asarray(times, float))


# --------------------------------------------------------------------------
# driven Lambda configuration


def lambda_rhs_matrix(omega_p: float, omega_c: float) -> np.ndarray:
    """dc/dt = (i/2) M c for amplitudes (c1, c2, c3) of the Lambda system."""
    return 0.5j * np.array(
        [[0, 0, omega_p], [0, 0, omega_c], [omega_p, omega_c, 0]], dtype=complex
    )


def lambda_fastest_drive(omega_p: float, omega_c: float) -> float:
    """The faster Rabi frequency; it sets the RK4 step and the default window."""
    return max(omega_p, omega_c)


def lambda_step_size(omega_p: float, omega_c: float, t_span: float) -> float:
    """Fixed RK4 step: resolve the fastest drive and take >= 1000 steps."""
    fastest = lambda_fastest_drive(omega_p, omega_c)
    resolve = 0.01 / fastest if fastest > 0 else math.inf
    return min(resolve, t_span / 1000.0)


def lambda_integrate(p: ModelParams, c0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Populations of the driven Lambda system by fixed-step RK4.

    `c0` is the normalized amplitude triple (c1, c2, c3) at t=0; `times`
    must be strictly increasing and start at >= 0.  Each interval between
    grid points takes ceil(span / h_max) equal steps.  On this constant
    linear ODE the four RK4 stages of one step of size h compose to the
    matrix I + a + a^2/2 + a^3/6 + a^4/24 with a = h K, which is raised to
    the interval's step count.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    c = np.asarray(c0, dtype=complex).copy()
    if c.shape != (3,):
        raise ValueError("c0 must have three amplitudes")
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise ValueError(f"c0 norm {np.linalg.norm(c)} is not 1")
    k_matrix = lambda_rhs_matrix(p.omega_p, p.omega_c)
    h_max = lambda_step_size(p.omega_p, p.omega_c, float(times[-1]) if times[-1] > 0 else 1.0)
    if not times[-1] <= h_max * 2.0**53:
        raise ValueError(f"a {times[-1]} s window needs more than 2**53 RK4 steps of {h_max} s")
    eye = np.eye(3, dtype=complex)
    records = np.empty((3, times.size))
    t_prev = 0.0
    for i, t in enumerate(times):
        if t > t_prev:
            span = t - t_prev
            steps = max(1, math.ceil(span / h_max))
            a = (span / steps) * k_matrix
            step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
            c = np.linalg.matrix_power(step, steps) @ c
            t_prev = t
        records[:, i] = np.abs(c) ** 2
    return Trajectory(
        times=times,
        columns={"P1": records[0], "P2": records[1], "P3": records[2]},
    )


def lambda_dark_state(omega_p: float, omega_c: float) -> np.ndarray:
    """Normalized zero-eigenvalue superposition (Omega_c, -Omega_p, 0)."""
    vec = np.array([omega_c, -omega_p, 0.0], dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("dark state undefined when both drives vanish")
    return vec / norm
