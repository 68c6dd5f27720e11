"""Product-formula circuits for the encoded three-level model.

Layout: qubits 0-2 are the encoded system (q0 field, q1/q2 atom), qubit 3 is
the single ancilla used to condition the exchange rotations.  Every emitted
circuit returns the ancilla to |0> exactly, step by step.

A first-order step applies the field and atomic phase blocks followed by the
interaction block; a second-order step wraps the interaction block between
two half-length phase blocks.  The interaction block realizes both exchange
rotations (g<->e and e<->f) exactly, so the second-order step is an exact
Strang splitting and its per-step error is O(dt^3); first order is O(dt^2).

Every RZ/CRZ angle equals 2 * coefficient * dt for the labeled Hamiltonian
term; the per-step `TrotterPlan.angle_table` records (label, coefficient,
angle) rows in emission order so circuits can be audited directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import encoding
from .circuits import Circuit, circuit_unitary
from .gates import Gate
from .linalg import hermitian_expm
from .models import ModelParams, build_three_level_hamiltonian

SYSTEM_QUBITS = 3
ANCILLA = 3
TOTAL_QUBITS = 4

DEFAULT_PHASE_BUDGET = 0.15
DEFAULT_STEPS = 10

AngleRow = tuple[str, float, float]  # (term label, coefficient rad/s, angle rad)


def rz_angle(h_k: float, dt: float) -> float:
    """Rotation angle 2 * h_k * dt of a Hamiltonian term with coefficient h_k."""
    return 2.0 * h_k * dt


def choose_dt(g: float, phase_budget: float = DEFAULT_PHASE_BUDGET) -> float:
    """Largest step keeping the exchange phase g*dt at `phase_budget` radians."""
    if g <= 0:
        raise ValueError("coupling must be positive")
    if not 0 < phase_budget <= 1.0:
        raise ValueError("phase budget must lie in (0, 1] rad")
    return phase_budget / g


@dataclass(frozen=True)
class TrotterPlan:
    """Step recipe: order, step size, count, and the audited angle table."""

    order: int
    dt: float
    steps: int
    angle_table: tuple[AngleRow, ...]

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.dt < 0:
            raise ValueError("dt must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        for label, coeff, angle in self.angle_table:
            if abs(angle - rz_angle(coeff, self.dt)) > 1e-12 * max(1.0, abs(angle)):
                raise ValueError(f"angle row {label!r} violates angle = 2*coeff*dt")

    @property
    def total_time(self) -> float:
        return self.dt * self.steps

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "dt": self.dt,
            "steps": self.steps,
            "angle_table": [
                {"term": label, "coefficient": coeff, "angle": angle}
                for label, coeff, angle in self.angle_table
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def diagonal_coefficients(p: ModelParams) -> list[tuple[str, int | tuple[int, int], float]]:
    """Pauli-Z expansion of the diagonal (field + atomic) Hamiltonian part.

    Projectors on the encoded levels expand over {I, Z1, Z2, Z1 Z2}; the
    expansion is exactly zero on the two excluded patterns, so these phase
    gates never touch unphysical states.  The identity term is a global
    phase and is dropped.
    """
    w_g, w_e, w_f = (p.omega_levels[k] for k in ("g", "e", "f"))
    return [
        ("field Z(q0)", 0, -0.5 * p.omega_f),
        ("atom Z(q1)", 1, 0.25 * (w_g - w_e - w_f)),
        ("atom Z(q2)", 2, 0.25 * (w_g + w_e - w_f)),
        ("atom ZZ(q1,q2)", (1, 2), 0.25 * (w_g - w_e + w_f)),
    ]


def _phase_block(p: ModelParams, dt: float, scale: float, reverse: bool = False) -> tuple[list[Gate], list[AngleRow]]:
    suffix = " half" if scale != 1.0 else ""
    gates: list[Gate] = []
    rows: list[AngleRow] = []
    for label, target, coeff in diagonal_coefficients(p):
        if coeff == 0.0:
            continue
        eff = coeff * scale
        angle = rz_angle(eff, dt)
        rows.append((label + suffix, eff, angle))
        if isinstance(target, tuple):
            # CX (I x RZ) CX implements the two-qubit Z x Z rotation
            gates.extend(
                [
                    Gate("CX", target),
                    Gate("RZ", (target[1],), angle),
                    Gate("CX", target),
                ]
            )
        else:
            gates.append(Gate("RZ", (target,), angle))
    if reverse:
        gates.reverse()
        rows.reverse()
    return gates, rows


#: (label, coupling key, fold CX targets, conditioning, rotated qubit).
#: Folding CX maps each exchange doublet onto a pair differing in one qubit;
#: the RCCX pair then flags exactly that pair on the ancilla, keeping the
#: excluded patterns and the spectator level strictly untouched.
_EXCHANGES = (
    ("exchange g<->e", "ge", (1, 0), "q0 and not q2", 1),
    ("exchange e<->f", "ef", (2, 0), "q0 and q1", 2),
)


def _interaction_block(p: ModelParams, dt: float) -> tuple[list[Gate], list[AngleRow]]:
    gates: list[Gate] = []
    rows: list[AngleRow] = []
    for label, key, fold, condition, rotated in _EXCHANGES:
        g = p.g_couplings[key]
        if g == 0.0:
            continue
        angle = rz_angle(g, dt)
        if condition == "q0 and not q2":
            flag = [Gate("X", (2,)), Gate("RCCX", (0, 2, ANCILLA)), Gate("X", (2,))]
        else:
            flag = [Gate("RCCX", (0, 1, ANCILLA))]
        core = [
            Gate("CH", (ANCILLA, rotated)),
            Gate("CRZ", (ANCILLA, rotated), angle),
            Gate("CH", (ANCILLA, rotated)),
        ]
        gates.extend([Gate("CX", fold), *flag, *core, *flag, Gate("CX", fold)])
        rows.append((label + " core", g, angle))
    return gates, rows


def _step_with_rows(p: ModelParams, order: int, dt: float) -> tuple[Circuit, tuple[AngleRow, ...]]:
    # negative dt is allowed and yields the exact inverse step
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    pre_gates, pre_rows = _phase_block(p, dt, scale=1.0 if order == 1 else 0.5)
    int_gates, int_rows = _interaction_block(p, dt)
    post_gates, post_rows = _phase_block(p, dt, scale=0.5, reverse=True) if order == 2 else ([], [])
    label = "first-order step" if order == 1 else "second-order step"
    circuit = Circuit(TOTAL_QUBITS, tuple(pre_gates + int_gates + post_gates), label=label)
    return circuit, tuple(pre_rows + int_rows + post_rows)


def build_step(p: ModelParams, order: int, dt: float) -> Circuit:
    """One product-formula step of length `dt` on the 4-qubit register.

    Order 1: phase block then interaction block.  Order 2: the symmetric
    step, half phases, interaction, half phases.  A negative `dt` yields the
    exact inverse step.
    """
    return _step_with_rows(p, order, dt)[0]


def trotter_plan(p: ModelParams, order: int, dt: float, steps: int) -> TrotterPlan:
    """Plan whose angle table matches the emitted per-step circuit exactly."""
    _, rows = _step_with_rows(p, order, dt)
    return TrotterPlan(order=order, dt=dt, steps=steps, angle_table=rows)


def compose_steps(step: Circuit, n: int) -> Circuit:
    """The step circuit repeated n times."""
    if n < 0:
        raise ValueError("step count must be >= 0")
    return Circuit(step.qubit_count, step.gates * n, label=step.label)


def prepare_initial_state(
    atom_level: str,
    fock_n: int = 0,
    theta_f: float | None = None,
    qubit_count: int = TOTAL_QUBITS,
) -> Circuit:
    """State-preparation circuit from |000...> for the encoded register.

    The field qubit is set to |fock_n>, or rotated by RY(theta_f) for a weak
    coherent excitation with amplitude sin(theta_f / 2) on |1>_f (linear
    regime: theta_f <= 0.5 rad).
    """
    if atom_level not in encoding.ATOM_LEVELS:
        raise ValueError(f"unknown atomic level {atom_level!r}")
    gates: list[Gate] = []
    if theta_f is not None:
        if not 0.0 <= theta_f <= 0.5:
            raise ValueError("weak-excitation angle must lie in [0, 0.5] rad")
        if theta_f > 0.0:
            gates.append(Gate("RY", (encoding.FIELD_QUBIT,), theta_f))
    else:
        if fock_n not in (0, 1):
            raise ValueError(f"photon number {fock_n} outside truncated mode")
        if fock_n == 1:
            gates.append(Gate("X", (encoding.FIELD_QUBIT,)))
    q1, q2 = encoding.LEVEL_BITS[atom_level]
    if q1:
        gates.append(Gate("X", (1,)))
    if q2:
        gates.append(Gate("X", (2,)))
    return Circuit(qubit_count, tuple(gates), label=f"prepare {atom_level},{fock_n if theta_f is None else 'weak'}")


def strip_ancilla(state: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Project out a disentangled |0> ancilla from a 4-qubit state."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2**TOTAL_QUBITS,):
        raise ValueError("expected a 4-qubit state")
    residual = float(np.sum(np.abs(state[8:]) ** 2))
    if residual > tol:
        raise ValueError(f"ancilla population {residual:.3e} exceeds {tol}")
    block = state[:8]
    return block / np.linalg.norm(block)


def step_system_unitary(step: Circuit, tol: float = 1e-10) -> np.ndarray:
    """8x8 action of a step on the system, after checking ancilla return.

    The full 16x16 circuit unitary must map the ancilla-|0> block to itself;
    any block coupling above `tol` means the compute/uncompute pairing broke.
    """
    u_full = circuit_unitary(step)
    coupling = float(np.max(np.abs(u_full[8:, :8])))
    if coupling > tol:
        raise ValueError(f"ancilla leaves |0> (coupling {coupling:.3e})")
    return u_full[:8, :8]


def exact_step_unitary(p: ModelParams, dt: float) -> np.ndarray:
    """Exact propagator exp(-i H dt) of the encoded three-level model."""
    return hermitian_expm(build_three_level_hamiltonian(p), dt)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral norm of u - exp(i phi) v at the Frobenius-optimal phase phi."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.linalg.norm(u - phase * v, 2))


def trotter_error(p: ModelParams, order: int, dt: float) -> float:
    """Per-step spectral-norm error against the exact propagator.

    Both unitaries are restricted to the six physical basis columns before
    comparison: the excluded patterns carry no dynamics by construction, and
    the bare field phase gate intentionally ignores them.  Global phase is
    removed by Frobenius-optimal alignment.
    """
    step = build_step(p, order, dt)
    u_sys = step_system_unitary(step)
    u_exact = exact_step_unitary(p, dt)
    valid = list(encoding.VALID_BASIS_INDICES)
    a = u_sys[np.ix_(valid, valid)]
    b = u_exact[np.ix_(valid, valid)]
    leak = float(np.max(np.abs(u_sys[np.ix_(list(encoding.INVALID_BASIS_INDICES), valid)])))
    if leak > 1e-10:
        raise ValueError(f"step couples physical states to excluded patterns ({leak:.3e})")
    return phase_aligned_distance(a, b)


def fit_error_slope(dts: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if dts.size < 2 or np.any(errors <= 0) or np.any(dts <= 0):
        raise ValueError("need >= 2 positive (dt, error) pairs")
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope)
