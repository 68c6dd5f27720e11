"""Circuit intermediate representation and evaluation.

A circuit is an ordered gate list over a fixed qubit register; list order is
application order (the first gate acts on the state first).  The JSON form is

    {"qubits": 3, "gates": [{"kind": "RZ", "angle": 0.2, "targets": [1]}, ...]}

with angles in radians and the ``angle`` key present only on rotation gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gates import Gate, PARAMETRIC_KINDS, gate_unitary
from .linalg import apply_operator

MAX_UNITARY_QUBITS = 10


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on `qubit_count` qubits."""

    qubit_count: int
    gates: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        for gate in self.gates:
            if max(gate.targets) >= self.qubit_count:
                raise ValueError(f"gate {gate} exceeds register of {self.qubit_count} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def extended(self, other: "Circuit") -> "Circuit":
        """This circuit followed by `other` on the same register."""
        if other.qubit_count != self.qubit_count:
            raise ValueError("qubit counts differ")
        return Circuit(self.qubit_count, self.gates + other.gates, label=self.label)


def run_circuit(circuit: Circuit, initial: np.ndarray) -> np.ndarray:
    """Apply the circuit gate by gate, never materializing the full unitary."""
    state = np.asarray(initial, dtype=complex)
    if state.shape != (2**circuit.qubit_count,):
        raise ValueError(
            f"initial state has dimension {state.shape}, circuit needs {2**circuit.qubit_count}"
        )
    for gate in circuit.gates:
        state = apply_operator(state, gate_unitary(gate), gate.targets)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit: product of embedded gates, first gate rightmost."""
    if circuit.qubit_count > MAX_UNITARY_QUBITS:
        raise ValueError(f"refusing to materialize a unitary on {circuit.qubit_count} qubits")
    u = np.eye(2**circuit.qubit_count, dtype=complex)
    for gate in circuit.gates:
        # the columns of u are a batch of states
        u = apply_operator(u, gate_unitary(gate), gate.targets)
    return u


def circuit_to_json_dict(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        entry: dict = {"kind": gate.kind, "targets": list(gate.targets)}
        if gate.kind in PARAMETRIC_KINDS:
            entry["angle"] = gate.angle
        gates.append(entry)
    return {"qubits": circuit.qubit_count, "gates": gates}


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(circuit), sort_keys=True)


def circuit_from_json_dict(data: dict) -> Circuit:
    try:
        qubits = int(data["qubits"])
        raw_gates = data["gates"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed circuit payload: {exc}") from exc
    gates = []
    for raw in raw_gates:
        try:
            gates.append(
                Gate(kind=str(raw["kind"]), targets=tuple(raw["targets"]), angle=raw.get("angle"))
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed gate entry {raw!r}: {exc}") from exc
    return Circuit(qubit_count=qubits, gates=tuple(gates))


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_json_dict(json.loads(text))
