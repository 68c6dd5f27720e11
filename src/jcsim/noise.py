"""Calibration-based fidelity estimates for compiled circuits.

The model multiplies per-operation survival probabilities and is summarized
in exponential form

    F = exp(-(E_S + E_T + E_M)),

where E_S = n_1q * p_1q counts every one-qubit gate as one error unit,
E_T = n_2q * p_2q counts native two-qubit units (one RCCX transpiles to
`rccx_2q_count` of them, three on the CZ backends modeled here), and
E_M = n_meas * p_meas counts measured qubits.  For the small error rates
involved, exp(-sum) agrees with the literal product of (1 - p) factors to
well under a percentage point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuits import Circuit
from .gates import GATE_ARITIES, Gate
from .linalg import MeasurementHistogram

_CALIBRATION_FIELDS = {
    "backend": str,
    "median_1q_error": float,
    "median_2q_error": float,
    "median_readout_error": float,
    "rccx_2q_count": int,
}


@dataclass(frozen=True)
class CalibrationData:
    """Median device error rates plus the RCCX transpilation weight."""

    backend_name: str
    median_1q_error: float
    median_2q_error: float
    median_readout_error: float
    rccx_2q_count: int = 3

    def __post_init__(self) -> None:
        for name in ("median_1q_error", "median_2q_error", "median_readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5), got {value}")
        if self.rccx_2q_count < 1:
            raise ValueError("rccx_2q_count must be >= 1")
        if not self.backend_name:
            raise ValueError("backend name must be non-empty")

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend_name,
            "median_1q_error": self.median_1q_error,
            "median_2q_error": self.median_2q_error,
            "median_readout_error": self.median_readout_error,
            "rccx_2q_count": self.rccx_2q_count,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CalibrationData":
        values = {}
        for key, cast in _CALIBRATION_FIELDS.items():
            if key not in data:
                raise ValueError(f"calibration is missing field {key!r}")
            try:
                values[key] = cast(data[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"calibration field {key!r} is invalid: {exc}") from exc
        return cls(
            backend_name=values["backend"],
            median_1q_error=values["median_1q_error"],
            median_2q_error=values["median_2q_error"],
            median_readout_error=values["median_readout_error"],
            rccx_2q_count=values["rccx_2q_count"],
        )


def load_calibration(path: str) -> CalibrationData:
    """Read one calibration JSON file (schema in the module docstring)."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"calibration file {path} is not valid JSON: {exc}") from exc
    return CalibrationData.from_json_dict(data)


def bundled_backend_names() -> list[str]:
    files = resources.files("jcsim").joinpath("calibrations")
    return sorted(
        entry.name[: -len(".json")]
        for entry in files.iterdir()
        if entry.name.endswith(".json")
    )


def bundled_calibration(name: str) -> CalibrationData:
    """Load one of the calibration fixtures shipped with the package."""
    path = resources.files("jcsim").joinpath("calibrations", f"{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ValueError(f"no bundled calibration {name!r}; have {bundled_backend_names()}") from exc
    return CalibrationData.from_json_dict(json.loads(text))


def count_error_units(circuit: Circuit, calib: CalibrationData, measured_qubits: int) -> tuple[int, int, int]:
    """(n_1q, n_2q, n_meas) error units of a circuit under a calibration.

    Every one-qubit gate counts one unit; CX/CRZ/CH count one two-qubit
    unit; each RCCX counts `calib.rccx_2q_count` units.
    """
    if measured_qubits < 0:
        raise ValueError("measured_qubits must be >= 0")
    n_1q = 0
    n_2q = 0
    for gate in circuit.gates:
        arity = GATE_ARITIES[gate.kind]
        if gate.kind == "RCCX":
            n_2q += calib.rccx_2q_count
        elif arity == 2:
            n_2q += 1
        else:
            n_1q += 1
    return n_1q, n_2q, measured_qubits


@dataclass(frozen=True)
class ErrorBudget:
    """Error-unit counts and their weighted exponents for one circuit."""

    n_1q: int
    n_2q: int
    n_meas: int
    e_s: float
    e_t: float
    e_m: float

    @classmethod
    def from_counts(cls, calib: CalibrationData, n_1q: int, n_2q: int, n_meas: int) -> "ErrorBudget":
        if min(n_1q, n_2q, n_meas) < 0:
            raise ValueError("error-unit counts must be >= 0")
        return cls(
            n_1q=n_1q,
            n_2q=n_2q,
            n_meas=n_meas,
            e_s=n_1q * calib.median_1q_error,
            e_t=n_2q * calib.median_2q_error,
            e_m=n_meas * calib.median_readout_error,
        )

    @classmethod
    def from_circuit(cls, calib: CalibrationData, circuit: Circuit, measured_qubits: int) -> "ErrorBudget":
        n_1q, n_2q, n_meas = count_error_units(circuit, calib, measured_qubits)
        return cls.from_counts(calib, n_1q, n_2q, n_meas)

    @property
    def total_exponent(self) -> float:
        return self.e_s + self.e_t + self.e_m


def fidelity_estimate(budget: ErrorBudget) -> float:
    """Exponential-form fidelity exp(-(E_S + E_T + E_M))."""
    return math.exp(-budget.total_exponent)


def product_fidelity_estimate(calib: CalibrationData, n_1q: int, n_2q: int, n_meas: int) -> float:
    """Literal survival product (1-p1)^n1 (1-p2)^n2 (1-pm)^nm, for cross-checks."""
    return (
        (1.0 - calib.median_1q_error) ** n_1q
        * (1.0 - calib.median_2q_error) ** n_2q
        * (1.0 - calib.median_readout_error) ** n_meas
    )


def hardware_reference_circuit(order: int) -> Circuit:
    """Gate profile of the hardware run each bundled fixture is scaled to.

    Order 1: five one-qubit gates plus two RCCX blocks (state preparation,
    phase gates, and one conditioned exchange), three measured qubits.
    Order 2 is not itemized by the source data; the bundled fixtures assume
    sixteen one-qubit gates and twenty RCCX blocks, which reproduces the
    published estimates.  Angles here are representative placeholders; only
    gate counts enter the fidelity model.
    """
    if order == 1:
        gates = [
            Gate("RY", (0,), 0.2),
            Gate("RZ", (0,), -0.15),
            Gate("RZ", (1,), 0.15),
            Gate("H", (1,)),
            Gate("H", (1,)),
            Gate("RCCX", (0, 2, 3)),
            Gate("RCCX", (0, 2, 3)),
        ]
        return Circuit(4, tuple(gates), label="order-1 hardware profile")
    if order == 2:
        gates: list[Gate] = []
        for i in range(16):
            gates.append(Gate("RZ", (i % 3,), 0.075))
        for i in range(20):
            gates.append(Gate("RCCX", (0, 1 + i % 2, 3)))
        return Circuit(4, tuple(gates), label="order-2 hardware profile")
    raise ValueError("order must be 1 or 2")


@dataclass(frozen=True)
class ComparisonRow:
    backend: str
    order: int
    budget: ErrorBudget
    fidelity: float


def backend_comparison(
    calibs: list[CalibrationData],
    circuits: dict[int, Circuit],
    measured_qubits: int = 3,
) -> list[ComparisonRow]:
    """Fidelity table over backends and circuit orders.

    Rows are grouped by ascending order and sorted by descending fidelity
    within each group.
    """
    if not calibs or not circuits:
        raise ValueError("need at least one calibration and one circuit")
    rows = []
    for order in sorted(circuits):
        group = []
        for calib in calibs:
            budget = ErrorBudget.from_circuit(calib, circuits[order], measured_qubits)
            group.append(
                ComparisonRow(
                    backend=calib.backend_name,
                    order=order,
                    budget=budget,
                    fidelity=fidelity_estimate(budget),
                )
            )
        group.sort(key=lambda row: (-row.fidelity, row.backend))
        rows.extend(group)
    return rows


COMPARISON_HEADER = "backend,order,n_1q,n_2q,n_meas,E_S,E_T,E_M,F"


def comparison_table_csv(rows: list[ComparisonRow]) -> str:
    lines = [COMPARISON_HEADER]
    lines.extend(",".join(str(v) for v in row.values()) for row in comparison_table_json(rows))
    return "\n".join(lines) + "\n"


def comparison_table_json(rows: list[ComparisonRow]) -> list[dict]:
    out = []
    for row in rows:
        b = row.budget
        out.append(
            {
                "backend": row.backend,
                "order": row.order,
                "n_1q": b.n_1q,
                "n_2q": b.n_2q,
                "n_meas": b.n_meas,
                "E_S": b.e_s,
                "E_T": b.e_t,
                "E_M": b.e_m,
                "F": row.fidelity,
            }
        )
    return out


def apply_readout_error(
    histogram: MeasurementHistogram, flip_prob: float, seed: int
) -> MeasurementHistogram:
    """Flip each recorded bit independently with probability `flip_prob`."""
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError("flip probability must lie in [0, 0.5)")
    if flip_prob == 0.0:
        return histogram
    n = histogram.qubit_count
    rng = np.random.default_rng(seed)
    out: dict[str, int] = {}
    for bitstring, count in sorted(histogram.counts.items()):
        base = int(bitstring, 2)
        flips = rng.random((count, n)) < flip_prob
        # column j of the bitstring is qubit n-1-j
        weights = np.array([1 << (n - 1 - j) for j in range(n)])
        flipped = base ^ (flips @ weights)
        for value, times in zip(*np.unique(flipped, return_counts=True)):
            key = format(int(value), f"0{n}b")
            out[key] = out.get(key, 0) + int(times)
    return MeasurementHistogram(counts=out, shots=histogram.shots)
