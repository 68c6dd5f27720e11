"""Atom-field basis encoding on three qubits.

Qubit q0 carries the truncated field mode (photon number 0 or 1).  Qubits
(q1, q2) carry the atomic level:

    g -> (q1, q2) = (0, 0)      e -> (1, 0)      f -> (1, 1)

The pattern (q1, q2) = (0, 1) is excluded by the selection rule q2=1 => q1=1;
its two basis indices are unphysical and any population there is leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOM_LEVELS = ("g", "e", "f")
LEVEL_BITS = {"g": (0, 0), "e": (1, 0), "f": (1, 1)}
LEVEL_RANK = {"g": 0, "e": 1, "f": 2}

FIELD_QUBIT = 0
ATOM_QUBITS = (1, 2)

VALID_BASIS_INDICES = (0, 1, 2, 3, 6, 7)
INVALID_BASIS_INDICES = (4, 5)


@dataclass(frozen=True)
class BasisLabel:
    """Physical basis state: photon number and atomic level."""

    photon_n: int
    atom_level: str

    def __post_init__(self) -> None:
        if self.photon_n not in (0, 1):
            raise ValueError(f"photon number {self.photon_n} outside truncated mode")
        if self.atom_level not in ATOM_LEVELS:
            raise ValueError(f"unknown atomic level {self.atom_level!r}")


def encode_basis(label: BasisLabel) -> int:
    """Basis index of a physical label (bit k of the index is qubit k)."""
    q1, q2 = LEVEL_BITS[label.atom_level]
    return label.photon_n | (q1 << 1) | (q2 << 2)


def decode_basis(index: int) -> BasisLabel | None:
    """Inverse of `encode_basis`; None for the two excluded patterns."""
    if not 0 <= index < 8:
        raise ValueError(f"basis index {index} out of range for 3 qubits")
    q0, q1, q2 = index & 1, (index >> 1) & 1, (index >> 2) & 1
    for level, bits in LEVEL_BITS.items():
        if bits == (q1, q2):
            return BasisLabel(photon_n=q0, atom_level=level)
    return None


def leakage_probability(state: np.ndarray):
    """Population outside the physical encoding of a state (8,), or (m,) of a batch (8, m)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != 8:
        raise ValueError("expected a 3-qubit state of dimension 8, or a batch (8, m)")
    leak = (np.abs(state[list(INVALID_BASIS_INDICES)]) ** 2).sum(axis=0)
    return float(leak) if state.ndim == 1 else leak
