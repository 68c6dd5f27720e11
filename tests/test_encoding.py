"""Three-qubit atom-field encoding and its selection rule."""

import numpy as np
import pytest

from jcsim.encoding import (
    ATOM_LEVELS,
    INVALID_BASIS_INDICES,
    LEVEL_BITS,
    VALID_BASIS_INDICES,
    BasisLabel,
    decode_basis,
    encode_basis,
    leakage_probability,
)
from jcsim.linalg import basis_state

FROZEN_INDEX = {
    (0, "g"): 0,
    (1, "g"): 1,
    (0, "e"): 2,
    (1, "e"): 3,
    (0, "f"): 6,
    (1, "f"): 7,
}


def test_encode_matches_frozen_indices():
    for (photon, level), index in FROZEN_INDEX.items():
        assert encode_basis(BasisLabel(photon, level)) == index


def test_decode_round_trips_every_physical_label():
    for index in VALID_BASIS_INDICES:
        label = decode_basis(index)
        assert label is not None
        assert encode_basis(label) == index


def test_decode_returns_none_on_excluded_patterns():
    for index in INVALID_BASIS_INDICES:
        assert decode_basis(index) is None


def test_decode_range_check():
    with pytest.raises(ValueError, match="out of range"):
        decode_basis(8)
    with pytest.raises(ValueError, match="out of range"):
        decode_basis(-1)


def test_valid_and_invalid_indices_partition_the_register():
    assert sorted(VALID_BASIS_INDICES + INVALID_BASIS_INDICES) == list(range(8))
    assert len(INVALID_BASIS_INDICES) == 2


def test_selection_rule_q2_implies_q1():
    for level in ATOM_LEVELS:
        q1, q2 = LEVEL_BITS[level]
        assert q2 <= q1
    # the excluded patterns are exactly those violating it
    for index in INVALID_BASIS_INDICES:
        q1, q2 = (index >> 1) & 1, (index >> 2) & 1
        assert q2 > q1


def test_basis_label_validation():
    with pytest.raises(ValueError, match="photon number"):
        BasisLabel(2, "g")
    with pytest.raises(ValueError, match="unknown atomic level"):
        BasisLabel(0, "x")


def test_leakage_probability():
    for index in VALID_BASIS_INDICES:
        assert leakage_probability(basis_state(index, 3)) == 0.0
    for index in INVALID_BASIS_INDICES:
        assert leakage_probability(basis_state(index, 3)) == 1.0
    mixed = np.sqrt([0.7, 0.0, 0.0, 0.0, 0.2, 0.1, 0.0, 0.0]).astype(complex)
    assert abs(leakage_probability(mixed) - 0.3) < 1e-12
    with pytest.raises(ValueError, match="dimension 8"):
        leakage_probability(basis_state(0, 2))


def test_leakage_probability_of_a_batch_matches_each_column():
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    batch /= np.linalg.norm(batch, axis=0)
    leak = leakage_probability(batch)
    assert leak.shape == (5,)
    for j in range(5):
        single = leakage_probability(batch[:, j])
        assert isinstance(single, float)
        assert abs(leak[j] - single) < 1e-15
    for shape in [(8, 2, 2), (4, 3)]:
        with pytest.raises(ValueError, match="dimension 8"):
            leakage_probability(np.zeros(shape, dtype=complex))
