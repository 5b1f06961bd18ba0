"""Pair-state basis, encoding algebra, and codeword map."""

import numpy as np

import oracles
from depqkd.protocol import _key_bits
from depqkd.quantum import Pauli, Photon, apply_local
from depqkd.states import (
    ENCODING_TABLE,
    DepLabel,
    Family,
    codeword_to_label,
    dep_basis,
    encoding_choices,
    label_to_codeword,
    partner_encoding,
)

FAMILY_NAME = {
    Family.PHI: "phi",
    Family.PSI: "psi",
    Family.GAMMA: "gamma",
    Family.UPSILON: "upsilon",
}


def test_basis_amplitudes_match_independent_construction():
    for label in DepLabel:
        expected = oracles.pair_state(FAMILY_NAME[label.family], label.sign)
        assert np.allclose(dep_basis(label), expected, atol=1e-15)


def test_basis_states_are_orthonormal():
    vecs = [dep_basis(label) for label in DepLabel]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(8), atol=1e-12)


def test_label_helpers():
    assert DepLabel.of(Family.GAMMA, -1) is DepLabel.GAMMA_MINUS
    assert DepLabel.of(Family.PHI, +1) is DepLabel.PHI_PLUS
    assert str(DepLabel.UPSILON_MINUS) == "Upsilon-"
    assert DepLabel.PSI_PLUS.family is Family.PSI
    assert DepLabel.PSI_MINUS.sign == -1


def test_encoding_table_closure_all_sixteen_rows():
    start = dep_basis(DepLabel.PSI_PLUS)
    for pair, label in ENCODING_TABLE.items():
        produced = apply_local(pair.op_a, Photon.A, apply_local(pair.op_b, Photon.B, start))
        assert oracles.equal_up_to_global_phase(produced, dep_basis(label), 1e-12), pair


def test_order_of_the_two_local_operations_does_not_matter():
    start = dep_basis(DepLabel.PSI_PLUS)
    for pair in ENCODING_TABLE:
        ab = apply_local(pair.op_a, Photon.A, apply_local(pair.op_b, Photon.B, start))
        ba = apply_local(pair.op_b, Photon.B, apply_local(pair.op_a, Photon.A, start))
        assert np.allclose(ab, ba, atol=1e-15)


def test_partner_pairs_differ_by_global_sign_only():
    start = dep_basis(DepLabel.PSI_PLUS)
    for pair in ENCODING_TABLE:
        partner = partner_encoding(pair)
        v1 = apply_local(pair.op_a, Photon.A, apply_local(pair.op_b, Photon.B, start))
        v2 = apply_local(partner.op_a, Photon.A, apply_local(partner.op_b, Photon.B, start))
        assert np.allclose(v1, v2, atol=1e-15) or np.allclose(v1, -v2, atol=1e-15)


def test_partner_encoding_is_an_involution_and_never_fixes_a_pair():
    for pair in ENCODING_TABLE:
        partner = partner_encoding(pair)
        assert partner != pair
        assert partner_encoding(partner) == pair
        assert ENCODING_TABLE[partner] is ENCODING_TABLE[pair]


def test_each_state_is_produced_by_exactly_two_operation_pairs():
    producers = {}
    for pair, label in ENCODING_TABLE.items():
        producers.setdefault(label, set()).add(pair)
    assert set(producers) == set(DepLabel)
    for label, pairs in producers.items():
        assert len(pairs) == 2, label
        first, second = sorted(pairs, key=lambda p: (p.op_a.name, p.op_b.name))
        assert partner_encoding(first) == second


def test_codeword_values_and_bijection():
    assert label_to_codeword(DepLabel.PSI_PLUS) == 0
    assert label_to_codeword(DepLabel.PSI_MINUS) == 1
    assert label_to_codeword(DepLabel.PHI_PLUS) == 2
    assert label_to_codeword(DepLabel.PHI_MINUS) == 3
    assert label_to_codeword(DepLabel.UPSILON_PLUS) == 4
    assert label_to_codeword(DepLabel.UPSILON_MINUS) == 5
    assert label_to_codeword(DepLabel.GAMMA_PLUS) == 6
    assert label_to_codeword(DepLabel.GAMMA_MINUS) == 7
    assert sorted(label_to_codeword(label) for label in DepLabel) == list(range(8))
    for label in DepLabel:
        assert codeword_to_label(label_to_codeword(label)) is label


def test_codeword_bits_most_significant_first():
    # a key carries each codeword's three bits, most significant first
    codewords = np.array([0b000, 0b101, 0b110, 0b111, 0b001], dtype=np.int8)
    assert _key_bits(codewords).tolist() == [
        0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1
    ]


def test_encoding_choices_cover_each_codeword():
    for codeword in range(8):
        first, second = encoding_choices(codeword)
        assert first.op_a in (Pauli.I, Pauli.X)
        assert second == partner_encoding(first)
        for pair in (first, second):
            assert label_to_codeword(ENCODING_TABLE[pair]) == codeword


def test_encoding_choices_match_oracle_photon_b_options():
    for codeword, opts in oracles.CODEWORD_OPB.items():
        package = {pair.op_b.name for pair in encoding_choices(codeword)}
        assert package == set(opts), codeword


def test_classify_round_trips_and_ignores_global_phase():
    for label in DepLabel:
        s = dep_basis(label)
        expected = (FAMILY_NAME[label.family], label.sign)
        assert oracles.classify(s) == expected
        assert oracles.classify(-s) == expected
        assert oracles.classify(np.exp(1.3j) * s) == expected


def test_classify_rejects_superpositions_and_product_states():
    psi = dep_basis(DepLabel.PSI_PLUS)
    phi = dep_basis(DepLabel.PHI_PLUS)
    assert oracles.classify((psi + phi) / np.sqrt(2)) is None
    product = np.zeros(16, dtype=complex)
    product[0] = 1.0
    assert oracles.classify(product) is None
