"""Core state, operation, local measurement, and generator behavior."""

import math

import numpy as np
import pytest

import oracles
from depqkd import (
    LOCAL_BASIS,
    Freq,
    JointState,
    LocalState,
    Pauli,
    Photon,
    Pol,
    PolBasis,
    SeededGenerator,
    StateError,
    apply_local,
    dep_basis,
    equal_up_to_global_phase,
    local_outcome,
    mode_index,
    partial_measure,
    pol_freq_eigenstate,
    tensor,
)
from depqkd.protocol import _basis_coins, _coins, _randints
from depqkd.quantum import PAULI_MATRICES, doubles
from depqkd.states import DepLabel


def random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def test_mode_index_layout():
    assert mode_index(Pol.H, Freq.LOW) == 0
    assert mode_index(Pol.H, Freq.HIGH) == 1
    assert mode_index(Pol.V, Freq.LOW) == 2
    assert mode_index(Pol.V, Freq.HIGH) == 3


def test_pauli_matrices_unitary_and_sign_convention():
    for op, u in PAULI_MATRICES.items():
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12), op
    assert np.allclose(
        PAULI_MATRICES[Pauli.IY],
        PAULI_MATRICES[Pauli.Z] @ PAULI_MATRICES[Pauli.X],
        atol=1e-12,
    )
    # iY|H> = -|V>, iY|V> = |H>
    assert np.allclose(PAULI_MATRICES[Pauli.IY] @ [1, 0], [0, -1])
    assert np.allclose(PAULI_MATRICES[Pauli.IY] @ [0, 1], [1, 0])


def test_tensor_of_basis_modes():
    a = LocalState.mode(Pol.H, Freq.LOW)
    b = LocalState.mode(Pol.V, Freq.LOW)
    joint = tensor(a, b)
    expected = np.zeros(16)
    expected[2] = 1.0
    assert np.array_equal(joint.vec, expected)


def test_tensor_matches_kron_for_random_states():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = LocalState(random_state(rng, 4))
        b = LocalState(random_state(rng, 4))
        assert np.allclose(tensor(a, b).vec, np.kron(a.vec, b.vec), atol=1e-12)
        assert tensor(a, b).is_normalized()


def test_state_vectors_are_read_only():
    s = dep_basis(DepLabel.PSI_PLUS)
    with pytest.raises(ValueError):
        s.vec[0] = 1.0


def test_normalized_rejects_zero_state():
    with pytest.raises(StateError):
        LocalState(np.zeros(4)).normalized()


def test_apply_local_identity_is_exact():
    s = dep_basis(DepLabel.GAMMA_MINUS)
    assert np.array_equal(apply_local(Pauli.I, Photon.A, s).vec, s.vec)


def test_apply_local_bit_flip_on_a_maps_psi_plus_to_upsilon_plus():
    out = apply_local(Pauli.X, Photon.A, dep_basis(DepLabel.PSI_PLUS))
    assert equal_up_to_global_phase(out, dep_basis(DepLabel.UPSILON_PLUS), 1e-12)


def test_apply_local_phase_flip_on_b_flips_v_mode_sign():
    vec = np.zeros(16)
    vec[2] = 1.0  # photon b in a V mode
    out = apply_local(Pauli.Z, Photon.B, JointState(vec))
    assert np.allclose(out.vec, -vec, atol=1e-12)


def test_apply_local_preserves_norm_and_frequency_support():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = JointState(random_state(rng, 16))
        op = (Pauli.I, Pauli.X, Pauli.Z, Pauli.IY)[rng.integers(4)]
        photon = Photon.A if rng.integers(2) else Photon.B
        out = apply_local(op, photon, s)
        assert out.is_normalized(1e-12)
    # frequency marginals of photon b are untouched by photon-b operations
    s = JointState(random_state(rng, 16))
    for op in Pauli:
        out = apply_local(op, Photon.B, s)
        before = np.abs(s.vec.reshape(2, 2, 2, 2)) ** 2
        after = np.abs(out.vec.reshape(2, 2, 2, 2)) ** 2
        assert np.allclose(before.sum(axis=(0, 1, 2)), after.sum(axis=(0, 1, 2)), atol=1e-12)


def test_equal_up_to_global_phase():
    s = dep_basis(DepLabel.PSI_PLUS)
    assert equal_up_to_global_phase(s, JointState(-s.vec), 1e-12)
    assert equal_up_to_global_phase(s, JointState(np.exp(0.7j) * s.vec), 1e-12)
    assert not equal_up_to_global_phase(s, dep_basis(DepLabel.PSI_MINUS), 1e-9)


def test_projectors_of_package_measurements_sum_to_identity():
    for basis in PolBasis:
        rows = LOCAL_BASIS[basis]
        expected = oracles.local_basis_vectors(basis.value)
        assert rows.shape == (4, 4)
        for k, (outcome, vec) in enumerate(expected):
            assert local_outcome(k) == outcome
            assert np.allclose(rows[k], vec, atol=1e-12)
        total = sum(oracles.projector(row) for row in rows)
        assert np.allclose(total, np.eye(4), atol=1e-12)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0


def test_partial_measure_on_psi_plus_photon_b():
    g = SeededGenerator(5, 0)
    seen = {}
    n = 4000
    for _ in range(n):
        (comp, freq), post = partial_measure(
            dep_basis(DepLabel.PSI_PLUS), Photon.B, PolBasis.Z, g
        )
        seen[(comp, freq)] = seen.get((comp, freq), 0) + 1
        if (comp, freq) == (1, Freq.LOW):
            expected = tensor(
                LocalState.mode(Pol.H, Freq.LOW), LocalState.mode(Pol.V, Freq.LOW)
            )
            assert equal_up_to_global_phase(post, expected, 1e-12)
    assert set(seen) == {(1, Freq.LOW), (0, Freq.HIGH)}
    assert seen[(1, Freq.LOW)] / n == pytest.approx(0.5, abs=0.05)


def test_partial_measure_product_state_leaves_remote_untouched():
    a = LocalState(np.array([0.6, 0, 0.8j, 0]))
    b = LocalState.mode(Pol.V, Freq.HIGH)
    joint = tensor(a, b)
    g = SeededGenerator(6, 0)
    (comp, freq), post = partial_measure(joint, Photon.B, PolBasis.Z, g)
    assert (comp, freq) == (1, Freq.HIGH)
    assert equal_up_to_global_phase(post, joint, 1e-12)


def test_partial_measure_distribution_matches_density_matrix_oracle():
    # reduced-state statistics for all eight pair states, both photons
    eye = np.eye(4, dtype=complex)
    for label in DepLabel:
        s = dep_basis(label)
        for photon, tag in ((Photon.A, "a"), (Photon.B, "b")):
            rho = oracles.reduced_density_matrix(s.vec, tag)
            for basis in (PolBasis.Z, PolBasis.X):
                oracle_vectors = oracles.local_basis_vectors(basis.value)
                for row, (_, vec) in zip(LOCAL_BASIS[basis], oracle_vectors):
                    # package route: lift the table row to the pair space
                    local = oracles.projector(row)
                    if photon is Photon.A:
                        lifted = np.kron(local, eye)
                    else:
                        lifted = np.kron(eye, local)
                    package = oracles.born_probability(s.vec, lifted)
                    expected = float(
                        np.real(np.trace(oracles.projector(vec) @ rho))
                    )
                    assert package == pytest.approx(expected, abs=1e-12)


def test_pol_freq_eigenstates_are_orthonormal_per_basis():
    for basis in PolBasis:
        vecs = [
            pol_freq_eigenstate(basis, comp, freq).vec
            for comp in (0, 1)
            for freq in (Freq.LOW, Freq.HIGH)
        ]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_seeded_generator_reproducible_and_stream_independent():
    a = SeededGenerator(987654321, 3)
    b = SeededGenerator(987654321, 3)
    seq_a = [a.uniform() for _ in range(20)] + [a.randint(8) for _ in range(20)]
    seq_b = [b.uniform() for _ in range(20)] + [b.randint(8) for _ in range(20)]
    assert seq_a == seq_b
    c = SeededGenerator(987654321, 4)
    assert [c.uniform() for _ in range(20)] != seq_a[:20]
    d = SeededGenerator(987654322, 3)
    assert [d.uniform() for _ in range(20)] != seq_a[:20]


def test_seeded_generator_streams_are_plain_philox_keys():
    # the stream of (seed, stream) is Philox keyed by both, reduced mod 2**64
    mask = 2**64 - 1
    for seed in (0, -1, 2**64 - 1, 12345678901234567890):
        for stream in range(7):
            key = np.array([seed & mask, stream & mask], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).random(1000)
            got = SeededGenerator(seed, stream).uniforms(1000)
            assert np.array_equal(got, expected)


def test_seeded_generator_batch_draws_match_scalar_draws():
    a = SeededGenerator(42, 0)
    b = SeededGenerator(42, 0)
    batch = a.uniforms(50)
    scalars = np.array([b.uniform() for _ in range(50)])
    assert np.array_equal(batch, scalars)


def philox_words(seed, stream, n):
    """The first ``n`` words of the plain Philox keyed by ``[seed, stream]``."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n)


def draw_mixed(g, n, turn):
    """Draw ``n`` words from ``g`` in two parts, each by ``words``,
    ``uniforms`` or a loop of ``uniform`` as ``turn`` picks; returns them
    as doubles."""
    parts = []
    for j, size in enumerate((n // 2, n - n // 2)):
        how = (turn + j) % 3
        if how == 0:
            parts.append(doubles(g.words(size)))
        elif how == 1:
            parts.append(g.uniforms(size))
        else:
            parts.append(np.array([g.uniform() for _ in range(size)]))
    return np.concatenate(parts)


def test_skip_steps_past_words_at_any_buffer_position():
    # Philox makes words four at a time, so a skip must be exact whatever
    # the position in the current block, before and after it
    after = 13
    for before in range(9):
        for n in range(41):
            g = SeededGenerator(2024, 3)
            expected = doubles(philox_words(2024, 3, before + n + after))
            assert np.array_equal(draw_mixed(g, before, n), expected[:before])
            # skips add up before a draw applies them
            g.skip(n // 3)
            g.skip(n - n // 3)
            got = draw_mixed(g, after, before + n)
            assert np.array_equal(got, expected[before + n :]), (before, n)


def test_a_stream_that_is_only_skipped_builds_no_philox(monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    expected = philox_words(5, 2, 1007)[1003:]
    monkeypatch.setattr(np.random, "Philox", counted)
    g = SeededGenerator(5, 2)
    g.skip(1000)
    g.skip(3)
    assert built == []
    assert np.array_equal(g.words(4), expected)
    assert built == [1]


def test_doubles_are_numpy_generator_random_bit_for_bit():
    for seed, stream in ((0, 0), (7, 5), (2**64 - 1, 6)):
        key = np.array([seed, stream], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(5000)
        got = doubles(philox_words(seed, stream, 5000))
        assert got.tobytes() == expected.tobytes()
        assert SeededGenerator(seed, stream).uniforms(5000).tobytes() == got.tobytes()
    edges = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 1], dtype=np.uint64)
    assert doubles(edges).tolist() == [0.0, 0.0, 2.0**-53, 0.5, 1 - 2.0**-53]


class FixedWords:
    """A stand-in stream that hands out the given words once."""

    def __init__(self, words):
        self.w = np.asarray(words, dtype=np.uint64)

    def words(self, n):
        assert n == len(self.w)
        return self.w


def boundary_words(bound):
    """Words at, just below and just above ``bound``, plus the extremes."""
    near = [bound + d for d in range(-3000, 3001, 7)] + [bound - 1, bound, bound + 1]
    return [w for w in near + [0, 1, 2**64 - 1] if 0 <= w < 2**64]


@pytest.mark.parametrize("p", [5e-324, 2.0**-53, 0.1, 0.5, 1 - 2.0**-53])
def test_integer_coins_equal_double_coins(p):
    g, ref = SeededGenerator(31, 2), SeededGenerator(31, 2)
    assert np.array_equal(_coins([g], [20000], p), ref.uniforms(20000) < p)
    w = np.array(boundary_words(math.ceil(p * 2**53) << 11), dtype=np.uint64)
    assert np.array_equal(_coins([FixedWords(w)], [len(w)], p), doubles(w) < p)


def test_decided_coins_skip_their_words():
    for p, value in ((0.0, False), (1.0, True)):
        gens = [SeededGenerator(31, 4), SeededGenerator(32, 4)]
        coins = _coins(gens, [5, 6], p)
        assert coins.tolist() == [value] * 11
        for g, size in zip(gens, [5, 6]):
            ref = SeededGenerator(g.seed, g.stream)
            ref.words(size)
            assert np.array_equal(g.words(9), ref.words(9))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_integer_randints_equal_seeded_randint(n):
    g, ref = SeededGenerator(77, 1), SeededGenerator(77, 1)
    got = _randints(g.words(3000), n)
    assert got.tolist() == [ref.randint(n) for _ in range(3000)]
    bits = n.bit_length() - 1
    w = np.array(
        sorted({b for k in range(n + 1) for b in boundary_words(k << (64 - bits))}),
        dtype=np.uint64,
    )
    expected = np.minimum((doubles(w) * n).astype(int), n - 1)
    assert _randints(w, n).tolist() == expected.tolist()


def test_integer_basis_coins_equal_fair_double_coins():
    w = np.array(boundary_words(2**63), dtype=np.uint64)
    w = np.concatenate([w, SeededGenerator(3, 3).words(5000)])
    assert _basis_coins(w).tolist() == (~(doubles(w) < 0.5)).astype(int).tolist()


@pytest.mark.parametrize("n", [-1, 0, 1, 3, 5, 6, 12])
def test_randints_refuse_a_range_that_is_not_a_power_of_two(n):
    with pytest.raises(ValueError):
        _randints(np.zeros(3, dtype=np.uint64), n)


def test_seeded_generator_helpers():
    g = SeededGenerator(7, 0)
    for _ in range(1000):
        assert 0 <= g.randint(5) < 5
        assert g.pick("abc") in "abc"
        assert g.sample_index([0.0, 1.0, 0.0]) == 1
    with pytest.raises(ValueError):
        g.randint(0)


def test_sample_index_matches_a_numpy_inverse_cdf():
    # reference: the cumsum/searchsorted formulation, on the same draws
    rng = np.random.default_rng(8)
    g = SeededGenerator(44, 0)
    ref = SeededGenerator(44, 0)
    for n in (4, 16) * 2000:
        p = np.abs(rng.normal(size=n)) ** 2
        p[rng.integers(n)] = 0.0
        cdf = np.cumsum(p)
        u = ref.uniform() * cdf[-1]
        expected = min(int(np.searchsorted(cdf, u, side="right")), n - 1)
        assert g.sample_index(p) == expected


def test_sample_indices_match_a_loop_of_sample_index():
    rng = np.random.default_rng(9)
    bulk = SeededGenerator(45, 0)
    loop = SeededGenerator(45, 0)
    for n in (4, 16) * 2000:
        p = np.abs(rng.normal(size=n)) ** 2
        p[rng.integers(n, size=rng.integers(n))] = 0.0
        if not p.any():
            p[rng.integers(n)] = 1.0
        draws = int(rng.integers(4))
        got = bulk.sample_indices(p, draws)
        assert got.tolist() == [loop.sample_index(p) for _ in range(draws)]
    # both consumed the same draws
    assert bulk.uniform() == loop.uniform()
