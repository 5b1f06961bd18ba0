"""Core state, operation, local measurement, and generator behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from depqkd import EveStrategy, quantum
from depqkd.alphabet import ALPHABET
from depqkd.channel import ir_attack_decoy, ir_attack_entangled
from depqkd.device import (
    device_probabilities,
    measure_single,
    wavelength_convert_global,
)
from depqkd.protocol import _basis_coins, _coins, _randints
from depqkd.quantum import (
    LOCAL_BASIS,
    PAULI_MATRICES,
    BatchStream,
    Freq,
    Pauli,
    Photon,
    Pol,
    PolBasis,
    SeededGenerator,
    apply_local,
    doubles,
    local_outcome,
    local_probabilities,
    mode_index,
    partial_collapse,
    partial_measure,
    partial_probabilities,
    pol_freq_eigenstate,
)
from depqkd.states import DepLabel, dep_basis


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


def test_state_vectors_are_read_only():
    # every state the package hands out: 16 amplitudes for a pair, 4 for a
    # photon, in a read-only complex128 array
    g = SeededGenerator(1, 0)
    pair = dep_basis(DepLabel.PSI_PLUS)
    photon = pol_freq_eigenstate(PolBasis.X, 1, Freq.HIGH)
    pairs = [
        *(dep_basis(label) for label in DepLabel),
        apply_local(Pauli.X, Photon.B, pair),
        partial_collapse(pair, Photon.A, PolBasis.X, 0),
        partial_measure(pair, Photon.B, PolBasis.Z, g)[1],
        ir_attack_entangled(pair, Photon.A, EveStrategy.RANDOM_ZX, g)[0],
        *ALPHABET.states,
    ]
    photons = [
        *(pol_freq_eigenstate(b, c, f) for b in PolBasis for c in (0, 1) for f in Freq),
        *(row for basis in PolBasis for row in LOCAL_BASIS[basis]),
        ir_attack_decoy(photon, EveStrategy.Z, g)[0],
    ]
    assert ALPHABET.states.shape == (40, 16)
    assert not ALPHABET.states.flags.writeable
    for size, states in ((16, pairs), (4, photons)):
        for s in states:
            assert type(s) is np.ndarray and s.dtype == np.complex128
            assert s.shape == (size,)
            with pytest.raises(ValueError):
                s[0] = 1.0
    # a state of the wrong length raises instead of giving a value
    for call in (
        lambda: apply_local(Pauli.X, Photon.A, photon),
        lambda: partial_probabilities(photon, Photon.B, PolBasis.Z),
        lambda: device_probabilities(photon),
        lambda: wavelength_convert_global(photon),
        lambda: local_probabilities(pair, PolBasis.X),
        lambda: measure_single(pair, PolBasis.Z, g),
    ):
        with pytest.raises(ValueError):
            call()


def test_apply_local_identity_is_exact():
    s = dep_basis(DepLabel.GAMMA_MINUS)
    assert np.array_equal(apply_local(Pauli.I, Photon.A, s), s)


def test_apply_local_bit_flip_on_a_maps_psi_plus_to_upsilon_plus():
    out = apply_local(Pauli.X, Photon.A, dep_basis(DepLabel.PSI_PLUS))
    expected = dep_basis(DepLabel.UPSILON_PLUS)
    assert oracles.equal_up_to_global_phase(out, expected, 1e-12)


def test_apply_local_phase_flip_on_b_flips_v_mode_sign():
    vec = np.zeros(16)
    vec[2] = 1.0  # photon b in a V mode
    out = apply_local(Pauli.Z, Photon.B, vec)
    assert np.allclose(out, -vec, atol=1e-12)


def test_apply_local_preserves_norm_and_frequency_support():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = random_state(rng, 16)
        op = (Pauli.I, Pauli.X, Pauli.Z, Pauli.IY)[rng.integers(4)]
        photon = Photon.A if rng.integers(2) else Photon.B
        out = apply_local(op, photon, s)
        assert oracles.is_normalized(out)
    # frequency marginals of photon b are untouched by photon-b operations
    s = random_state(rng, 16)
    for op in Pauli:
        out = apply_local(op, Photon.B, s)
        before = np.abs(s.reshape(2, 2, 2, 2)) ** 2
        after = np.abs(out.reshape(2, 2, 2, 2)) ** 2
        assert np.allclose(before.sum(axis=(0, 1, 2)), after.sum(axis=(0, 1, 2)), atol=1e-12)


def test_equal_up_to_global_phase():
    s = dep_basis(DepLabel.PSI_PLUS)
    assert oracles.equal_up_to_global_phase(s, -s, 1e-12)
    assert oracles.equal_up_to_global_phase(s, np.exp(0.7j) * s, 1e-12)
    assert not oracles.equal_up_to_global_phase(s, dep_basis(DepLabel.PSI_MINUS), 1e-9)


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
            expected = np.kron(
                oracles.local_z_vector(Pol.H, Freq.LOW),
                oracles.local_z_vector(Pol.V, Freq.LOW),
            )
            assert oracles.equal_up_to_global_phase(post, expected, 1e-12)
    assert set(seen) == {(1, Freq.LOW), (0, Freq.HIGH)}
    assert seen[(1, Freq.LOW)] / n == pytest.approx(0.5, abs=0.05)


def test_partial_measure_product_state_leaves_remote_untouched():
    a = np.array([0.6, 0, 0.8j, 0])
    b = oracles.local_z_vector(Pol.V, Freq.HIGH)
    joint = np.kron(a, b)
    g = SeededGenerator(6, 0)
    (comp, freq), post = partial_measure(joint, Photon.B, PolBasis.Z, g)
    assert (comp, freq) == (1, Freq.HIGH)
    assert oracles.equal_up_to_global_phase(post, joint, 1e-12)


def test_partial_measure_distribution_matches_density_matrix_oracle():
    # reduced-state statistics for all eight pair states, both photons
    eye = np.eye(4, dtype=complex)
    for label in DepLabel:
        s = dep_basis(label)
        for photon, tag in ((Photon.A, "a"), (Photon.B, "b")):
            rho = oracles.reduced_density_matrix(s, tag)
            for basis in (PolBasis.Z, PolBasis.X):
                oracle_vectors = oracles.local_basis_vectors(basis.value)
                for row, (_, vec) in zip(LOCAL_BASIS[basis], oracle_vectors):
                    # package route: lift the table row to the pair space
                    local = oracles.projector(row)
                    if photon is Photon.A:
                        lifted = np.kron(local, eye)
                    else:
                        lifted = np.kron(eye, local)
                    package = oracles.born_probability(s, lifted)
                    expected = float(
                        np.real(np.trace(oracles.projector(vec) @ rho))
                    )
                    assert package == pytest.approx(expected, abs=1e-12)


def test_pol_freq_eigenstates_are_orthonormal_per_basis():
    for basis in PolBasis:
        vecs = [
            pol_freq_eigenstate(basis, comp, freq)
            for comp in (0, 1)
            for freq in (Freq.LOW, Freq.HIGH)
        ]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_pol_freq_eigenstate_refuses_a_component_outside_0_and_1():
    # -1 would read the V row and 2 past the table's end
    for basis in PolBasis:
        for comp in (-1, 2):
            with pytest.raises(ValueError, match=f"got {comp}"):
                pol_freq_eigenstate(basis, comp, Freq.LOW)


def test_seeded_generator_reproducible_and_stream_independent():
    a = SeededGenerator(987654321, 3)
    b = SeededGenerator(987654321, 3)
    seq_a = [a.uniform() for _ in range(20)] + a.words(20).tolist()
    seq_b = [b.uniform() for _ in range(20)] + b.words(20).tolist()
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


def test_skip_steps_past_words_at_any_buffer_position():
    # Philox makes words four at a time, so a skip must be exact whatever
    # the position in the current block, before and after it
    after = 13
    for before in range(9):
        for n in range(41):
            streams = BatchStream([2024], 3)
            expected = philox_words(2024, 3, before + n + after)
            assert np.array_equal(streams.words([0], [before]), expected[:before])
            # skips add up before a draw applies them
            streams.skip([0], [n // 3])
            streams.skip([0], [n - n // 3])
            got = streams.words([0], [after])
            assert np.array_equal(got, expected[before + n :]), (before, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(st.just(0), st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
    st.integers(0, 6),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(["words", "skip", "uniforms"]),
            st.integers(0, 70),
        ),
        max_size=16,
    ),
)
def test_interleaved_draws_and_skips_follow_the_plain_philox(seeds, stream, calls):
    # a skip may start and end anywhere in a four-word Philox block, after
    # any mix of earlier draws and skips; up to four handles of one stream
    # index, some of them with one seed, take turns with the Philox of
    # their thread, and each still follows its own plain Philox.  A
    # handle's only state is the position of its next word, so a skip of
    # n words adds n to it.
    gens = [SeededGenerator(seed, stream) for seed in seeds]
    total = sum(n for _, _, n in calls) + 5
    expected = [philox_words(seed, stream, total) for seed in seeds]
    at = [0] * len(gens)
    for h, kind, n in calls:
        h %= len(gens)
        g, words = gens[h], expected[h][at[h] : at[h] + n]
        if kind == "words":
            assert np.array_equal(g.words(n), words)
        elif kind == "uniforms":
            assert np.array_equal(g.uniforms(n), doubles(words))
        else:
            g.position += n
        at[h] += n
    for g, words, a in zip(gens, expected, at):
        assert np.array_equal(g.words(5), words[a : a + 5])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.booleans()), min_size=1, max_size=5
    ),
    st.integers(0, 6),
    st.lists(
        st.tuples(
            st.sampled_from(["words", "skip"]),
            st.integers(1, 3),
            st.lists(st.integers(0, 4), min_size=1, max_size=5),
            st.lists(st.integers(0, 23), min_size=1, max_size=5),
        ),
        max_size=12,
    ),
)
def test_a_batch_stream_draws_each_session_like_its_plain_philox(
    sessions, stream, calls
):
    # each call draws or skips rows of 1 to 3 words for some of the
    # sessions, so a skip may leave a position anywhere in a four-word
    # Philox block; a session without the stream draws and skips nothing,
    # and each other session follows the plain Philox keyed [seed, stream]
    seeds = [seed for seed, _ in sessions]
    has = [h for _, h in sessions]
    streams = BatchStream(seeds, stream, has)
    total = sum(width * sum(rows) for _, width, _, rows in calls) + 5
    expected = [philox_words(seed, stream, total) for seed in seeds]
    at = [0] * len(seeds)
    for kind, width, picks, rows in calls:
        picked = [s % len(seeds) for s in picks]
        sizes = [width * m for m in rows]
        want = []
        for s, n in zip(picked, sizes):
            if has[s]:
                want.append(expected[s][at[s] : at[s] + n])
                at[s] += n
        if kind == "words":
            got = streams.words(picked, sizes)
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.concatenate([np.zeros(0, np.uint64), *want]))
        else:
            streams.skip(picked, sizes)
        assert streams.positions == [a if h else None for a, h in zip(at, has)]
    for s, seed in enumerate(seeds):
        got = streams.words([s], [5])
        assert np.array_equal(got, expected[s][at[s] : at[s] + 5] if has[s] else [])


def test_a_stream_that_is_only_skipped_builds_no_philox(monkeypatch):
    # a stream that only skips neither builds nor re-keys the Philox of its
    # thread, and then draws the plain Philox's words
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    def thread_state():
        bits, _ = quantum._per_thread.philox
        return bits, repr(bits.state)

    expected = philox_words(5, 2, 1007)[1003:]
    monkeypatch.setattr(np.random, "Philox", counted)
    SeededGenerator(6, 2).words(3)  # the thread has its Philox, at another key
    before = thread_state()
    built.clear()
    streams = BatchStream([5], 2)
    streams.skip([0], [1000])
    streams.skip([0], [3])
    assert built == [] and thread_state() == before
    assert np.array_equal(streams.words([0], [4]), expected)
    assert built == []


def test_doubles_are_numpy_generator_random_bit_for_bit():
    for seed, stream in ((0, 0), (7, 5), (2**64 - 1, 6)):
        key = np.array([seed, stream], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(5000)
        got = doubles(philox_words(seed, stream, 5000))
        assert got.tobytes() == expected.tobytes()
        assert SeededGenerator(seed, stream).uniforms(5000).tobytes() == got.tobytes()
    edges = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 1], dtype=np.uint64)
    assert doubles(edges).tolist() == [0.0, 0.0, 2.0**-53, 0.5, 1 - 2.0**-53]


class FixedWords(BatchStream):
    """A stand-in stream of one session that hands out the given words
    once."""

    __slots__ = ("w",)

    def __init__(self, words):
        super().__init__([0], 0)
        self.w = np.asarray(words, dtype=np.uint64)

    def words(self, sessions, sizes):
        assert (list(sessions), list(sizes)) == ([0], [len(self.w)])
        return self.w


def boundary_words(bound):
    """Words at, just below and just above ``bound``, plus the extremes."""
    near = [bound + d for d in range(-3000, 3001, 7)] + [bound - 1, bound, bound + 1]
    return [w for w in near + [0, 1, 2**64 - 1] if 0 <= w < 2**64]


@pytest.mark.parametrize("p", [5e-324, 2.0**-53, 0.1, 0.5, 1 - 2.0**-53])
def test_integer_coins_equal_double_coins(p):
    ref = SeededGenerator(31, 2)
    assert np.array_equal(
        _coins(BatchStream([31], 2), [20000], [p]), ref.uniforms(20000) < p
    )
    w = np.array(boundary_words(math.ceil(p * 2**53) << 11), dtype=np.uint64)
    assert np.array_equal(_coins(FixedWords(w), [len(w)], [p]), doubles(w) < p)


def test_decided_coins_skip_their_words():
    for p, value in ((0.0, False), (1.0, True)):
        streams = BatchStream([31, 32], 4)
        coins = _coins(streams, [5, 6], [p, p])
        assert coins.tolist() == [value] * 11
        assert streams.positions == [5, 6]
        for s, seed in enumerate(streams.seeds):
            expected = philox_words(seed, 4, streams.positions[s] + 9)[-9:]
            assert np.array_equal(streams.words([s], [9]), expected)


def test_coins_of_a_batch_equal_each_session_alone():
    # runs of equal probabilities, decided and drawn, beside one another,
    # and sessions without the stream, one of them between runs of p = 0
    p = [0.3, 0.3, 0.0, 1.0, 1.0, 0.3, 0.7, 0.0, 0.0, 0.0, 0.3]
    sizes = [5, 0, 6, 3, 4, 9, 7, 2, 4, 3, 8]
    has = [True] * 8 + [False, True, False]
    seeds = [40 + s for s in range(len(p))]
    streams = BatchStream(seeds, 2, has)
    coins = _coins(streams, sizes, p)
    alone = [
        _coins(BatchStream([seed], 2), [m], [q]) if h else np.zeros(m, dtype=bool)
        for seed, m, q, h in zip(seeds, sizes, p, has)
    ]
    assert coins.tolist() == np.concatenate(alone).tolist()
    assert streams.positions == [m if h else None for m, h in zip(sizes, has)]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_integer_randints_equal_seeded_randint(n):
    g, ref = SeededGenerator(77, 1), SeededGenerator(77, 1)
    def floor_doubles(w):
        return np.minimum((doubles(w) * n).astype(int), n - 1)

    got = _randints(g.words(3000), n)
    assert got.tolist() == floor_doubles(ref.words(3000)).tolist()
    bits = n.bit_length() - 1
    w = np.array(
        sorted({b for k in range(n + 1) for b in boundary_words(k << (64 - bits))}),
        dtype=np.uint64,
    )
    assert _randints(w, n).tolist() == floor_doubles(w).tolist()


def test_integer_basis_coins_equal_fair_double_coins():
    w = np.array(boundary_words(2**63), dtype=np.uint64)
    w = np.concatenate([w, SeededGenerator(3, 3).words(5000)])
    assert _basis_coins(w).tolist() == (~(doubles(w) < 0.5)).astype(int).tolist()


def test_seeded_generator_helpers():
    g = SeededGenerator(7, 0)
    for _ in range(1000):
        assert g.sample_index([0.0, 1.0, 0.0]) == 1


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

