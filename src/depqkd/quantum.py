"""State vectors, local operations, and the local measurement table for
photon pairs carrying a polarization and a frequency mode.

Conventions, fixed package-wide:

* Each photon occupies four modes indexed ``2 * pol + freq`` with
  polarization H = 0, V = 1 and frequency bins LOW = 0, HIGH = 1.
* A state is a read-only ``complex128`` array: 4 amplitudes for a photon,
  16 for a pair with joint index ``4 * mode_a + mode_b`` (photon a major,
  photon b minor), so ``state.reshape(4, 4)`` has photon a on its rows.
* Encoding operations act on the polarization qubit only and leave the
  frequency bin untouched.  ``IY`` is the product of the phase flip and
  the bit flip (``Z @ X``), so IY|H> = -|V> and IY|V> = |H>.

Randomness enters only through explicitly seeded, stream-indexed
counter-based streams: a :class:`SeededGenerator` for one stream, or a
:class:`BatchStream` for one stream index of every session of a batch.
Both draw the same words, so every simulation is reproducible from its
(seed, stream, call order) triple alone.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from enum import Enum, IntEnum
from itertools import accumulate, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

class StateError(ValueError):
    """Raised for malformed or unusable state amplitudes."""


class Pol(IntEnum):
    """Polarization of a photon."""

    H = 0
    V = 1


class Freq(IntEnum):
    """Frequency bin of a photon.

    Each photon of a pair uses two bins; LOW denotes the unshifted bin that
    wavelength converters map both bins onto.
    """

    LOW = 0
    HIGH = 1


class Photon(Enum):
    """Which photon of a pair an operation acts on.

    Photon A stays with the sender until the second transmission; photon B
    travels first.
    """

    A = "a"
    B = "b"


class PolBasis(Enum):
    """Single-photon polarization measurement basis: H/V or diagonal."""

    Z = "Z"
    X = "X"


def mode_index(pol: Pol, freq: Freq) -> int:
    """Local mode index of a (polarization, frequency) pair."""
    return 2 * int(pol) + int(freq)


class Pauli(Enum):
    """Polarization-only encoding operations."""

    I = "I"
    X = "sigma_x"
    Z = "sigma_z"
    IY = "i_sigma_y"


PAULI_MATRICES: dict[Pauli, np.ndarray] = {
    Pauli.I: np.eye(2, dtype=complex),
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    # IY := Z @ X, fixing the sign convention iY|H> = -|V>, iY|V> = |H>.
    Pauli.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
}

# Each operation lifted to a photon's four (polarization, frequency) modes.
LOCAL_OPERATORS: dict[Pauli, np.ndarray] = {
    op: np.kron(u, np.eye(2, dtype=complex)) for op, u in PAULI_MATRICES.items()
}


def read_only(amplitudes) -> np.ndarray:
    """A new read-only ``complex128`` array of ``amplitudes``, the form of
    every state and basis table the package hands out."""
    vec = np.array(amplitudes, dtype=complex)
    vec.setflags(write=False)
    return vec


def apply_local(op: Pauli, photon: Photon, state: np.ndarray) -> np.ndarray:
    """Apply a polarization operation to one photon of a pair.

    The operation touches the polarization qubit only; frequency amplitudes
    ride along unchanged.  Norm is preserved.
    """
    u = LOCAL_OPERATORS[op]
    m = state.reshape(4, 4)
    if photon is Photon.A:
        out = u @ m
    else:
        out = m @ u.T
    return read_only(out.reshape(16))


def cumulative(probabilities) -> tuple[float, ...]:
    """Running sum of a probability vector, over Python floats.

    The same additions as ``np.cumsum``, at a fraction of its call overhead
    on vectors of 4 or 16 entries.
    """
    return tuple(accumulate(np.asarray(probabilities, dtype=float).tolist()))


def doubles(words: np.ndarray) -> np.ndarray:
    """The double in [0, 1) made of each 64-bit word: its top 53 bits
    times 2**-53, the formula of numpy's ``Generator.random``."""
    return (words >> 11) * 2.0**-53


class _ThreadPhilox(threading.local):
    """Per thread, the Philox every draw goes through (:func:`_rekeyed_words`)
    and the state it re-keys it to.  A re-key overwrites the state's
    counter and key, and the setter copies them out, so one dict serves
    every re-key.  One attribute holds both, as each thread-local lookup
    costs about 0.1 µs."""

    def __init__(self) -> None:
        self.philox = np.random.Philox(0), {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),  # tuples: the setter reads them faster than arrays
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_per_thread = _ThreadPhilox()

_SEED_MASK = (1 << 64) - 1


def _rekeyed_words(
    philox: tuple, seed: int, stream: int, start: int, n: int
) -> np.ndarray:
    """Words ``start`` to ``start + n`` of the stream keyed ``[seed,
    stream]``, drawn through ``philox``, a thread's pair of
    :data:`_per_thread`.

    Philox's word ``4 * c + j`` under a key is word ``j`` of the block at
    counter ``c``, whatever was drawn before, so the draw re-keys the
    Philox through its public ``state``: key ``[seed, stream]``, counter
    ``start // 4``, buffer empty; it then drops the first ``start % 4``
    words.  It leaves no state that a later draw reads.
    """
    bits, state = philox
    head = start % 4
    counter_and_key = state["state"]
    counter_and_key["counter"] = (start // 4, 0, 0, 0)
    counter_and_key["key"] = (seed, stream)
    bits.state = state
    return bits.random_raw(head + n)[head:]


class SeededGenerator:
    """Deterministic random source keyed by (master seed, stream index).

    Built on a counter-based Philox generator, so distinct stream indices
    give statistically independent sequences and the outputs depend only on
    (seed, stream, call order), never on platform or process state.  The
    stream is a sequence of 64-bit words (:meth:`words`); a double is the
    top 53 bits of one word, exactly as numpy's ``Generator.random`` makes
    it, and every sampling helper reduces to doubles.

    A handle holds only its key and the position of its next word, so it
    is cheap to make.  Each draw re-keys its thread's one Philox
    (:func:`_rekeyed_words`), so handles in different threads draw what
    they would alone.  Sessions draw through :class:`BatchStream`, which
    gives the same words; the handle serves the single-item samplers.
    """

    __slots__ = ("seed", "stream", "position")

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed) & _SEED_MASK
        self.stream = int(stream) & _SEED_MASK
        self.position = 0  # words drawn so far

    def words(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream, as ``uint64``."""
        start = self.position
        self.position = start + n
        return _rekeyed_words(_per_thread.philox, self.seed, self.stream, start, n)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), one word each; consumes the same words
        as ``n`` calls of :meth:`uniform`."""
        return doubles(self.words(n))

    def coin(self, p: float) -> bool:
        """True with probability ``p``."""
        return self.uniform() < p

    def sample_index(self, probabilities) -> int:
        """Index drawn from a probability vector by inverse CDF."""
        cdf = cumulative(probabilities)
        return min(bisect_right(cdf, self.uniform() * cdf[-1]), len(cdf) - 1)


class BatchStream:
    """One stream index of every session of a batch, as one object.

    Session ``s`` has the stream keyed ``[seeds[s], stream]`` exactly when
    ``runs[s]`` holds; ``positions[s]`` is then the position of its next
    word, and otherwise ``None``.  A draw takes a run of sessions' blocks
    in one call and re-keys the thread's Philox once per block, as
    :meth:`SeededGenerator.words` does, so each block holds the words that
    the session's own :class:`SeededGenerator` would give.  A skip only
    advances positions, and a session without the stream draws and skips
    nothing.
    """

    __slots__ = ("seeds", "stream", "positions")

    def __init__(
        self, seeds: Sequence[int], stream: int, runs: Iterable[bool] = repeat(True)
    ) -> None:
        self.seeds = [seed & _SEED_MASK for seed in seeds]
        self.stream = stream & _SEED_MASK
        self.positions: list[Optional[int]] = [
            0 if r else None for _, r in zip(seeds, runs)
        ]

    def words(self, sessions: Iterable[int], sizes: Iterable[int]) -> np.ndarray:
        """The next ``sizes[i]`` words of each session ``sessions[i]`` that
        has the stream, session after session, as one ``uint64`` array; a
        lone block comes back without a copy."""
        philox = _per_thread.philox
        seeds, stream, positions = self.seeds, self.stream, self.positions
        blocks = []
        for s, n in zip(sessions, sizes):
            start = positions[s]
            if start is not None and n:
                blocks.append(_rekeyed_words(philox, seeds[s], stream, start, n))
                positions[s] = start + n
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint64)

    def skip(self, sessions: Iterable[int], sizes: Iterable[int]) -> None:
        """Step each session ``sessions[i]`` that has the stream past its
        next ``sizes[i]`` words."""
        positions = self.positions
        for s, n in zip(sessions, sizes):
            if positions[s] is not None:
                positions[s] += n


def local_outcome(k: int) -> tuple[int, Freq]:
    """The ``(comp, freq)`` outcome of row ``k`` of a :data:`LOCAL_BASIS` table."""
    return k // 2, Freq(k % 2)


# Each polarization basis as a qubit table: row ``comp`` is H or the +45
# degree state for ``comp`` 0, V or the -45 degree state for ``comp`` 1.
POL_BASES: dict[PolBasis, np.ndarray] = {
    PolBasis.Z: np.eye(2),
    PolBasis.X: np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
}

#: The two single-photon measurements, resolving polarization in H/V or
#: diagonal and always the frequency bin: row ``k`` is the eigenstate of
#: outcome :func:`local_outcome` ``(k)``.  Adding 0.0 turns the -0.0 of
#: the products into 0.0.
LOCAL_BASIS: dict[PolBasis, np.ndarray] = {
    basis: read_only(np.kron(u, np.eye(2, dtype=complex)) + 0.0)
    for basis, u in POL_BASES.items()
}

# The conjugated rows (bras) of each table, built once.
_LOCAL_BRAS: dict[PolBasis, np.ndarray] = {
    basis: rows.conj() for basis, rows in LOCAL_BASIS.items()
}


def pol_freq_eigenstate(basis: PolBasis, comp: int, freq: Freq) -> np.ndarray:
    """Eigenstate of a polarization measurement within one frequency bin,
    row ``2 * comp + freq`` of :data:`LOCAL_BASIS`.

    ``comp`` 0 means H (Z basis) or the +45 degree state (X basis);
    ``comp`` 1 means V or the -45 degree state; any other value raises
    ``ValueError``.
    """
    if comp not in (0, 1):
        raise ValueError(f"comp must be 0 or 1, got {comp!r}")
    return LOCAL_BASIS[basis][2 * comp + freq]


def local_probabilities(state: np.ndarray, basis: PolBasis) -> np.ndarray:
    """Probabilities of the :data:`LOCAL_BASIS` outcomes on a lone photon."""
    return np.abs(_LOCAL_BRAS[basis] @ state) ** 2


def _partial_amplitudes(
    state: np.ndarray, photon: Photon, basis: PolBasis
) -> np.ndarray:
    # row k: the other photon's unnormalized state given outcome k
    m = state.reshape(4, 4)
    return _LOCAL_BRAS[basis] @ (m if photon is Photon.A else m.T)


def partial_probabilities(
    state: np.ndarray, photon: Photon, basis: PolBasis
) -> np.ndarray:
    """Probabilities of the :data:`LOCAL_BASIS` outcomes on one photon of a
    pair."""
    return np.sum(np.abs(_partial_amplitudes(state, photon, basis)) ** 2, axis=1)


def partial_collapse(
    state: np.ndarray, photon: Photon, basis: PolBasis, k: int
) -> np.ndarray:
    """The pair after outcome ``k`` on one photon: the product of the
    observed eigenstate and the conditional state of the other photon."""
    row = LOCAL_BASIS[basis][k]
    other = _partial_amplitudes(state, photon, basis)[k]
    post = np.outer(row, other) if photon is Photon.A else np.outer(other, row)
    return read_only(post.reshape(16) / np.linalg.norm(post))


def partial_measure(
    state: np.ndarray, photon: Photon, basis: PolBasis, g: SeededGenerator
) -> tuple[tuple[int, Freq], np.ndarray]:
    """Measure one photon of a pair in a :data:`LOCAL_BASIS` basis.

    Returns the sampled ``(comp, freq)`` outcome and the collapsed joint
    state (:func:`partial_collapse`).
    """
    k = g.sample_index(partial_probabilities(state, photon, basis))
    return local_outcome(k), partial_collapse(state, photon, basis, k)
