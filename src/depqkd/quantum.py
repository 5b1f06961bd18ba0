"""State vectors, local operations, and the local measurement table for
photon pairs carrying a polarization and a frequency mode.

Conventions, fixed package-wide:

* Each photon occupies four modes indexed ``2 * pol + freq`` with
  polarization H = 0, V = 1 and frequency bins LOW = 0, HIGH = 1.
* A pair state holds 16 amplitudes with joint index
  ``4 * mode_a + mode_b`` (photon a major, photon b minor).
* Encoding operations act on the polarization qubit only and leave the
  frequency bin untouched.  ``IY`` is the product of the phase flip and
  the bit flip (``Z @ X``), so IY|H> = -|V> and IY|V> = |H>.

State objects are immutable after construction.  Randomness enters only
through :class:`SeededGenerator`, an explicitly seeded, stream-indexed
counter-based generator, so every simulation is reproducible from its
(seed, stream, call order) triple alone.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum, IntEnum
from itertools import accumulate
from typing import Sequence

import numpy as np

#: Tolerance for algebraic identities (norms, unitarity, completeness).
NORM_TOL = 1e-12

#: Default tolerance for global-phase state comparison.
PHASE_TOL = 1e-9


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

    @property
    def matrix(self) -> np.ndarray:
        return PAULI_MATRICES[self]


PAULI_MATRICES: dict[Pauli, np.ndarray] = {
    Pauli.I: np.eye(2, dtype=complex),
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    # IY := Z @ X, fixing the sign convention iY|H> = -|V>, iY|V> = |H>.
    Pauli.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
}

# Each operation lifted to a photon's four (polarization, frequency) modes.
_LOCAL_OPERATORS: dict[Pauli, np.ndarray] = {
    op: np.kron(u, np.eye(2, dtype=complex)) for op, u in PAULI_MATRICES.items()
}


def _frozen_vector(values, dim: int) -> np.ndarray:
    vec = np.array(values, dtype=complex).reshape(dim)
    vec.setflags(write=False)
    return vec


class LocalState:
    """Single-photon state over the four (polarization, frequency) modes."""

    __slots__ = ("vec",)
    dim = 4

    def __init__(self, amplitudes) -> None:
        self.vec = _frozen_vector(amplitudes, 4)

    @classmethod
    def mode(cls, pol: Pol, freq: Freq) -> "LocalState":
        vec = np.zeros(4, dtype=complex)
        vec[mode_index(pol, freq)] = 1.0
        return cls(vec)

    @classmethod
    def diagonal(cls, sign: int, freq: Freq) -> "LocalState":
        """(|H> + sign |V>) / sqrt(2) within one frequency bin."""
        vec = np.zeros(4, dtype=complex)
        vec[mode_index(Pol.H, freq)] = 1.0 / np.sqrt(2.0)
        vec[mode_index(Pol.V, freq)] = sign / np.sqrt(2.0)
        return cls(vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(float(np.real(np.vdot(self.vec, self.vec))) - 1.0) <= tol

    def normalized(self) -> "LocalState":
        n = self.norm()
        if n < NORM_TOL:
            raise StateError("cannot normalize a zero state")
        return LocalState(self.vec / n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalState({np.array2string(self.vec, precision=4)})"


class JointState:
    """Two-photon state over the 16 joint modes (photon a major)."""

    __slots__ = ("vec",)
    dim = 16

    def __init__(self, amplitudes) -> None:
        self.vec = _frozen_vector(amplitudes, 16)

    @classmethod
    def from_product(cls, a: LocalState, b: LocalState) -> "JointState":
        return cls(np.kron(a.vec, b.vec))

    def as_matrix(self) -> np.ndarray:
        """View with photon a indexing rows and photon b indexing columns."""
        return self.vec.reshape(4, 4)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(float(np.real(np.vdot(self.vec, self.vec))) - 1.0) <= tol

    def normalized(self) -> "JointState":
        n = self.norm()
        if n < NORM_TOL:
            raise StateError("cannot normalize a zero state")
        return JointState(self.vec / n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{amp:.4g}|{i // 4},{i % 4}>"
            for i, amp in enumerate(self.vec)
            if abs(amp) > 1e-12
        ]
        return "JointState(" + " + ".join(parts) + ")"


def tensor(a: LocalState, b: LocalState) -> JointState:
    """Product state of two single-photon states."""
    return JointState.from_product(a, b)


def apply_local(op: Pauli, photon: Photon, state: JointState) -> JointState:
    """Apply a polarization operation to one photon of a pair.

    The operation touches the polarization qubit only; frequency amplitudes
    ride along unchanged.  Norm is preserved.
    """
    u = _LOCAL_OPERATORS[op]
    m = state.as_matrix()
    if photon is Photon.A:
        out = u @ m
    else:
        out = m @ u.T
    return JointState(out.reshape(16))


def equal_up_to_global_phase(s1, s2, tol: float = PHASE_TOL) -> bool:
    """True when two normalized states differ only by a global phase.

    Decided by ``|<s1|s2>| >= 1 - tol``.
    """
    return bool(abs(np.vdot(s1.vec, s2.vec)) >= 1.0 - tol)


def cumulative(probabilities) -> tuple[float, ...]:
    """Running sum of a probability vector, over Python floats.

    The same additions as ``np.cumsum``, at a fraction of its call overhead
    on vectors of 4 or 16 entries.
    """
    return tuple(accumulate(np.asarray(probabilities, dtype=float).tolist()))


def inverse_cdf(cdf, u: np.ndarray) -> np.ndarray:
    """Index of each uniform ``u`` under a :func:`cumulative` table: what
    :meth:`SeededGenerator.sample_index` returns for that draw."""
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), len(cdf) - 1)


def doubles(words: np.ndarray) -> np.ndarray:
    """The double in [0, 1) made of each 64-bit word: its top 53 bits
    times 2**-53, the formula of numpy's ``Generator.random``."""
    return (words >> 11) * 2.0**-53


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox its ``[seed, stream]`` key as the seed state: the
    generator of ``Philox(key=...)``, without the ``SeedSequence`` of fresh
    OS entropy that call builds and discards."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


class SeededGenerator:
    """Deterministic random source keyed by (master seed, stream index).

    Built on a counter-based Philox generator, so distinct stream indices
    give statistically independent sequences and the outputs depend only on
    (seed, stream, call order), never on platform or process state.  The
    stream is a sequence of 64-bit words (:meth:`words`); a double is the
    top 53 bits of one word, exactly as numpy's ``Generator.random`` makes
    it, and every sampling helper reduces to doubles.  :meth:`skip` steps
    past words without generating them, and a stream that is only ever
    skipped never builds its Philox.
    """

    __slots__ = ("seed", "stream", "_bits", "_drawn", "_skipped")

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed) & self._MASK
        self.stream = int(stream) & self._MASK
        self._bits: np.random.Philox | None = None
        self._drawn = 0  # words the Philox has given out or stepped past
        self._skipped = 0  # words skipped but not yet stepped past

    def _philox(self) -> np.random.Philox:
        """The stream's Philox, built on first use and moved past the
        skipped words.

        Philox makes four words per counter value and ``advance`` moves the
        counter, emptying its four-word buffer.  So the words left in the
        current block are drawn and discarded first, then whole blocks are
        advanced over, then the remainder is drawn and discarded.
        """
        bits = self._bits
        if bits is None:
            key = _PhiloxKey(np.array([self.seed, self.stream], dtype=np.uint64))
            bits = self._bits = np.random.Philox(key)
        skip, self._skipped = self._skipped, 0
        head = min(-self._drawn % 4, skip)
        blocks, tail = divmod(skip - head, 4)
        if head:
            bits.random_raw(head)
        if blocks:
            bits.advance(blocks)
        if tail:
            bits.random_raw(tail)
        self._drawn += skip
        return bits

    def words(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream, as ``uint64``."""
        bits = self._bits
        if bits is None or self._skipped:
            bits = self._philox()
        self._drawn += n
        return bits.random_raw(n)

    def skip(self, n: int) -> None:
        """Step past the next ``n`` words: the next draw starts where it
        would after drawing and discarding them."""
        self._skipped += n

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

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint needs a positive range")
        return min(int(self.uniform() * n), n - 1)

    def pick(self, seq: Sequence):
        """Uniformly chosen element of a non-empty sequence."""
        return seq[self.randint(len(seq))]

    def sample_index(self, probabilities) -> int:
        """Index drawn from a probability vector by inverse CDF."""
        cdf = cumulative(probabilities)
        return min(bisect_right(cdf, self.uniform() * cdf[-1]), len(cdf) - 1)

    def sample_indices(self, probabilities, n: int) -> np.ndarray:
        """``n`` indices drawn from one probability vector; the same indices
        and draws as ``n`` calls of :meth:`sample_index`."""
        return inverse_cdf(cumulative(probabilities), self.uniforms(n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededGenerator(seed={self.seed}, stream={self.stream})"


def pol_freq_eigenstate(basis: PolBasis, comp: int, freq: Freq) -> LocalState:
    """Eigenstate of a polarization measurement within one frequency bin.

    ``comp`` 0 means H (Z basis) or the +45 degree state (X basis);
    ``comp`` 1 means V or the -45 degree state.
    """
    if basis is PolBasis.Z:
        return LocalState.mode(Pol(comp), freq)
    return LocalState.diagonal(+1 if comp == 0 else -1, freq)


def local_outcome(k: int) -> tuple[int, Freq]:
    """The ``(comp, freq)`` outcome of row ``k`` of a :data:`LOCAL_BASIS` table."""
    return k // 2, Freq(k % 2)


def _local_basis(basis: PolBasis) -> np.ndarray:
    rows = np.array(
        [pol_freq_eigenstate(basis, *local_outcome(k)).vec for k in range(4)]
    )
    rows.setflags(write=False)
    return rows


#: The two single-photon measurements, resolving polarization in H/V or
#: diagonal and always the frequency bin: row ``k`` is the eigenstate of
#: outcome :func:`local_outcome` ``(k)``.
LOCAL_BASIS: dict[PolBasis, np.ndarray] = {
    basis: _local_basis(basis) for basis in PolBasis
}

# The conjugated rows (bras) of each table, built once.
_LOCAL_BRAS: dict[PolBasis, np.ndarray] = {
    basis: rows.conj() for basis, rows in LOCAL_BASIS.items()
}


def local_probabilities(state: LocalState, basis: PolBasis) -> np.ndarray:
    """Probabilities of the :data:`LOCAL_BASIS` outcomes on a lone photon."""
    return np.abs(_LOCAL_BRAS[basis] @ state.vec) ** 2


def _partial_amplitudes(
    state: JointState, photon: Photon, basis: PolBasis
) -> np.ndarray:
    # row k: the other photon's unnormalized state given outcome k
    m = state.as_matrix()
    return _LOCAL_BRAS[basis] @ (m if photon is Photon.A else m.T)


def partial_probabilities(
    state: JointState, photon: Photon, basis: PolBasis
) -> np.ndarray:
    """Probabilities of the :data:`LOCAL_BASIS` outcomes on one photon of a
    pair."""
    return np.sum(np.abs(_partial_amplitudes(state, photon, basis)) ** 2, axis=1)


def partial_collapse(
    state: JointState, photon: Photon, basis: PolBasis, k: int
) -> JointState:
    """The pair after outcome ``k`` on one photon: the product of the
    observed eigenstate and the conditional state of the other photon."""
    row = LOCAL_BASIS[basis][k]
    other = _partial_amplitudes(state, photon, basis)[k]
    post = np.outer(row, other) if photon is Photon.A else np.outer(other, row)
    return JointState(post.reshape(16) / np.linalg.norm(post))


def partial_measure(
    state: JointState, photon: Photon, basis: PolBasis, g: SeededGenerator
) -> tuple[tuple[int, Freq], JointState]:
    """Measure one photon of a pair in a :data:`LOCAL_BASIS` basis.

    Returns the sampled ``(comp, freq)`` outcome and the collapsed joint
    state (:func:`partial_collapse`).
    """
    k = g.sample_index(partial_probabilities(state, photon, basis))
    return local_outcome(k), partial_collapse(state, photon, basis, k)
