"""The two-step key distribution session.

One session proceeds in five steps.  The sender prepares entangled pairs,
applies the first encoding operation to every photon b, and transmits the
b sequence (optionally with single-photon check states mixed in).  The
receiver stores the arrivals.  A security check follows: comparing a
sample of the check photons in matched bases, converting and measuring a
sample of the stored pairs, or both.  If the observed error rate stays at
or below the threshold, the sender applies the second encoding operation
to the matching photons a and transmits them; the receiver then measures
each reunited pair jointly and reads three key bits per pair.

An intercept-resend attacker on the first transmission disturbs both
checks at known rates and, because each codeword is completed only by the
second operation, its measurement records never determine final key bits.

A session runs as a batch.  :class:`PairBatch` and :class:`DecoyBatch`
hold one array entry per item, pair states are ids into :data:`ALPHABET`,
and each phase draws for all of its items at once, from the same stream,
in the same order and number as a simulation item by item would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .channel import ChannelConfig, ConfigError, EveStrategy
from .device import (
    decode,
    device_outcomes,
    device_probabilities,
    wavelength_convert_global,
)
from .quantum import (
    LOCAL_BASIS,
    JointState,
    LocalState,
    Pauli,
    Photon,
    PolBasis,
    SeededGenerator,
    apply_local,
    cumulative,
    local_probabilities,
    partial_collapse,
    partial_probabilities,
)
from .states import (
    DepLabel,
    EncodingPair,
    Family,
    dep_basis,
    encoding_choices,
    encoding_to_label,
)


class CheckStrategy(Enum):
    """Which security checks a session runs before the second transmission."""

    DECOY = "decoy"
    WAVELENGTH_CONVERTER = "wc"
    BOTH = "both"

    @property
    def uses_decoy(self) -> bool:
        return self in (CheckStrategy.DECOY, CheckStrategy.BOTH)

    @property
    def uses_wc(self) -> bool:
        return self in (CheckStrategy.WAVELENGTH_CONVERTER, CheckStrategy.BOTH)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a session needs; identical configs replay identically."""

    n_pairs: int = 1000
    seed: int = 0
    decoy_fraction: float = 0.1
    check_strategy: CheckStrategy = CheckStrategy.DECOY
    check_sample_fraction: float = 0.1
    qber_threshold: float = 0.05
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be positive, got {self.n_pairs}")
        if not 0.0 <= self.decoy_fraction < 1.0:
            raise ConfigError(
                f"decoy_fraction must lie in [0, 1), got {self.decoy_fraction}"
            )
        if not 0.0 < self.check_sample_fraction <= 1.0:
            raise ConfigError(
                "check_sample_fraction must lie in (0, 1], got "
                f"{self.check_sample_fraction}"
            )
        if not 0.0 < self.qber_threshold < 1.0:
            raise ConfigError(
                f"qber_threshold must lie in (0, 1), got {self.qber_threshold}"
            )

    def to_dict(self) -> dict:
        """JSON-ready echo of the effective configuration."""
        eve = self.channel.eve
        return {
            "pairs": self.n_pairs,
            "seed": self.seed,
            "decoy_fraction": self.decoy_fraction,
            "check": self.check_strategy.value,
            "sample_fraction": self.check_sample_fraction,
            "threshold": self.qber_threshold,
            "loss": self.channel.loss_probability,
            "eve": eve.strategy.value if eve else "none",
            "eve_targets": eve.target.value if eve else "b",
        }


class MessageKind(Enum):
    POSITIONS = "positions"
    BASIS_DECLARATION = "basis-declaration"
    OUTCOME_COMPARISON = "outcome-comparison"
    ABORT = "abort"
    PROCEED = "proceed"


@dataclass(frozen=True)
class Message:
    sender: str
    kind: MessageKind
    payload: object


class Transcript:
    """Append-only record of the public classical channel."""

    def __init__(self) -> None:
        self._messages: list[Message] = []

    def append(self, sender: str, kind: MessageKind, payload: object) -> Message:
        msg = Message(sender, kind, payload)
        self._messages.append(msg)
        return msg

    def messages(self) -> tuple[Message, ...]:
        return tuple(self._messages)

    def kinds(self) -> tuple[MessageKind, ...]:
        return tuple(m.kind for m in self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self):
        return iter(self._messages)


class IndeterminateCheckError(RuntimeError):
    """A security check ended with zero matched comparisons."""


# Streams of the session's master seed, one per protocol phase, so that a
# change in one phase's draw count never shifts another phase's draws.
_STREAM_ALICE = 0
_STREAM_DECOY = 1
_STREAM_CHANNEL_B = 2
_STREAM_BOB_DECOY = 3
_STREAM_WC = 4
_STREAM_CHANNEL_A = 5
_STREAM_DEVICE = 6

# Arrays hold operations as indices into _PAULIS and bases as indices into
# _BASES (0 = H/V, 1 = diagonal).
_PAULIS = tuple(Pauli)
_BASES = tuple(PolBasis)
_BASIS_NAMES = np.array([basis.value for basis in _BASES], dtype=object)


class DecoyPol(Enum):
    """Polarization preparation of a single-photon check state."""

    H = (PolBasis.Z, 0)
    V = (PolBasis.Z, 1)
    PLUS = (PolBasis.X, 0)
    MINUS = (PolBasis.X, 1)

    @property
    def basis(self) -> PolBasis:
        return self.value[0]

    @property
    def comp(self) -> int:
        return self.value[1]


_DECOY_BASIS = np.array([_BASES.index(pol.basis) for pol in DecoyPol])
_DECOY_COMP = np.array([pol.comp for pol in DecoyPol])

# Operation indices (op_a, op_b) of encoding_choices(codeword)[choice].
_CHOICE_OPS = np.array(
    [
        [[_PAULIS.index(op) for op in pair] for pair in encoding_choices(codeword)]
        for codeword in range(8)
    ]
)


def _unset(n: int) -> np.ndarray:
    return np.full(n, -1, dtype=np.int64)


@dataclass
class PairBatch:
    """Every pair of a session as parallel arrays, one entry per pair.

    ``state`` holds ids into :data:`ALPHABET`; ``op_a``/``op_b`` index
    ``tuple(Pauli)``.  For each photon the attacker intercepted, ``eve_*_basis``
    indexes ``tuple(PolBasis)`` and ``eve_*_outcome`` is the row ``k`` of that
    :data:`~depqkd.quantum.LOCAL_BASIS` table it observed.  ``-1`` marks an
    attacker record that does not exist and a pair the receiver never
    decoded.
    """

    codeword: np.ndarray
    choice: np.ndarray  # which of encoding_choices(codeword)
    op_a: np.ndarray
    op_b: np.ndarray
    state: np.ndarray
    b_delivered: np.ndarray
    a_delivered: np.ndarray
    checked: np.ndarray
    eve_b_basis: np.ndarray
    eve_b_outcome: np.ndarray
    eve_a_basis: np.ndarray
    eve_a_outcome: np.ndarray
    decoded: np.ndarray

    def __len__(self) -> int:
        return len(self.codeword)

    def encoding(self, i: int) -> EncodingPair:
        return EncodingPair(_PAULIS[self.op_a[i]], _PAULIS[self.op_b[i]])

    @property
    def surviving(self) -> np.ndarray:
        """Contributes key bits: both photons arrived, not consumed by a check."""
        return self.b_delivered & self.a_delivered & ~self.checked


@dataclass
class DecoyBatch:
    """Every check photon of a session as parallel arrays, in slot order.

    ``pol`` indexes ``tuple(DecoyPol)``.  A photon's ``state`` is the local
    id ``4 * basis + k`` of row ``k`` of the ``tuple(PolBasis)[basis]``
    :data:`~depqkd.quantum.LOCAL_BASIS` table; the attacker resends such a
    row too.  Bases and outcomes of the attacker and the receiver use the
    same encoding as :class:`PairBatch`, with ``-1`` for none.
    """

    position: np.ndarray  # slot in the mixed transmission sequence
    freq: np.ndarray
    pol: np.ndarray
    state: np.ndarray
    delivered: np.ndarray
    eve_basis: np.ndarray
    eve_outcome: np.ndarray
    bob_basis: np.ndarray
    bob_outcome: np.ndarray

    def __len__(self) -> int:
        return len(self.position)


def _decoy_batch(position, freq, pol) -> DecoyBatch:
    n = len(position)
    return DecoyBatch(
        position=position,
        freq=freq,
        pol=pol,
        state=4 * _DECOY_BASIS[pol] + 2 * _DECOY_COMP[pol] + freq,
        delivered=np.ones(n, dtype=bool),
        eve_basis=_unset(n),
        eve_outcome=_unset(n),
        bob_basis=_unset(n),
        bob_outcome=_unset(n),
    )


_PSI_PLUS = dep_basis(DepLabel.PSI_PLUS)


class StateAlphabet:
    """Every pair state the sessions reach, interned by exact amplitudes,
    with the outcome tables of each state filled in on first use.

    Each entry is computed by the scalar function the single-item samplers
    use, so a lookup gives the very floats a direct call would.  Entries
    depend only on the amplitudes, so one table serves every session.
    Bases are indices into ``tuple(PolBasis)`` and operations into
    ``tuple(Pauli)``; the ``*_cdf`` entries are :func:`cumulative` tables.
    """

    def __init__(self) -> None:
        self.states: list[JointState] = []
        self._ids: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self.states)

    def intern(self, state: JointState) -> int:
        key = state.vec.tobytes()
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.states)
            self.states.append(state)
        return sid

    # The alphabet lives as long as the process, so caching on the
    # instance holds nothing longer than it would be held anyway.
    @cache
    def prepared(self, op_b: int) -> int:
        """Id of a fresh PSI+ pair after the photon-b operation."""
        return self.intern(apply_local(_PAULIS[op_b], Photon.B, _PSI_PLUS))

    @cache
    def encoded(self, sid: int, op_a: int) -> int:
        """Id of a pair after the photon-a operation."""
        return self.intern(apply_local(_PAULIS[op_a], Photon.A, self.states[sid]))

    @cache
    def partial_cdf(self, sid: int, photon: Photon, basis: int) -> tuple[float, ...]:
        state = self.states[sid]
        return cumulative(partial_probabilities(state, photon, _BASES[basis]))

    @cache
    def collapsed(self, sid: int, photon: Photon, basis: int, k: int) -> int:
        """Id of a pair after outcome ``k`` on one of its photons."""
        state = self.states[sid]
        return self.intern(partial_collapse(state, photon, _BASES[basis], k))

    @cache
    def device_cdf(self, sid: int) -> tuple[float, ...]:
        return cumulative(device_probabilities(self.states[sid]))

    @cache
    def converted(self, sid: int) -> np.ndarray:
        """Converted polarization amplitudes; raises :class:`StateError`
        for a state the converters annihilate."""
        return wavelength_convert_global(self.states[sid])

    @cache
    def wc_cdf(self, sid: int, basis_a: int, basis_b: int) -> tuple[float, ...]:
        return cumulative(_wc_probabilities(self.converted(sid), basis_a, basis_b))

    @cache
    def local_cdf(self, local_id: int, basis: int) -> tuple[float, ...]:
        """Outcome cdf of a check photon with :class:`DecoyBatch` state id
        ``local_id``."""
        row_basis, k = divmod(local_id, 4)
        photon = LocalState(LOCAL_BASIS[_BASES[row_basis]][k])
        return cumulative(local_probabilities(photon, _BASES[basis]))


#: The state table shared by every session of the process.
ALPHABET = StateAlphabet()


def _randints(u: np.ndarray, n: int) -> np.ndarray:
    """:meth:`SeededGenerator.randint` of each draw."""
    return np.minimum((u * n).astype(np.int64), n - 1)


def _distinct(keys: np.ndarray) -> list[int]:
    return np.flatnonzero(np.bincount(keys)).tolist()


def _per_key(keys: np.ndarray, fn: Callable[[int], int]) -> np.ndarray:
    """``fn`` of each entry of a small non-negative integer array, evaluated
    once per distinct value."""
    table = np.zeros(int(keys.max()) + 1 if len(keys) else 0, dtype=np.int64)
    for key in _distinct(keys):
        table[key] = fn(key)
    return table[keys]


def _sample(
    keys: np.ndarray, u: np.ndarray, cdf_of: Callable[[int], tuple[float, ...]]
) -> np.ndarray:
    """Inverse-CDF index of each draw under the cdf of its item's key.

    Equals :func:`inverse_cdf` per key: a cdf never decreases, so the
    clamped ``searchsorted`` index of ``x = u * cdf[-1]`` is the count of
    the first ``L - 1`` entries that are ``<= x``.  The count runs one
    column of the call's table at a time, whatever the number of keys.
    """
    if not len(keys):
        return np.zeros(0, dtype=np.int64)
    present = np.bincount(keys) > 0
    table = np.array([cdf_of(key) for key in np.flatnonzero(present).tolist()])
    row = (np.cumsum(present) - 1)[keys]
    x = u * table[row, -1]
    k = np.zeros(len(keys), dtype=np.int64)
    for column in table[:, :-1].T:
        k += column[row] <= x
    return k


def _basis_coins(u: np.ndarray) -> np.ndarray:
    """Basis index of each fair coin: H/V on heads (``u < 0.5``)."""
    return (~(u < 0.5)).astype(np.int64)


def _channel(
    n: int, channel: ChannelConfig, photon: Photon, g: SeededGenerator
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Send ``n`` photons through the channel.

    Per photon the stream gives one loss coin, then, if the photon was
    delivered and is attacked, the attacker's basis coin (random policy
    only) and its measurement draw.  Returns the delivery mask and, when
    the attacker covers this transmission, its basis per photon (``-1``
    where it measured nothing) and its measurement draws.
    """
    eve = channel.eve
    loss = channel.loss_probability
    if eve is None or not eve.target.covers(photon):
        return ~(g.uniforms(n) < loss), None, None
    extra = 2 if eve.strategy is EveStrategy.RANDOM_ZX else 1
    stride = 1 + extra
    if loss == 0.0:
        pool = g.uniforms(stride * n)
        delivered = np.ones(n, dtype=bool)
        starts = np.arange(1, stride * n, stride)
    else:
        # Scan the loss coins.  Whenever the pool runs out, draw what the
        # remaining photons must still consume at the least (one loss coin
        # each, plus the current photon's attack draws), so the stream is
        # never drawn past the photons' last draw.
        chunks = [g.uniforms(n)]
        coins = chunks[0].tolist()
        hit: list[int] = []
        begin: list[int] = []
        pos = 0
        for i in range(n):
            if pos == len(coins):
                chunks.append(g.uniforms(n - i))
                coins.extend(chunks[-1].tolist())
            if coins[pos] < loss:
                pos += 1
                continue
            hit.append(i)
            begin.append(pos + 1)
            pos += stride
            if pos > len(coins):
                chunks.append(g.uniforms(pos + n - 1 - i - len(coins)))
                coins.extend(chunks[-1].tolist())
        pool = np.concatenate(chunks)
        delivered = np.zeros(n, dtype=bool)
        delivered[hit] = True
        starts = np.array(begin, dtype=np.int64)
    basis = _unset(n)
    if eve.strategy is EveStrategy.RANDOM_ZX:
        basis[delivered] = _basis_coins(pool[starts])
    else:
        basis[delivered] = _BASES.index(
            PolBasis.Z if eve.strategy is EveStrategy.Z else PolBasis.X
        )
    u = np.zeros(n)
    u[delivered] = pool[starts + extra - 1]
    return delivered, basis, u


def _intercept_pairs(
    pairs: PairBatch, idx: np.ndarray, photon: Photon, basis: np.ndarray, u: np.ndarray
) -> None:
    """Measure one photon of each pair ``idx`` and resend the eigenstate."""
    keys = 2 * pairs.state[idx] + basis
    k = _sample(keys, u, lambda key: ALPHABET.partial_cdf(key >> 1, photon, key & 1))
    pairs.state[idx] = _per_key(
        4 * keys + k,
        lambda key: ALPHABET.collapsed(key >> 3, photon, (key >> 2) & 1, key & 3),
    )
    if photon is Photon.B:
        pairs.eve_b_basis[idx], pairs.eve_b_outcome[idx] = basis, k
    else:
        pairs.eve_a_basis[idx], pairs.eve_a_outcome[idx] = basis, k


def step1_prepare_and_encode(config: ProtocolConfig, g: SeededGenerator) -> PairBatch:
    """Draw a codeword per pair, pick one of its two operation pairs, and
    apply the photon-b operation to a fresh PSI+ pair."""
    n = config.n_pairs
    u = g.uniforms(2 * n).reshape(n, 2)
    codeword = _randints(u[:, 0], 8)
    choice = _randints(u[:, 1], 2)
    op_b = _CHOICE_OPS[codeword, choice, 1]
    return PairBatch(
        codeword=codeword,
        choice=choice,
        op_a=_CHOICE_OPS[codeword, choice, 0],
        op_b=op_b,
        state=_per_key(op_b, ALPHABET.prepared),
        b_delivered=np.ones(n, dtype=bool),
        a_delivered=np.ones(n, dtype=bool),
        checked=np.zeros(n, dtype=bool),
        eve_b_basis=_unset(n),
        eve_b_outcome=_unset(n),
        eve_a_basis=_unset(n),
        eve_a_outcome=_unset(n),
        decoded=_unset(n),
    )


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` smallest keys, equal keys taken in index order:
    the first ``count`` entries of a stable argsort, found in linear time."""
    cut = np.partition(keys, count - 1)[count - 1]
    mask = keys < cut
    mask[np.flatnonzero(keys == cut)[: count - np.count_nonzero(mask)]] = True
    return mask


def insert_decoys(
    pairs: PairBatch, decoy_fraction: float, g: SeededGenerator
) -> tuple[np.ndarray, DecoyBatch]:
    """Mix single-photon check states into the b transmission sequence.

    The decoy count is binomial with mean ``decoy_fraction * len(pairs)``;
    positions are uniform among the mixed slots and preparations are
    uniform over the eight (frequency bin, polarization) combinations.
    Positions and preparations stay secret until the check.  Returns the
    mask of decoy slots in the mixed sequence, whose other slots carry the
    pairs in order, and the decoys.
    """
    n = len(pairs)
    count = int(np.count_nonzero(g.uniforms(n) < decoy_fraction))
    # The slots of the ``count`` smallest of ``n + count`` uniform keys hold
    # the decoys.
    if count:
        is_decoy = _smallest(g.uniforms(n + count), count)
    else:
        is_decoy = np.zeros(n, dtype=bool)
    u = g.uniforms(2 * count).reshape(count, 2)
    decoys = _decoy_batch(
        np.flatnonzero(is_decoy), _randints(u[:, 0], 2), _randints(u[:, 1], 4)
    )
    return is_decoy, decoys


def transmit_b(
    pairs: PairBatch,
    decoys: DecoyBatch,
    is_decoy: np.ndarray,
    channel: ChannelConfig,
    g: SeededGenerator,
) -> None:
    """Send the mixed b sequence through the channel, updating both batches.

    Loss is decided first; the attacker only touches delivered photons and
    cannot tell pair photons from check photons.
    """
    delivered, basis, u = _channel(len(is_decoy), channel, Photon.B, g)
    is_pair = ~is_decoy
    pairs.b_delivered[:] = delivered[is_pair]
    decoys.delivered[:] = delivered[is_decoy]
    if basis is None:
        return
    hit = np.flatnonzero(delivered[is_pair])
    _intercept_pairs(pairs, hit, Photon.B, basis[is_pair][hit], u[is_pair][hit])
    hit = np.flatnonzero(decoys.delivered)
    basis, u = basis[is_decoy][hit], u[is_decoy][hit]
    keys = 2 * decoys.state[hit] + basis
    k = _sample(keys, u, lambda key: ALPHABET.local_cdf(key >> 1, key & 1))
    decoys.eve_basis[hit], decoys.eve_outcome[hit] = basis, k
    decoys.state[hit] = 4 * basis + k


@dataclass(frozen=True)
class DecoyCheckResult:
    qber: float
    proceed: bool
    compared: int
    errors: int
    pol_errors: int
    freq_errors: int
    z_prepared_compared: int
    z_prepared_errors: int
    x_prepared_compared: int
    x_prepared_errors: int


@dataclass(frozen=True)
class WcCheckResult:
    qber: float
    proceed: bool
    compared: int
    errors: int
    z_compared: int
    z_errors: int
    x_compared: int
    x_errors: int
    checked_count: int


@dataclass(frozen=True)
class RunReport:
    """Outcome of one session."""

    decoy_qber: Optional[float]
    wc_qber: Optional[float]
    aborted: bool
    alice_key: bytes  # one byte, 0 or 1, per key bit
    bob_key: bytes
    final_qber: float
    counts: dict[str, int]
    config: ProtocolConfig
    seed: int


def _post(
    transcript: Optional[Transcript],
    sender: str,
    kind: MessageKind,
    payload: Callable[[], object],
) -> None:
    """Append a message when a transcript is kept; ``payload`` builds its
    body only then."""
    if transcript is not None:
        transcript.append(sender, kind, payload())


# Announced abort reason and error message of a check that compared nothing.
_INDETERMINATE = {
    "decoy": ("no matched decoys", "no matched decoy comparisons"),
    "wc": ("no matched pair comparisons", "no matched converted-pair comparisons"),
}


def _conclude(
    check: str,
    compared: int,
    errors: int,
    qber_threshold: float,
    transcript: Optional[Transcript],
) -> tuple[float, bool]:
    """Error rate and verdict of a check, announced; raises
    :class:`IndeterminateCheckError` when nothing was compared."""
    if compared == 0:
        reason, message = _INDETERMINATE[check]
        _post(transcript, "alice", MessageKind.ABORT, lambda: {"reason": reason})
        raise IndeterminateCheckError(message)
    qber = errors / compared
    proceed = qber <= qber_threshold
    _post(
        transcript,
        "alice",
        MessageKind.OUTCOME_COMPARISON,
        lambda: {"check": check, "compared": compared, "errors": errors, "qber": qber},
    )
    _post(
        transcript,
        "alice",
        MessageKind.PROCEED if proceed else MessageKind.ABORT,
        lambda: {"check": check, "qber": qber},
    )
    return qber, proceed


def decoy_check(
    decoys: DecoyBatch,
    qber_threshold: float,
    transcript: Optional[Transcript],
    g: SeededGenerator,
) -> DecoyCheckResult:
    """Compare delivered check photons measured in matched bases.

    The receiver measures every delivered decoy in a uniformly random
    basis; comparisons count only where that basis matches the
    preparation.  A polarization flip or a frequency-bin mismatch both
    count as errors.  Raises :class:`IndeterminateCheckError` when nothing
    could be compared.
    """
    t = transcript
    _post(
        t,
        "alice",
        MessageKind.POSITIONS,
        lambda: {"decoy_positions": tuple(decoys.position.tolist())},
    )
    idx = np.flatnonzero(decoys.delivered)
    u = g.uniforms(2 * len(idx)).reshape(len(idx), 2)
    basis = _basis_coins(u[:, 0])
    k = _sample(
        2 * decoys.state[idx] + basis,
        u[:, 1],
        lambda key: ALPHABET.local_cdf(key >> 1, key & 1),
    )
    decoys.bob_basis[idx], decoys.bob_outcome[idx] = basis, k
    _post(
        t,
        "bob",
        MessageKind.BASIS_DECLARATION,
        lambda: {
            "decoy_bases": tuple(
                zip(decoys.position[idx].tolist(), _BASIS_NAMES[basis].tolist())
            )
        },
    )
    pol = decoys.pol[idx]
    prepared = _DECOY_BASIS[pol]
    matched = basis == prepared
    pol_bad = matched & (k // 2 != _DECOY_COMP[pol])
    freq_bad = matched & (k % 2 != decoys.freq[idx])
    bad = pol_bad | freq_bad
    z = prepared == _BASES.index(PolBasis.Z)
    compared = int(np.count_nonzero(matched))
    errors = int(np.count_nonzero(bad))
    qber, proceed = _conclude("decoy", compared, errors, qber_threshold, t)
    return DecoyCheckResult(
        qber=qber,
        proceed=proceed,
        compared=compared,
        errors=errors,
        pol_errors=int(np.count_nonzero(pol_bad)),
        freq_errors=int(np.count_nonzero(freq_bad)),
        z_prepared_compared=int(np.count_nonzero(matched & z)),
        z_prepared_errors=int(np.count_nonzero(bad & z)),
        x_prepared_compared=int(np.count_nonzero(matched & ~z)),
        x_prepared_errors=int(np.count_nonzero(bad & ~z)),
    )


_Z_ROWS = np.eye(2, dtype=complex)
_X_ROWS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# Bras of the converted-qubit bases, indexed like _BASES.
_BASIS_BRAS = (_Z_ROWS.conj(), _X_ROWS.conj())


def _wc_probabilities(converted: np.ndarray, basis_a: int, basis_b: int) -> np.ndarray:
    """Outcome probabilities ``2 * comp_a + comp_b`` of both converted
    photons measured in the bases ``tuple(PolBasis)[basis_a]`` and
    ``[basis_b]``."""
    amp = _BASIS_BRAS[basis_a] @ converted.reshape(2, 2) @ _BASIS_BRAS[basis_b].T
    return np.abs(amp.reshape(4)) ** 2


def _expected_correlation(step1_label: DepLabel, basis: PolBasis) -> bool:
    """Whether matched-basis outcomes should agree for a checked pair.

    After conversion the PHI family is correlated and the PSI family
    anticorrelated in H/V, while the sign alone fixes the diagonal-basis
    relation: plus states agree, minus states disagree.
    """
    if basis is PolBasis.Z:
        return step1_label.family is Family.PHI
    return step1_label.sign > 0


# Expected agreement per (photon-b operation, matched basis).
_EXPECTED_AGREE = np.array(
    [
        [
            _expected_correlation(encoding_to_label(EncodingPair(Pauli.I, op)), basis)
            for basis in _BASES
        ]
        for op in _PAULIS
    ]
)


def wc_check(
    pairs: PairBatch,
    sample_fraction: float,
    qber_threshold: float,
    transcript: Optional[Transcript],
    g: SeededGenerator,
) -> WcCheckResult:
    """Convert and measure a random sample of stored pairs.

    Both parties wavelength-convert their photon of each sampled pair and
    measure it in an independently random basis; matched-basis outcomes
    are compared against the correlation the first encoding step dictates.
    Checked pairs are consumed and never contribute key bits.  Raises
    :class:`IndeterminateCheckError` when no matched comparison happened.
    """
    t = transcript
    eligible = np.flatnonzero(pairs.b_delivered & ~pairs.checked)
    sampled = eligible[g.uniforms(len(eligible)) < sample_fraction]
    _post(
        t,
        "bob",
        MessageKind.POSITIONS,
        lambda: {"wc_positions": tuple(sampled.tolist())},
    )
    pairs.checked[sampled] = True
    ids = pairs.state[sampled]
    for sid in _distinct(ids):
        ALPHABET.converted(sid)  # a state the converters annihilate raises here
    m = len(sampled)
    u = g.uniforms(3 * m).reshape(m, 3)
    basis_a = _basis_coins(u[:, 0])
    basis_b = _basis_coins(u[:, 1])
    k = _sample(
        4 * ids + 2 * basis_a + basis_b,
        u[:, 2],
        lambda key: ALPHABET.wc_cdf(key >> 2, (key >> 1) & 1, key & 1),
    )
    _post(
        t,
        "both",
        MessageKind.BASIS_DECLARATION,
        lambda: {
            "wc_bases": tuple(
                zip(
                    sampled.tolist(),
                    _BASIS_NAMES[basis_a].tolist(),
                    _BASIS_NAMES[basis_b].tolist(),
                )
            )
        },
    )
    matched = basis_a == basis_b
    agree = k // 2 == k % 2
    bad = matched & (agree != _EXPECTED_AGREE[pairs.op_b[sampled], basis_a])
    z = basis_a == _BASES.index(PolBasis.Z)
    compared = int(np.count_nonzero(matched))
    errors = int(np.count_nonzero(bad))
    qber, proceed = _conclude("wc", compared, errors, qber_threshold, t)
    return WcCheckResult(
        qber=qber,
        proceed=proceed,
        compared=compared,
        errors=errors,
        z_compared=int(np.count_nonzero(matched & z)),
        z_errors=int(np.count_nonzero(bad & z)),
        x_compared=int(np.count_nonzero(matched & ~z)),
        x_errors=int(np.count_nonzero(bad & ~z)),
        checked_count=m,
    )


def step4_encode_a(pairs: PairBatch) -> np.ndarray:
    """Apply the photon-a operation, completing each stored codeword;
    returns the indices of those active pairs."""
    active = np.flatnonzero(pairs.b_delivered & ~pairs.checked)
    pairs.state[active] = _per_key(
        4 * pairs.state[active] + pairs.op_a[active],
        lambda key: ALPHABET.encoded(key >> 2, key & 3),
    )
    return active


def transmit_a(
    pairs: PairBatch, active: np.ndarray, channel: ChannelConfig, g: SeededGenerator
) -> None:
    """Send the photons a of the active pairs through the channel."""
    delivered, basis, u = _channel(len(active), channel, Photon.A, g)
    pairs.a_delivered[active] = delivered
    if basis is not None:
        hit = delivered
        _intercept_pairs(pairs, active[hit], Photon.A, basis[hit], u[hit])


# Codeword announced by each device outcome, in device_outcomes() order.
_DECODED = np.array([decode(outcome)[1] for outcome in device_outcomes()])


def step5_decode_and_sift(
    pairs: PairBatch, transcript: Optional[Transcript], g: SeededGenerator
) -> np.ndarray:
    """Jointly measure every reunited pair; returns the indices of these
    surviving pairs."""
    survivors = np.flatnonzero(pairs.surviving)
    outcome = _sample(
        pairs.state[survivors], g.uniforms(len(survivors)), ALPHABET.device_cdf
    )
    pairs.decoded[survivors] = _DECODED[outcome]
    _post(
        transcript,
        "bob",
        MessageKind.POSITIONS,
        lambda: {"decoded_positions": tuple(survivors.tolist())},
    )
    return survivors


def _received(pairs: PairBatch, decoys: DecoyBatch, is_decoy: np.ndarray) -> tuple:
    """Slots of the mixed b sequence that arrived."""
    received = np.empty(len(is_decoy), dtype=bool)
    received[~is_decoy] = pairs.b_delivered
    received[is_decoy] = decoys.delivered
    return tuple(np.flatnonzero(received).tolist())


def _key_bits(codewords: np.ndarray) -> np.ndarray:
    """Three bits per codeword, most significant first, as ``uint8``."""
    shifts = np.array([2, 1, 0], dtype=np.uint8)
    return ((codewords.astype(np.uint8)[:, None] >> shifts) & 1).ravel()


def run_session(
    config: ProtocolConfig, transcript: Optional[Transcript] = None
) -> RunReport:
    """Run one full session and report the outcome.

    The report is a pure function of the configuration: identical configs
    (including the seed) give identical reports.  A failed or indeterminate
    security check aborts the session with empty keys.  The public
    messages are recorded only when a ``transcript`` is passed.
    """
    t = transcript
    # Each stream feeds one phase and is built only when that phase runs.
    stream = partial(SeededGenerator, config.seed)
    pairs = step1_prepare_and_encode(config, stream(_STREAM_ALICE))
    strategy = config.check_strategy
    if strategy.uses_decoy:
        is_decoy, decoys = insert_decoys(
            pairs, config.decoy_fraction, stream(_STREAM_DECOY)
        )
    else:  # the b sequence carries the pairs alone
        is_decoy = np.zeros(len(pairs), dtype=bool)
        decoys = _decoy_batch(*np.zeros((3, 0), dtype=np.int64))
    transmit_b(pairs, decoys, is_decoy, config.channel, stream(_STREAM_CHANNEL_B))
    _post(
        t,
        "bob",
        MessageKind.POSITIONS,
        lambda: {"received_b": _received(pairs, decoys, is_decoy)},
    )

    counts: dict[str, int] = {
        "pairs": config.n_pairs,
        "decoys": len(decoys),
        "decoys_lost": int(np.count_nonzero(~decoys.delivered)),
        "checked": 0,
        "lost": 0,
        "key_pairs": 0,
    }
    decoy_qber: Optional[float] = None
    wc_qber: Optional[float] = None
    aborted = False

    if strategy.uses_decoy:
        try:
            result = decoy_check(
                decoys, config.qber_threshold, t, stream(_STREAM_BOB_DECOY)
            )
            decoy_qber = result.qber
            counts.update(
                decoy_compared=result.compared,
                decoy_errors=result.errors,
                decoy_pol_errors=result.pol_errors,
                decoy_freq_errors=result.freq_errors,
                decoy_z_prepared_compared=result.z_prepared_compared,
                decoy_z_prepared_errors=result.z_prepared_errors,
                decoy_x_prepared_compared=result.x_prepared_compared,
                decoy_x_prepared_errors=result.x_prepared_errors,
            )
            aborted = not result.proceed
        except IndeterminateCheckError:
            aborted = True

    if strategy.uses_wc and not aborted:
        try:
            result = wc_check(
                pairs,
                config.check_sample_fraction,
                config.qber_threshold,
                t,
                stream(_STREAM_WC),
            )
            wc_qber = result.qber
            counts.update(
                checked=result.checked_count,
                wc_compared=result.compared,
                wc_errors=result.errors,
                wc_z_compared=result.z_compared,
                wc_z_errors=result.z_errors,
                wc_x_compared=result.x_compared,
                wc_x_errors=result.x_errors,
            )
            aborted = not result.proceed
        except IndeterminateCheckError:
            aborted = True

    if aborted:
        counts["lost"] = int(np.count_nonzero(~pairs.b_delivered))
        return RunReport(
            decoy_qber=decoy_qber,
            wc_qber=wc_qber,
            aborted=True,
            alice_key=b"",
            bob_key=b"",
            final_qber=0.0,
            counts=counts,
            config=config,
            seed=config.seed,
        )

    active = step4_encode_a(pairs)
    transmit_a(pairs, active, config.channel, stream(_STREAM_CHANNEL_A))
    survivors = step5_decode_and_sift(pairs, t, stream(_STREAM_DEVICE))
    alice_bits = _key_bits(pairs.codeword[survivors])
    bob_bits = _key_bits(pairs.decoded[survivors])
    mismatches = int(np.count_nonzero(alice_bits != bob_bits))
    final_qber = mismatches / len(alice_bits) if len(alice_bits) else 0.0
    counts["lost"] = int(
        np.count_nonzero(~(pairs.b_delivered & pairs.a_delivered) & ~pairs.checked)
    )
    counts["key_pairs"] = len(survivors)
    return RunReport(
        decoy_qber=decoy_qber,
        wc_qber=wc_qber,
        aborted=False,
        alice_key=alice_bits.tobytes(),
        bob_key=bob_bits.tobytes(),
        final_qber=final_qber,
        counts=counts,
        config=config,
        seed=config.seed,
    )
