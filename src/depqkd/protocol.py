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

Sessions run as a batch: :func:`run_sessions` runs several sessions that
differ only in their seeds together, and :func:`run_session` is the batch
of one.  :class:`PairBatch` and :class:`DecoyBatch` hold one array entry
per item, session after session, and pair states are ids into
:data:`ALPHABET`.  Each phase draws every session's blocks from that
session's own stream, in the same order and sizes as a session run alone,
and then works on all items of the batch at once, so no phase loops over
its items in Python.  Every stream is a counter-based Philox key, so a
session's draws do not depend on the sessions beside it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Optional, Sequence

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
    doubles,
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


# No array of a session holds more than 32 bytes per pair, so a session of
# at most this many pairs stays within numpy's largest array size.
_MAX_PAIRS = np.iinfo(np.intp).max // 32


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
        if self.n_pairs > _MAX_PAIRS:
            raise ConfigError(
                f"n_pairs must be at most {_MAX_PAIRS}, got {self.n_pairs}"
            )
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

# Per-item dtypes.  Every code (codeword, choice, operation, basis, outcome,
# decoy preparation and local state, decoded codeword, the -1 markers) is
# below 16; a pair state id is below 4096, so that every sampling key built
# from one, up to 8 * id + 7, fits _STATE too.  StateAlphabet.intern holds
# the bound.  Tables are read with ``take``: indexing with a narrow integer
# array costs numpy an extra cast to intp, two to six times the gather.
_CODE = np.int8
_STATE = np.int16
_MAX_STATE_ID = (np.iinfo(_STATE).max - 7) // 8


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


_DECOY_BASIS = np.array([_BASES.index(pol.basis) for pol in DecoyPol], dtype=_CODE)
_DECOY_COMP = np.array([pol.comp for pol in DecoyPol], dtype=_CODE)

# Operation indices of encoding_choices(codeword)[choice]: row 0 holds op_a
# and row 1 op_b, in column 2 * codeword + choice.
_CHOICE_OPS = np.array(
    [
        [_PAULIS.index(op) for op in pair]
        for codeword in range(8)
        for pair in encoding_choices(codeword)
    ],
    dtype=_CODE,
).T.copy()


def _unset(n: int) -> np.ndarray:
    return np.full(n, -1, dtype=_CODE)


def _streams(seeds: Sequence[int], stream: int) -> list[SeededGenerator]:
    """Stream ``stream`` of each session's seed, in session order."""
    return [SeededGenerator(seed, stream) for seed in seeds]


def _draw(
    gens: Sequence[SeededGenerator], sizes: Sequence[int], width: int = 1
) -> np.ndarray:
    """``sizes[s]`` rows of ``width`` words from each ``gens[s]``, in
    session order; a batch of one makes a single call and no copy.

    A word stands for the double ``u`` that :func:`~depqkd.quantum.doubles`
    makes of it.  :func:`_coins`, :func:`_basis_coins` and :func:`_randints`
    decide on the word as an integer, with the outcome ``u`` would give;
    only the draws an inverse cdf reads become doubles.
    """
    if len(gens) == 1:
        w = gens[0].words(sizes[0] * width)
    else:
        w = np.concatenate([g.words(m * width) for g, m in zip(gens, sizes)])
    return w.reshape(-1, width)


def _coins(
    gens: Sequence[SeededGenerator], sizes: Sequence[int], p: float
) -> np.ndarray:
    """A coin ``u < p`` per item, ``sizes[s]`` of them from each ``gens[s]``
    in session order.  A ``p`` of 0 or 1 decides every coin, so its words
    are skipped, not drawn."""
    if 0.0 < p < 1.0:
        # u < p holds for k = w >> 11 exactly when k < ceil(p * 2**53),
        # which is at most 2**53 - 1, so the shifted bound fits 64 bits
        return _draw(gens, sizes)[:, 0] < np.uint64(math.ceil(p * 2**53) << 11)
    for g, m in zip(gens, sizes):
        g.skip(m)
    return np.full(sum(sizes), p >= 1.0)


def _tally(mask: np.ndarray, sizes: Sequence[int]) -> list[int]:
    """True entries of ``mask`` in each session, for a ``mask`` holding
    ``sizes[s]`` entries of each session ``s`` in session order."""
    counts, start = [], 0
    for size in sizes:
        counts.append(int(np.count_nonzero(mask[start : start + size])))
        start += size
    return counts


def _sizes(pairs: PairBatch, idx: np.ndarray, count: int) -> list[int]:
    """How many of the sorted pair indices ``idx`` belong to each of the
    ``count`` sessions of ``pairs``."""
    n = len(pairs) // count
    inner = (bisect_left(idx, start) for start in range(n, len(pairs), n))
    bounds = [0, *inner, len(idx)]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@dataclass
class PairBatch:
    """Every pair of a batch of sessions as parallel arrays, one entry per
    pair.  Every session has the same number ``n`` of pairs, so pair ``i``
    belongs to session ``i // n``.

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

    def take(self, mask: np.ndarray) -> PairBatch:
        """The pairs where ``mask`` holds."""
        return PairBatch(*(getattr(self, f.name)[mask] for f in fields(self)))


@dataclass
class DecoyBatch:
    """Every check photon of a batch as parallel arrays, in slot order.

    ``pol`` indexes ``tuple(DecoyPol)``.  A photon's ``state`` is the local
    id ``4 * basis + k`` of row ``k`` of the ``tuple(PolBasis)[basis]``
    :data:`~depqkd.quantum.LOCAL_BASIS` table; the attacker resends such a
    row too.  Bases and outcomes of the attacker and the receiver use the
    same encoding as :class:`PairBatch`, with ``-1`` for none.
    """

    sizes: list[int]  # decoys of each session
    position: np.ndarray  # slot in the batch's mixed transmission sequence
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


def _decoy_batch(sizes, position, freq, pol) -> DecoyBatch:
    n = len(position)
    return DecoyBatch(
        sizes=sizes,
        position=position,
        freq=freq,
        pol=pol,
        state=4 * _DECOY_BASIS.take(pol) + 2 * _DECOY_COMP.take(pol) + freq,
        delivered=np.ones(n, dtype=bool),
        eve_basis=_unset(n),
        eve_outcome=_unset(n),
        bob_basis=_unset(n),
        bob_outcome=_unset(n),
    )


_PSI_PLUS = dep_basis(DepLabel.PSI_PLUS)


def _missing(keys: np.ndarray, entries: np.ndarray) -> list[int]:
    """The distinct keys whose entry is the -1 of a row not yet filled."""
    return np.flatnonzero(np.bincount(keys[entries < 0])).tolist()


def _grown(table: np.ndarray, rows: int, pad) -> np.ndarray:
    """``table`` with its last axis extended to ``rows`` entries of ``pad``."""
    out = np.full((*table.shape[:-1], rows), pad, dtype=table.dtype)
    out[..., : table.shape[-1]] = table
    return out


class _Transitions:
    """The state id reached from each sampling key, with -1 for a key not
    yet met; ``successor(key)`` computes an entry on its first miss."""

    def __init__(self, rows: int, successor: Callable[[int], int]) -> None:
        self.ids = np.full(rows, -1, dtype=_STATE)
        self.successor = successor

    def grow(self, rows: int) -> None:
        self.ids = _grown(self.ids, rows, -1)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        ids = self.ids.take(keys)
        if (ids < 0).any():
            for key in _missing(keys, ids):
                sid = self.successor(key)  # may grow self.ids
                self.ids[key] = sid
            ids = self.ids.take(keys)
        return ids


class _Cdfs:
    """The outcome distribution of each sampling key over ``length``
    outcomes, filled on its first miss from :func:`cumulative` of
    ``probabilities(key)``.

    A row keeps only the steps of its cdf, the entries above the one
    before: ``width`` of them (-1 for a row not yet filled), their values
    in the columns of ``step`` padded with ``+inf``, and in ``inc`` the
    distance from each step's index to the next one's, the last step
    counting to ``length - 1``.  ``first`` is the index of the first step,
    or ``length - 1`` for a row without one.
    """

    def __init__(
        self, length: int, rows: int, probabilities: Callable[[int], np.ndarray]
    ) -> None:
        self.length = length
        self.probabilities = probabilities
        self.width = np.full(rows, -1, dtype=_CODE)
        self.first = np.zeros(rows, dtype=_CODE)
        self.step = np.full((length, rows), np.inf)
        self.inc = np.zeros((length, rows), dtype=_CODE)
        self.total = np.zeros(rows)

    def grow(self, rows: int) -> None:
        self.width = _grown(self.width, rows, -1)
        self.first = _grown(self.first, rows, 0)
        self.step = _grown(self.step, rows, np.inf)
        self.inc = _grown(self.inc, rows, 0)
        self.total = _grown(self.total, rows, 0.0)

    def _fill(self, key: int) -> None:
        cdf = cumulative(self.probabilities(key))
        at = [i for i, (c, before) in enumerate(zip(cdf, (0.0, *cdf))) if c > before]
        last = self.length - 1
        self.first[key] = at[0] if at else last
        self.step[: len(at), key] = [cdf[i] for i in at]
        self.inc[: len(at), key] = [b - a for a, b in zip(at, [*at[1:], last])]
        self.total[key] = cdf[-1]
        self.width[key] = len(at)

    def fill(self, keys: np.ndarray) -> np.ndarray:
        """Fill the rows of ``keys`` not yet filled; returns their widths."""
        width = self.width.take(keys)
        if (width < 0).any():
            for key in _missing(keys, width):
                self._fill(key)
            width = self.width.take(keys)
        return width

    def sample(self, keys: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF index of each draw under the cdf of its key.

        Equals :func:`inverse_cdf` per key, the clamped ``searchsorted``
        index of ``x = u * total``: every entry before the first step is
        0, at most ``x``, and every other entry equals the step at or
        before it, so that index is the first step above ``x``, or
        ``length - 1`` when none is.  The steps rise strictly, so the
        increments of the steps at or below ``x`` add up to it.
        """
        if not len(keys):
            return np.zeros(0, dtype=_CODE)
        width = self.fill(keys)
        x = u * self.total.take(keys)
        k = self.first.take(keys)
        for c in range(width.max()):
            k += (self.step[c].take(keys) <= x) * self.inc[c].take(keys)
        return k


class StateAlphabet:
    """Every pair state the sessions reach, interned by exact amplitudes,
    with dense tables of what each state leads to.

    The tables are indexed by sampling key: ``prepared[op_b]``,
    ``encoded[4 * id + op_a]``, and per photon ``partial[photon][2 * id +
    basis]`` and ``collapsed[photon][4 * (2 * id + basis) + k]`` for
    outcome ``k``; ``device[id]``, ``wc[4 * id + 2 * basis_a + basis_b]``,
    and for a check photon with :class:`DecoyBatch` state id ``local_id``,
    ``local[2 * local_id + basis]``.  Bases index ``tuple(PolBasis)`` and
    operations ``tuple(Pauli)``.  Each entry is filled on first use by the
    scalar function the single-item samplers use, so a lookup gives the
    very floats a direct call would.  Entries depend only on the
    amplitudes, so one table serves every session.
    """

    def __init__(self) -> None:
        self.states: list[JointState] = []
        self._ids: dict[bytes, int] = {}
        self._capacity = 0  # ids the growing tables hold rows for
        at = self.states.__getitem__
        self.prepared = _Transitions(
            len(_PAULIS),
            lambda op: self.intern(apply_local(_PAULIS[op], Photon.B, _PSI_PLUS)),
        )
        self.encoded = _Transitions(
            0,
            lambda key: self.intern(
                apply_local(_PAULIS[key & 3], Photon.A, at(key >> 2))
            ),
        )
        self.collapsed = {
            photon: _Transitions(
                0,
                lambda key, photon=photon: self.intern(
                    partial_collapse(
                        at(key >> 3), photon, _BASES[(key >> 2) & 1], key & 3
                    )
                ),
            )
            for photon in Photon
        }
        self.partial = {
            photon: _Cdfs(
                4,
                0,
                lambda key, photon=photon: partial_probabilities(
                    at(key >> 1), photon, _BASES[key & 1]
                ),
            )
            for photon in Photon
        }
        self.device = _Cdfs(
            len(device_outcomes()), 0, lambda sid: device_probabilities(at(sid))
        )
        # A state the converters annihilate raises StateError on its fill.
        self.wc = _Cdfs(
            4,
            0,
            lambda key: _wc_probabilities(
                wavelength_convert_global(at(key >> 2)), (key >> 1) & 1, key & 1
            ),
        )
        self.local = _Cdfs(
            4,
            2 * 4 * len(_BASES),
            lambda key: local_probabilities(
                LocalState(LOCAL_BASIS[_BASES[key >> 3]][(key >> 1) & 3]),
                _BASES[key & 1],
            ),
        )
        self._growing = {
            self.encoded: 4,
            **{table: 8 for table in self.collapsed.values()},
            **{table: 2 for table in self.partial.values()},
            self.device: 1,
            self.wc: 4,
        }  # rows per id of each table that grows with the alphabet

    def __len__(self) -> int:
        return len(self.states)

    def intern(self, state: JointState) -> int:
        key = state.vec.tobytes()
        sid = self._ids.get(key)
        if sid is None:
            if len(self.states) > _MAX_STATE_ID:
                raise OverflowError(
                    f"more than {_MAX_STATE_ID + 1} pair states: a sampling key "
                    f"built from a state id would overflow {np.dtype(_STATE)}"
                )
            if len(self.states) == self._capacity:
                self._capacity = min(max(2 * self._capacity, 16), _MAX_STATE_ID + 1)
                for table, per_id in self._growing.items():
                    table.grow(per_id * self._capacity)
            sid = self._ids[key] = len(self.states)
            self.states.append(state)
        return sid


#: The state table shared by every session of the process.
ALPHABET = StateAlphabet()


def _randints(w: np.ndarray, n: int) -> np.ndarray:
    """:meth:`SeededGenerator.randint` ``(n)`` of each word's double, for
    ``n`` a power of two from 2: ``floor(u * n)`` is the word's top
    ``log2 n`` bits."""
    bits = n.bit_length() - 1
    if n < 2 or n != 1 << bits:
        raise ValueError(f"_randints needs a power of two from 2, got {n}")
    return (w >> (64 - bits)).astype(_CODE)


_TOP_BIT = np.uint64(1 << 63)


def _basis_coins(w: np.ndarray) -> np.ndarray:
    """Basis index of each fair coin, the word's top bit ``w >> 63``: H/V
    on heads (``u < 0.5``).  The top bit is tested as ``w >= 2**63``,
    whose bools are read as their 0/1 bytes with no cast."""
    return (w >= _TOP_BIT).view(_CODE)


def _channel(
    sizes: Sequence[int],
    channel: ChannelConfig,
    photon: Photon,
    gens: Sequence[SeededGenerator],
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Send ``sizes[s]`` photons of each session ``s`` through the channel.

    Each session's stream gives one block of its loss coins, then, when
    the attacker covers this transmission, one block with a row per
    delivered photon in slot order: the attacker's basis coin (random
    policy only) and its measurement draw.  Returns the delivery mask and,
    for an attacked transmission, the attacker's basis and measurement
    draw per delivered photon.
    """
    delivered = ~_coins(gens, sizes, channel.loss_probability)
    eve = channel.eve
    if eve is None or not eve.target.covers(photon):
        return delivered, None, None
    m = _tally(delivered, sizes)
    if eve.strategy is EveStrategy.RANDOM_ZX:
        w = _draw(gens, m, 2)
        return delivered, _basis_coins(w[:, 0]), doubles(w[:, 1])
    fixed = PolBasis.Z if eve.strategy is EveStrategy.Z else PolBasis.X
    u = doubles(_draw(gens, m)[:, 0])
    return delivered, np.full(len(u), _BASES.index(fixed), dtype=_CODE), u


def _intercept_pairs(
    pairs: PairBatch, idx: np.ndarray, photon: Photon, basis: np.ndarray, u: np.ndarray
) -> None:
    """Measure one photon of each pair ``idx`` and resend the eigenstate."""
    keys = 2 * pairs.state[idx] + basis
    k = ALPHABET.partial[photon].sample(keys, u)
    pairs.state[idx] = ALPHABET.collapsed[photon](4 * keys + k)
    if photon is Photon.B:
        pairs.eve_b_basis[idx], pairs.eve_b_outcome[idx] = basis, k
    else:
        pairs.eve_a_basis[idx], pairs.eve_a_outcome[idx] = basis, k


def step1_prepare_and_encode(n: int, gens: Sequence[SeededGenerator]) -> PairBatch:
    """Draw a codeword for each of the ``n`` pairs of every session, pick
    one of its two operation pairs, and apply the photon-b operation to a
    fresh PSI+ pair."""
    w = _draw(gens, [n] * len(gens), 2)
    size = len(w)
    codeword = _randints(w[:, 0], 8)
    choice = _randints(w[:, 1], 2)
    op_a, op_b = _CHOICE_OPS.take(2 * codeword + choice, axis=1)
    return PairBatch(
        codeword=codeword,
        choice=choice,
        op_a=op_a,
        op_b=op_b,
        state=ALPHABET.prepared(op_b),
        b_delivered=np.ones(size, dtype=bool),
        a_delivered=np.ones(size, dtype=bool),
        checked=np.zeros(size, dtype=bool),
        eve_b_basis=_unset(size),
        eve_b_outcome=_unset(size),
        eve_a_basis=_unset(size),
        eve_a_outcome=_unset(size),
        decoded=_unset(size),
    )


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` smallest keys, equal keys taken in index order:
    the first ``count`` entries of a stable argsort, found in linear time."""
    cut = np.partition(keys, count - 1)[count - 1]
    mask = keys < cut
    mask[np.flatnonzero(keys == cut)[: count - np.count_nonzero(mask)]] = True
    return mask


def insert_decoys(
    pairs: PairBatch, decoy_fraction: float, gens: Sequence[SeededGenerator]
) -> tuple[np.ndarray, DecoyBatch]:
    """Mix single-photon check states into each session's b sequence.

    A session's decoy count is binomial with mean ``decoy_fraction * n``;
    positions are uniform among its mixed slots and preparations are
    uniform over the eight (frequency bin, polarization) combinations.
    Positions and preparations stay secret until the check.  Returns the
    mask of decoy slots in the batch's mixed sequence, session after
    session, whose other slots carry the pairs in order, and the decoys.
    """
    t = len(gens)
    n = len(pairs) // t
    count = _tally(_coins(gens, [n] * t, decoy_fraction), [n] * t)
    # The slots of the ``count`` smallest of ``n + count`` uniform keys hold
    # a session's decoys; a session without decoys draws no keys.  A key is
    # a word's top 53 bits, which order and tie like its double.
    is_decoy = np.concatenate(
        [
            _smallest(g.words(n + c) >> 11, c) if c else np.zeros(n, dtype=bool)
            for g, c in zip(gens, count)
        ]
    )
    w = _draw(gens, count, 2)
    decoys = _decoy_batch(
        count,
        np.flatnonzero(is_decoy),
        _randints(w[:, 0], 2),
        _randints(w[:, 1], 4),
    )
    return is_decoy, decoys


def transmit_b(
    pairs: PairBatch,
    decoys: DecoyBatch,
    is_decoy: np.ndarray,
    channel: ChannelConfig,
    gens: Sequence[SeededGenerator],
) -> None:
    """Send the mixed b sequence through the channel, updating both batches.

    Loss is decided first; the attacker only touches delivered photons and
    cannot tell pair photons from check photons.
    """
    t = len(gens)
    sizes = [len(pairs) // t + c for c in decoys.sizes]
    delivered, basis, u = _channel(sizes, channel, Photon.B, gens)
    pair_slots = np.flatnonzero(~is_decoy)
    pairs.b_delivered[:] = delivered[pair_slots]
    decoys.delivered[:] = delivered[decoys.position]
    if basis is None:
        return
    # The attack-draw row of each delivered slot: the draws come one row
    # per delivered photon, in slot order.
    row = np.cumsum(delivered) - 1
    hit = np.flatnonzero(pairs.b_delivered)
    rows = row[pair_slots[hit]]
    _intercept_pairs(pairs, hit, Photon.B, basis[rows], u[rows])
    hit = np.flatnonzero(decoys.delivered)
    rows = row[decoys.position[hit]]
    basis, u = basis[rows], u[rows]
    k = ALPHABET.local.sample(2 * decoys.state[hit] + basis, u)
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


# Announced abort reason of a check that compared nothing.
_INDETERMINATE = {"decoy": "no matched decoys", "wc": "no matched pair comparisons"}


def _conclude(
    check: str,
    compared: int,
    errors: int,
    qber_threshold: float,
    transcript: Optional[Transcript],
) -> Optional[tuple[float, bool]]:
    """Error rate and verdict of a check, announced; ``None`` when nothing
    was compared, which leaves the check indeterminate."""
    if compared == 0:
        reason = _INDETERMINATE[check]
        _post(transcript, "alice", MessageKind.ABORT, lambda: {"reason": reason})
        return None
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


def _verdicts(
    result: type,
    check: str,
    sizes: Sequence[int],
    qber_threshold: float,
    transcript: Optional[Transcript],
    **masks: np.ndarray,
) -> list:
    """Each session's ``result``, built from its count of true entries of
    each mask over its ``sizes[s]`` items, or ``None`` for a session whose
    check compared nothing."""
    verdicts, start = [], 0
    for size in sizes:
        tally = {
            key: int(np.count_nonzero(mask[start : start + size]))
            for key, mask in masks.items()
        }
        start += size
        verdict = _conclude(
            check, tally["compared"], tally["errors"], qber_threshold, transcript
        )
        verdicts.append(verdict and result(*verdict, **tally))
    return verdicts


def decoy_check(
    decoys: DecoyBatch,
    qber_threshold: float,
    transcript: Optional[Transcript],
    gens: Sequence[SeededGenerator],
) -> list[Optional[DecoyCheckResult]]:
    """Compare delivered check photons measured in matched bases.

    The receiver measures every delivered decoy in a uniformly random
    basis; comparisons count only where that basis matches the
    preparation.  A polarization flip or a frequency-bin mismatch both
    count as errors.  Returns each session's result, ``None`` for a
    session where nothing could be compared.
    """
    t = transcript
    _post(
        t,
        "alice",
        MessageKind.POSITIONS,
        lambda: {"decoy_positions": tuple(decoys.position.tolist())},
    )
    idx = np.flatnonzero(decoys.delivered)
    sizes = _tally(decoys.delivered, decoys.sizes)
    w = _draw(gens, sizes, 2)
    basis = _basis_coins(w[:, 0])
    k = ALPHABET.local.sample(2 * decoys.state[idx] + basis, doubles(w[:, 1]))
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
    prepared = _DECOY_BASIS.take(pol)
    matched = basis == prepared
    pol_bad = matched & ((k >> 1) != _DECOY_COMP.take(pol))
    freq_bad = matched & ((k & 1) != decoys.freq[idx])
    bad = pol_bad | freq_bad
    z = prepared == _BASES.index(PolBasis.Z)
    return _verdicts(
        DecoyCheckResult,
        "decoy",
        sizes,
        qber_threshold,
        t,
        compared=matched,
        errors=bad,
        pol_errors=pol_bad,
        freq_errors=freq_bad,
        z_prepared_compared=matched & z,
        z_prepared_errors=bad & z,
        x_prepared_compared=matched & ~z,
        x_prepared_errors=bad & ~z,
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


# Expected agreement of photon-b operation op in matched basis, at 2 * op + basis.
_EXPECTED_AGREE = np.array(
    [
        _expected_correlation(encoding_to_label(EncodingPair(Pauli.I, op)), basis)
        for op in _PAULIS
        for basis in _BASES
    ]
)


def wc_check(
    pairs: PairBatch,
    sample_fraction: float,
    qber_threshold: float,
    transcript: Optional[Transcript],
    gens: Sequence[SeededGenerator],
) -> list[Optional[WcCheckResult]]:
    """Convert and measure a random sample of stored pairs.

    Both parties wavelength-convert their photon of each sampled pair and
    measure it in an independently random basis; matched-basis outcomes
    are compared against the correlation the first encoding step dictates.
    Checked pairs are consumed and never contribute key bits.  Returns
    each session's result, ``None`` for a session where no matched
    comparison happened.
    """
    t = transcript
    eligible = np.flatnonzero(pairs.b_delivered & ~pairs.checked)
    sizes = _sizes(pairs, eligible, len(gens))
    sampling = _coins(gens, sizes, sample_fraction)
    sampled = eligible[sampling]
    _post(
        t,
        "bob",
        MessageKind.POSITIONS,
        lambda: {"wc_positions": tuple(sampled.tolist())},
    )
    pairs.checked[sampled] = True
    ids = pairs.state[sampled]
    ALPHABET.wc.fill(4 * ids)  # a state the converters annihilate raises here
    sizes = _tally(sampling, sizes)
    w = _draw(gens, sizes, 3)
    basis_a = _basis_coins(w[:, 0])
    basis_b = _basis_coins(w[:, 1])
    k = ALPHABET.wc.sample(4 * ids + 2 * basis_a + basis_b, doubles(w[:, 2]))
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
    agree = (k >> 1) == (k & 1)
    bad = matched & (agree != _EXPECTED_AGREE.take(2 * pairs.op_b[sampled] + basis_a))
    z = basis_a == _BASES.index(PolBasis.Z)
    return _verdicts(
        WcCheckResult,
        "wc",
        sizes,
        qber_threshold,
        t,
        compared=matched,
        errors=bad,
        z_compared=matched & z,
        z_errors=bad & z,
        x_compared=matched & ~z,
        x_errors=bad & ~z,
        checked_count=np.ones(len(sampled), dtype=bool),
    )


def step4_encode_a(pairs: PairBatch) -> np.ndarray:
    """Apply the photon-a operation, completing each stored codeword;
    returns the indices of those active pairs."""
    active = np.flatnonzero(pairs.b_delivered & ~pairs.checked)
    pairs.state[active] = ALPHABET.encoded(
        4 * pairs.state[active] + pairs.op_a[active]
    )
    return active


def transmit_a(
    pairs: PairBatch,
    active: np.ndarray,
    channel: ChannelConfig,
    gens: Sequence[SeededGenerator],
) -> None:
    """Send the photons a of the active pairs through the channel."""
    sizes = _sizes(pairs, active, len(gens))
    delivered, basis, u = _channel(sizes, channel, Photon.A, gens)
    pairs.a_delivered[active] = delivered
    if basis is not None:
        _intercept_pairs(pairs, active[delivered], Photon.A, basis, u)


# Codeword announced by each device outcome, in device_outcomes() order.
_DECODED = np.array([decode(outcome)[1] for outcome in device_outcomes()], dtype=_CODE)


def step5_decode_and_sift(
    pairs: PairBatch,
    transcript: Optional[Transcript],
    gens: Sequence[SeededGenerator],
) -> np.ndarray:
    """Jointly measure every reunited pair; returns the indices of these
    surviving pairs."""
    survivors = np.flatnonzero(pairs.surviving)
    sizes = _sizes(pairs, survivors, len(gens))
    u = doubles(_draw(gens, sizes)[:, 0])
    outcome = ALPHABET.device.sample(pairs.state[survivors], u)
    pairs.decoded[survivors] = _DECODED.take(outcome)
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
    bits = np.empty((len(codewords), 3), dtype=np.uint8)
    for column, shift in enumerate((2, 1, 0)):
        bits[:, column] = (codewords >> shift) & 1
    return bits.ravel()


def run_sessions(
    configs: Sequence[ProtocolConfig], transcript: Optional[Transcript] = None
) -> list[RunReport]:
    """Run sessions whose configs differ only in the seed as one batch.

    Each report is a pure function of its own config: identical configs
    (including the seed) give identical reports, whichever sessions run
    beside them.  A failed or indeterminate security check aborts its
    session with empty keys, and the session's pairs drop out of the batch.
    The public messages are recorded only when a ``transcript`` is passed,
    which only a batch of one accepts.
    """
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("the sessions of a batch may differ only in their seeds")
    if transcript is not None and len(configs) > 1:
        raise ValueError("a transcript records a batch of one session")
    t, n, count = transcript, config.n_pairs, len(configs)
    seeds = [c.seed for c in configs]
    # Each stream feeds one phase and is built only for the sessions that
    # reach that phase.
    pairs = step1_prepare_and_encode(n, _streams(seeds, _STREAM_ALICE))
    strategy = config.check_strategy
    if strategy.uses_decoy:
        is_decoy, decoys = insert_decoys(
            pairs, config.decoy_fraction, _streams(seeds, _STREAM_DECOY)
        )
    else:  # the b sequences carry the pairs alone
        is_decoy = np.zeros(len(pairs), dtype=bool)
        decoys = _decoy_batch(
            [0] * count, np.zeros(0, dtype=np.intp), *np.zeros((2, 0), dtype=_CODE)
        )
    transmit_b(
        pairs, decoys, is_decoy, config.channel, _streams(seeds, _STREAM_CHANNEL_B)
    )
    _post(
        t,
        "bob",
        MessageKind.POSITIONS,
        lambda: {"received_b": _received(pairs, decoys, is_decoy)},
    )

    counts = [
        dict(pairs=n, decoys=d, decoys_lost=lost, checked=0, lost=0, key_pairs=0)
        for d, lost in zip(decoys.sizes, _tally(~decoys.delivered, decoys.sizes))
    ]
    qbers = [{"decoy_qber": None, "wc_qber": None} for _ in configs]
    lost_b = _tally(~pairs.b_delivered, [n] * count)
    live = np.arange(count)  # the sessions still in the batch, in order

    def conclude(check: str, results: list) -> None:
        """Record each live session's check, and drop the aborted ones."""
        nonlocal live, pairs
        proceed = np.array([r is not None and r.proceed for r in results], dtype=bool)
        for s, result, kept in zip(live.tolist(), results, proceed.tolist()):
            if result is not None:
                qbers[s][f"{check}_qber"] = result.qber
                for f in fields(result)[2:]:  # the counts after qber and proceed
                    key = "checked" if f.name == "checked_count" else f"{check}_{f.name}"
                    counts[s][key] = getattr(result, f.name)
            if not kept:
                counts[s]["lost"] = lost_b[s]
        if not proceed.all():
            live, pairs = live[proceed], pairs.take(np.repeat(proceed, n))

    def live_streams(stream: int) -> list[SeededGenerator]:
        return _streams([seeds[s] for s in live.tolist()], stream)

    if strategy.uses_decoy:
        conclude(
            "decoy",
            decoy_check(
                decoys, config.qber_threshold, t, live_streams(_STREAM_BOB_DECOY)
            ),
        )
    if strategy.uses_wc and len(live):
        conclude(
            "wc",
            wc_check(
                pairs,
                config.check_sample_fraction,
                config.qber_threshold,
                t,
                live_streams(_STREAM_WC),
            ),
        )

    keys = {}  # the key bits of each session that kept its key
    if len(live):
        active = step4_encode_a(pairs)
        transmit_a(pairs, active, config.channel, live_streams(_STREAM_CHANNEL_A))
        survivors = step5_decode_and_sift(pairs, t, live_streams(_STREAM_DEVICE))
        alice_bits = _key_bits(pairs.codeword[survivors])
        bob_bits = _key_bits(pairs.decoded[survivors])
        lost = ~(pairs.b_delivered & pairs.a_delivered) & ~pairs.checked
        end = 0
        for s, kept, lost_s in zip(
            live.tolist(),
            _sizes(pairs, survivors, len(live)),
            _tally(lost, [n] * len(live)),
        ):
            start, end = end, end + 3 * kept
            keys[s] = alice_bits[start:end], bob_bits[start:end]
            counts[s].update(lost=lost_s, key_pairs=kept)
    reports = []
    for s, config in enumerate(configs):
        alice, bob = keys.get(s, (np.zeros(0, dtype=np.uint8),) * 2)
        mismatches = int(np.count_nonzero(alice != bob))
        reports.append(
            RunReport(
                **qbers[s],
                aborted=s not in keys,
                alice_key=alice.tobytes(),
                bob_key=bob.tobytes(),
                final_qber=mismatches / len(alice) if len(alice) else 0.0,
                counts=counts[s],
                config=config,
                seed=config.seed,
            )
        )
    return reports


def run_session(
    config: ProtocolConfig, transcript: Optional[Transcript] = None
) -> RunReport:
    """Run one full session and report the outcome: the batch of one of
    :func:`run_sessions`."""
    return run_sessions([config], transcript)[0]
