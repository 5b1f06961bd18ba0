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
That holds for the measure-and-resend attackers simulated here: one that
stores every photon b and substitutes its own would read whole codewords.

A session's settings are one flat :class:`ProtocolConfig`, whose fields
are also the command line's settings and the keys of a report's
``config`` echo; the attacker's settings (:class:`EveStrategy`,
:class:`EveTarget`) and :class:`ConfigError` are defined beside it.
:func:`run_sessions` runs any sessions as one batch, each with all of its
own settings, and :func:`run_session` is the batch of one.
:class:`PairBatch` and :class:`DecoyBatch` hold one array entry per item,
session after session.  Pair states are ids into
:data:`depqkd.alphabet.ALPHABET`, and every transition, outcome and code
a phase reads is a lookup in that module's tables.  Each phase takes one
:class:`~depqkd.quantum.BatchStream` for its stream index, which holds
every session's seed and position, and draws the blocks of every session
that runs it from that session's own stream, in the same order and sizes
as the session run alone; it then works on all items of the batch at
once, so no phase loops over its items in Python.  Every stream is a
counter-based Philox key, so a session's draws do not depend on the
sessions beside it.  A session that a check aborts stays in the batch,
but has no stream in the later phases' objects, so none of them draws
for it or touches its pairs.  A batch without check photons skips their
slot routing, and a transmission that loses nothing routes nothing: an
index list that holds every entry of its mask is the full slice
:data:`_EVERY` (:func:`_indices`), so a lossless batch reads its pairs
and check photons through views instead of gathers and scatters.
:func:`transmit_a` returns the pairs whose photon a arrived, which
:func:`step5_decode_and_sift` measures as given.  A joint measurement
whose codeword the state decides draws no word: a session whose every
arrival is in a state the device tells apart with certainty, as every
pair no attacker touched is, skips its block of device words and reads
its codewords off ``ALPHABET.decided``.  The checks return per-session
tallies, and :func:`run_sessions` judges each session against its own
threshold.  No phase writes the public channel's messages: the checks
keep the bases they drew on the batches, and :func:`_record` reads a
session's transcript off its finished batch of one and its report.

:func:`run_sessions` runs the phases in the order of what they read, not
in the protocol's.  The decoy check reads only the check photons, and
they need only each session's pair count, so decoy insertion, the first
transmission and the decoy check run before any pair is prepared.  Only
the sessions the decoy check lets through then prepare and encode their
pairs and have the attacker's measurement of their photons b applied; the
pairs of a session it aborts keep the code ``-1``, never prepared.  Each
phase draws from its own stream, so every report, every transcript and
every draw of the other streams is the one protocol order gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate, groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .alphabet import ALPHABET, BASES, CODE, STATE, sample
from .quantum import BatchStream, Photon, PolBasis


class ConfigError(ValueError):
    """Raised for out-of-range or contradictory configuration values."""


class CheckStrategy(Enum):
    """Which security checks a session runs before the second transmission."""

    DECOY = "decoy"
    WAVELENGTH_CONVERTER = "wc"
    BOTH = "both"

    def __init__(self, value: str) -> None:  # attributes, read once per session
        self.uses_decoy = value != "wc"
        self.uses_wc = value != "decoy"


class EveStrategy(Enum):
    """Basis policy of the intercept-resend eavesdropper."""

    Z = "ir-z"
    X = "ir-x"
    RANDOM_ZX = "ir-random"

    def __init__(self, value: str) -> None:
        #: the basis of every measurement, or None for a fair coin per photon
        self.basis = None if value == "ir-random" else PolBasis(value[-1].upper())


class EveTarget(Enum):
    """Which transmissions the eavesdropper intercepts."""

    B = "b"
    A = "a"
    BOTH = "both"

    def __init__(self, value: str) -> None:
        #: the photons whose transmissions are intercepted
        self.photons = tuple(p for p in Photon if value in (p.value, "both"))


# No array of a session holds more than 32 bytes per pair, so a session of
# at most this many pairs stays within numpy's largest array size.
_MAX_PAIRS = np.iinfo(np.intp).max // 32


def _setting(default: object, help: str):
    """A field of :class:`ProtocolConfig`: its default and its help."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class ProtocolConfig:
    """Every setting of a session; identical configs replay identically.

    The fields are the settings of the command line and of its config
    files, by the same names and in the order of a report's ``config``
    echo.  Each field's metadata holds its help, and the enum types hold
    the choices.  An ``eve`` of ``None`` is no attacker, and its
    ``eve_targets`` is then always ``EveTarget.B``.  A bad field raises
    :class:`ConfigError`, the first one in field order; a bool is not a
    number here.  A float ``-0.0`` is kept as ``0.0``.
    """

    pairs: int = _setting(1000, "entangled pairs per trial")
    seed: int = _setting(0, "64-bit master seed")
    decoy_fraction: float = _setting(0.1, "mean check photons inserted per pair")
    check: CheckStrategy = _setting(CheckStrategy.DECOY, "security check strategy")
    sample_fraction: float = _setting(
        0.1, "fraction of stored pairs consumed by the converter check"
    )
    threshold: float = _setting(0.05, "abort threshold on check error rates")
    loss: float = _setting(0.0, "per-photon loss probability")
    eve: Optional[EveStrategy] = _setting(
        None, "intercept-resend attacker basis policy"
    )
    eve_targets: EveTarget = _setting(
        EveTarget.B, "which transmissions the attacker intercepts"
    )

    def __post_init__(self) -> None:
        if type(n := self.pairs) is not int:
            raise ConfigError(f"pairs must be an int, got {n!r}")
        if n < 1:
            raise ConfigError(f"pairs must be positive, got {n}")
        if n > _MAX_PAIRS:
            raise ConfigError(f"pairs must be at most {_MAX_PAIRS}, got {n}")
        if type(seed := self.seed) is not int or not 0 <= seed < 1 << 64:
            raise ConfigError(f"seed must be an int in [0, 2**64), got {seed!r}")
        _check_unit("decoy_fraction", self.decoy_fraction, "[0, 1)")
        if not isinstance(self.check, CheckStrategy):
            raise ConfigError(f"check must be a CheckStrategy, got {self.check!r}")
        _check_unit("sample_fraction", self.sample_fraction, "(0, 1]")
        _check_unit("threshold", self.threshold, "(0, 1)")
        _check_unit("loss", self.loss, "[0, 1]")
        if self.eve is not None and not isinstance(self.eve, EveStrategy):
            raise ConfigError(f"eve must be an EveStrategy or None, got {self.eve!r}")
        if not isinstance(targets := self.eve_targets, EveTarget):
            raise ConfigError(f"eve_targets must be an EveTarget, got {targets!r}")
        if self.eve is None:  # one value, so that the echo does not depend on it
            object.__setattr__(self, "eve_targets", EveTarget.B)
        for name in ("decoy_fraction", "loss"):  # the ranges that hold zero
            if (x := getattr(self, name)) == 0 and isinstance(x, float):
                object.__setattr__(self, name, 0.0)  # a -0.0 echoes as 0.0

    def to_dict(self) -> dict:
        """JSON-ready echo of the effective configuration: every field by
        name, an enum by its value and no attacker as ``"none"``."""
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)}


def _check_unit(name: str, x: object, interval: str) -> None:
    """Refuse ``x`` unless it is an int or float in ``interval``, a range
    within [0, 1] whose square brackets include their ends; NaN is in none."""
    if not (isinstance(x, float) or type(x) is int):
        raise ConfigError(f"{name} must be a real number, got {x!r}")
    above = 0.0 <= x if interval[0] == "[" else 0.0 < x
    below = x <= 1.0 if interval[-1] == "]" else x < 1.0
    if not (above and below):
        raise ConfigError(f"{name} must lie in {interval}, got {x}")


def _echo(value: object) -> object:
    if value is None:
        return "none"
    return value.value if isinstance(value, Enum) else value


class MessageKind(Enum):
    POSITIONS = "positions"
    BASIS_DECLARATION = "basis-declaration"
    OUTCOME_COMPARISON = "outcome-comparison"
    ABORT = "abort"
    PROCEED = "proceed"


class Message(NamedTuple):
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

_BASIS_NAMES = np.array([basis.value for basis in BASES], dtype=object)

# A large batch allocates and frees about 1 MB of temporaries (word blocks,
# intp index arrays).  By default glibc returns a freed heap top above its
# trim threshold to the kernel, so every later batch faults the same pages
# in again.  Freeing one mmapped block larger than the
# mmap threshold and at most 32 MiB raises that threshold to the block's
# size and the trim threshold to twice it (mallopt(3), dynamic mmap
# threshold), so per-batch arrays under 8 MiB come from a heap that stays
# resident between batches.  The block is never written, so it adds no
# resident memory.  A 32 MiB block is over the cap and changes nothing; a
# 4 MiB block works as well.  Under another allocator this is one mmap and
# one munmap.
_RESIDENT_HEAP_BYTES = 8 << 20
np.empty(_RESIDENT_HEAP_BYTES, dtype=np.uint8)


def _unset(n: int) -> np.ndarray:
    return np.full(n, -1, dtype=CODE)


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _draw(
    streams: BatchStream,
    sizes: Sequence[int],
    width: int,
    sessions: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """``sizes[i]`` rows of ``width`` words from the stream of each session
    ``sessions[i]`` (by default ``i``) in ``streams``, in that order, drawn
    by one :meth:`~depqkd.quantum.BatchStream.words` call; a session
    without the stream has no rows and draws nothing, so a run of such
    sessions gives an empty block, and a lone block is not copied.

    A word stands for the double ``u`` that :func:`~depqkd.quantum.doubles`
    makes of it.  :func:`_coins`, :func:`_basis_coins` and :func:`_randints`
    decide on the word as an integer, with the outcome ``u`` would give;
    :func:`~depqkd.alphabet.sample` reads its top 4 bits, ``floor(16 * u)``.
    """
    if sessions is None:
        sessions = range(len(sizes))
    return streams.words(sessions, [m * width for m in sizes]).reshape(-1, width)


def _coins(
    streams: BatchStream, sizes: Sequence[int], p: Sequence[float]
) -> np.ndarray:
    """A coin ``u < p[s]`` per item, ``sizes[s]`` of them from the stream
    of each session ``s`` in ``streams``, in session order.  Each run of
    consecutive sessions with an equal ``p`` is drawn as one block, except
    that a ``p`` of 0 or 1 decides every coin of its run, whose words are
    skipped, not drawn.  A session without the stream gets false coins and
    draws and skips nothing; its run is keyed ``None``, which no
    probability equals (``False`` would equal a ``p`` of 0)."""
    positions = streams.positions
    blocks = []
    for q, run in groupby(
        zip(range(len(sizes)), sizes, p),
        key=lambda item: None if positions[item[0]] is None else item[2],
    ):
        sessions, run_sizes, _ = zip(*run)
        if q is None:
            blocks.append(np.zeros(sum(run_sizes), dtype=bool))
        elif 0.0 < q < 1.0:
            # u < q holds for k = w >> 11 exactly when k < ceil(q * 2**53),
            # which is at most 2**53 - 1, so the shifted bound fits 64 bits
            bound = np.uint64(math.ceil(q * 2**53) << 11)
            blocks.append(streams.words(sessions, run_sizes) < bound)
        else:
            streams.skip(sessions, run_sizes)
            blocks.append(np.full(sum(run_sizes), q >= 1.0))
    return _joined(blocks)


def _tally(mask: np.ndarray, sizes: Sequence[int]) -> list[int]:
    """True entries of ``mask`` in each session, for a ``mask`` holding
    ``sizes[s]`` entries of each session ``s`` in session order.  A mask
    without a true entry, such as the decoy coins or the lost check photons
    of a batch that has none, is counted once, not session by session."""
    if not np.count_nonzero(mask):
        return [0] * len(sizes)
    counts, start = [], 0
    for size in sizes:
        counts.append(int(np.count_nonzero(mask[start : start + size])))
        start += size
    return counts


#: Every entry of a batch's array, as an index that reads a view.
_EVERY = slice(None)


def _indices(mask: np.ndarray) -> slice | np.ndarray:
    """The indices of the true entries of ``mask``: :data:`_EVERY` when
    every entry holds, an empty mask included, else ``np.flatnonzero(mask)``.
    The full slice reads a view, not a copy, and indexes with ``[]``, since
    ``take`` needs an index array."""
    return _EVERY if np.count_nonzero(mask) == len(mask) else np.flatnonzero(mask)


def _sizes(offsets: np.ndarray, idx: np.ndarray) -> list[int]:
    """How many of the sorted item indices ``idx`` belong to each session,
    for sessions whose first items are ``offsets[:-1]`` and whose batch
    ends at ``offsets[-1]``: the differences between the positions where
    those offsets would sort into ``idx``."""
    bounds = idx.searchsorted(offsets)
    return (bounds[1:] - bounds[:-1]).tolist()


class PairBatch:
    """Every pair of a batch of sessions as parallel arrays, one entry per
    pair, session after session.  Session ``s`` has ``sizes[s]`` pairs,
    from index ``offsets[s]`` up to ``offsets[s + 1]``.  ``PairBatch(sizes)``
    allocates every array once, for pairs not yet prepared, sent or
    measured: every photon delivered and none checked.

    ``state`` holds ids into :data:`~depqkd.alphabet.ALPHABET`; ``op_a`` and
    ``op_b`` index ``tuple(Pauli)``.  ``eve_b`` and ``eve_a`` hold what the
    attacker observed of each pair's photon b and photon a, as the local
    id ``4 * basis + k`` of row ``k`` of the ``tuple(PolBasis)[basis]``
    :data:`~depqkd.quantum.LOCAL_BASIS` table.  ``-1`` marks a pair that
    was never prepared (its codeword, operations and state), a photon the
    attacker did not measure and a pair the receiver never decoded.
    ``wc_basis_a`` and ``wc_basis_b`` are set by :func:`wc_check`: each
    party's basis, indexing ``tuple(PolBasis)``, for each checked pair in
    index order, and empty before.
    """

    def __init__(self, sizes: list[int]) -> None:
        self.sizes = sizes
        self.offsets = np.array([0, *accumulate(sizes)])
        size = int(self.offsets[-1])
        self.codeword, self.op_a, self.op_b = _unset(size), _unset(size), _unset(size)
        self.state = np.full(size, -1, dtype=STATE)
        self.b_delivered = np.ones(size, dtype=bool)
        self.a_delivered = np.ones(size, dtype=bool)
        self.checked = np.zeros(size, dtype=bool)
        self.eve_b, self.eve_a = _unset(size), _unset(size)
        self.decoded = _unset(size)
        self.wc_basis_a = self.wc_basis_b = _unset(0)

    def of(self, sessions: Sequence[bool]) -> slice | np.ndarray:
        """The pairs of the sessions ``s`` where ``sessions[s]`` holds: a
        mask over the batch, or every pair as a full slice."""
        return _EVERY if all(sessions) else np.repeat(sessions, self.sizes)


class DecoyBatch:
    """Every check photon of a batch as parallel arrays, in slot order.

    ``prepared`` and ``state`` hold local ids ``4 * basis + k``: row ``k``
    of the ``tuple(PolBasis)[basis]`` :data:`~depqkd.quantum.LOCAL_BASIS`
    table, whose polarization ``k >> 1`` is 0 for H or +45 degrees and 1
    for V or -45 degrees and whose frequency bin is ``k & 1``.
    ``prepared`` is each photon's preparation; ``state`` starts as a copy
    of it and becomes the row the attacker resends.  Every photon starts
    delivered.  ``bob_basis`` is set by
    :func:`decoy_check`: the receiver's basis, indexing ``tuple(PolBasis)``,
    for each delivered photon in slot order, and empty before.  The slots
    of the photons are the true entries of the mask :func:`insert_decoys`
    returns with the batch.
    """

    def __init__(self, sizes: list[int], prepared: np.ndarray) -> None:
        self.sizes = sizes  # decoys of each session
        self.prepared = prepared
        self.state = prepared.copy()
        self.delivered = np.ones(len(prepared), dtype=bool)
        self.bob_basis = _unset(0)


def _randints(w: np.ndarray, n: int) -> np.ndarray:
    """``floor(u * n)`` of each word's double ``u``, for ``n`` a power of
    two from 2: the word's top ``log2 n`` bits."""
    return (w >> (65 - n.bit_length())).astype(CODE)


_TOP_BIT = np.uint64(1 << 63)


def _basis_coins(w: np.ndarray) -> np.ndarray:
    """Basis index of each fair coin, the word's top bit ``w >> 63``: H/V
    on heads (``u < 0.5``).  The top bit is tested as ``w >= 2**63``,
    whose bools are read as their 0/1 bytes with no cast."""
    return (w >= _TOP_BIT).view(CODE)


def _channel(
    sizes: Sequence[int],
    losses: Sequence[float],
    eves: Sequence[Optional[EveStrategy]],
    streams: BatchStream,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Send ``sizes[s]`` photons of each session ``s`` through its channel,
    of loss probability ``losses[s]``, under the attacker policy
    ``eves[s]`` (``None`` where no attacker intercepts it).

    Each session's stream gives one block of its loss coins, then, under
    an attacker, one block with a row per delivered photon in slot order:
    the attacker's basis coin (only under a policy without a fixed
    ``basis``) and its measurement draw.  Each run of consecutive sessions
    under one policy is drawn together.  Returns the delivery mask, the
    mask of the photons the attacker measured (the delivered ones of
    attacked sessions), and its basis and measurement word per such
    photon, or ``None`` for both when no session is attacked.  A session
    without the stream sends no photons and draws nothing.
    """
    delivered = ~_coins(streams, sizes, losses)
    attacked = [eve is not None for eve in eves]
    if not any(attacked):
        return delivered, delivered, None, None
    seen = delivered if all(attacked) else delivered & np.repeat(attacked, sizes)
    bases, words = [], []
    runs = zip(eves, range(len(sizes)), _tally(delivered, sizes))
    for eve, run in groupby(runs, itemgetter(0)):
        _, sessions, m = zip(*run)
        if eve is None:
            continue
        if eve.basis is None:
            w = _draw(streams, m, 2, sessions)
            bases.append(_basis_coins(w[:, 0]))
            words.append(w[:, 1])
        else:
            words.append(streams.words(sessions, m))
            bases.append(np.full(len(words[-1]), BASES.index(eve.basis), CODE))
    return delivered, seen, _joined(bases), _joined(words)


def _intercept_pairs(
    pairs: PairBatch, idx: np.ndarray, photon: Photon, basis: np.ndarray, w: np.ndarray
) -> None:
    """Measure one photon of each pair ``idx``, resend the eigenstate and
    record the outcome's local id in ``pairs.eve_b`` or ``pairs.eve_a``."""
    keys = 2 * pairs.state[idx] + basis
    k = sample(ALPHABET.partial[photon], keys, w)
    pairs.state[idx] = ALPHABET.collapsed[photon].take(4 * keys + k)
    getattr(pairs, f"eve_{photon.value}")[idx] = 4 * basis + k


def step1_prepare_and_encode(pairs: PairBatch, streams: BatchStream) -> None:
    """Draw a codeword for each pair of every session with a stream in
    ``streams``, pick one of its two operation pairs, and apply the
    photon-b operation to a fresh PSI+ pair.  The pairs of a session
    without the stream stay unprepared and draw nothing."""
    w = _draw(streams, pairs.sizes, 2)
    rows = pairs.of([p is not None for p in streams.positions])
    codeword = _randints(w[:, 0], 8)
    op_a, op_b = ALPHABET.choice_ops.take(2 * codeword + _randints(w[:, 1], 2), axis=1)
    pairs.codeword[rows], pairs.op_a[rows], pairs.op_b[rows] = codeword, op_a, op_b
    pairs.state[rows] = ALPHABET.prepared.take(op_b)


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` smallest keys, equal keys taken in index order:
    the first ``count`` entries of a stable argsort, found in linear time."""
    cut = np.partition(keys, count - 1)[count - 1]
    mask = keys < cut
    mask[np.flatnonzero(keys == cut)[: count - np.count_nonzero(mask)]] = True
    return mask


def insert_decoys(
    pairs: PairBatch, decoy_fractions: Sequence[float], streams: BatchStream
) -> tuple[np.ndarray, DecoyBatch]:
    """Mix single-photon check states into each session's b sequence.

    The decoy count of session ``s`` is binomial with mean
    ``decoy_fractions[s]`` times its pairs; a session without the stream
    gets none.  Positions are uniform among its mixed slots and
    preparations are uniform over the eight (frequency bin, polarization)
    combinations.
    Positions and preparations stay secret until the check.  Returns the
    mask of decoy slots in the batch's mixed sequence, session after
    session, whose other slots carry the pairs in order, and the decoys.
    """
    sizes = pairs.sizes
    count = _tally(_coins(streams, sizes, decoy_fractions), sizes)
    slots = [n + c for n, c in zip(sizes, count)]
    is_decoy = np.zeros(sum(slots), dtype=bool)
    # The slots of the ``count`` smallest of ``n + count`` uniform keys hold
    # a session's decoys; a session without decoys draws no keys and its
    # slots stay pairs.  A key is a word's top 53 bits, which order and tie
    # like its double.  Each session's keys are freed before the next
    # session's are drawn.
    for s, end in enumerate(accumulate(slots)):
        if count[s]:
            keys = streams.words((s,), (slots[s],)) >> 11
            is_decoy[end - slots[s] : end] = _smallest(keys, count[s])
    w = _draw(streams, count, 2)  # each photon's bin, then its polarization
    prepared = 2 * _randints(w[:, 1], 4) + _randints(w[:, 0], 2)
    return is_decoy, DecoyBatch(count, prepared)


def transmit_b(
    pairs: PairBatch,
    decoys: DecoyBatch,
    is_decoy: np.ndarray,
    losses: Sequence[float],
    eves: Sequence[Optional[EveStrategy]],
    streams: BatchStream,
) -> Optional[tuple[np.ndarray, ...]]:
    """Send the mixed b sequence through the channel, updating both
    batches' deliveries; see :func:`_channel` for ``losses`` and ``eves``.

    Loss is decided first; the attacker only touches delivered photons and
    cannot tell pair photons from check photons.  It measures the check
    photons here.  The pairs need not be prepared yet, so their part of the
    attack is returned for :func:`_intercept_b` to apply later: the mask of
    the pairs whose photon b the attacker measured, the mask of its rows
    that are theirs, and its basis and measurement word per row; or
    ``None`` when no session is attacked.
    """
    sizes = [n + c for n, c in zip(pairs.sizes, decoys.sizes)]
    delivered, seen, basis, w = _channel(sizes, losses, eves, streams)
    # both batches start delivered, so a channel that lost nothing routes
    # no delivery flag
    arrived = _indices(delivered)
    if not len(decoys.prepared):  # every slot carries a pair, in order
        if arrived is not _EVERY:
            pairs.b_delivered[:] = delivered
        return None if basis is None else (seen, np.ones(len(w), dtype=bool), basis, w)
    # With every session attacked, or none, the measured slots are the
    # delivered ones (``seen is delivered``); otherwise some slot of an
    # unattacked session is not measured, and ``seen`` is routed too.
    if arrived is not _EVERY or seen is not delivered:
        # index gathers: a boolean-mask gather over scattered slots is slower
        pair_slots, decoy_slots = np.flatnonzero(~is_decoy), np.flatnonzero(is_decoy)
    if arrived is not _EVERY:
        pairs.b_delivered[:] = delivered.take(pair_slots)
        decoys.delivered[:] = delivered.take(decoy_slots)
    if basis is None:
        return None
    # The attack draws come one row per measured photon, in slot order, so
    # the measured pairs and the measured check photons, each in slot
    # order, take the rows of the measured slots of their kind.
    if seen is delivered:
        seen_pairs, seen_decoys, measured = pairs.b_delivered, decoys.delivered, arrived
    else:
        seen_pairs, seen_decoys = seen.take(pair_slots), seen.take(decoy_slots)
        measured = np.flatnonzero(seen)
    kind = is_decoy[measured]
    rows = np.flatnonzero(kind)
    hit = _EVERY if measured is _EVERY else np.flatnonzero(seen_decoys)
    decoy_basis = basis.take(rows)
    k = sample(ALPHABET.local, 2 * decoys.state[hit] + decoy_basis, w.take(rows))
    decoys.state[hit] = 4 * decoy_basis + k
    return seen_pairs, ~kind, basis, w


def _intercept_b(pairs: PairBatch, attack: tuple, sessions: Sequence[bool]) -> None:
    """Apply the attack on the photons b that :func:`transmit_b` returned
    to the pairs of each session ``s`` where ``sessions[s]`` holds."""
    seen, on_pair, basis, w = attack
    if not all(sessions):
        # the attacker's rows of the pairs follow the pairs' order
        kept, live_rows = pairs.of(sessions), np.zeros_like(on_pair)
        live_rows[on_pair] = kept[seen]
        seen, on_pair = seen & kept, live_rows
    rows = np.flatnonzero(on_pair)
    _intercept_pairs(
        pairs, np.flatnonzero(seen), Photon.B, basis.take(rows), w.take(rows)
    )


#: The report's count keys of each check's per-session tallies, in the
#: order of the columns the check returns: the compared items and the
#: errors first.
_COUNT_KEYS = {
    "decoy": (
        "decoy_compared",
        "decoy_errors",
        "decoy_pol_errors",
        "decoy_freq_errors",
        "decoy_z_prepared_compared",
        "decoy_z_prepared_errors",
        "decoy_x_prepared_compared",
        "decoy_x_prepared_errors",
    ),
    "wc": (
        "wc_compared",
        "wc_errors",
        "wc_z_compared",
        "wc_z_errors",
        "wc_x_compared",
        "wc_x_errors",
        "checked",
    ),
}


class RunReport(NamedTuple):
    """Outcome of one session."""

    decoy_qber: Optional[float]
    wc_qber: Optional[float]
    aborted: bool
    alice_key: bytes  # one byte, 0 or 1, per key bit
    bob_key: bytes
    final_qber: float
    counts: dict[str, int]
    config: ProtocolConfig


# Announced abort reason of a check that compared nothing.
_INDETERMINATE = {"decoy": "no matched decoys", "wc": "no matched pair comparisons"}


def _tallies(sizes: Sequence[int], *masks: np.ndarray) -> list[tuple[int, ...]]:
    """Per session, its count of true entries of each mask over its
    ``sizes[s]`` items, one column per mask."""
    return list(zip(*(_tally(mask, sizes) for mask in masks)))


def decoy_check(decoys: DecoyBatch, streams: BatchStream) -> list[tuple[int, ...]]:
    """Compare delivered check photons measured in matched bases.

    The receiver measures every delivered decoy in a uniformly random
    basis; comparisons count only where that basis matches the
    preparation's, ``decoys.prepared >> 2``.  A polarization flip or a
    frequency-bin mismatch both count as errors.  The receiver's bases are
    kept as ``decoys.bob_basis``.  Returns each session's tallies in the
    column order of ``_COUNT_KEYS["decoy"]``, all 0 for a session without
    the stream.
    """
    idx = _indices(decoys.delivered)
    sizes = decoys.sizes if idx is _EVERY else _tally(decoys.delivered, decoys.sizes)
    w = _draw(streams, sizes, 2)
    basis = decoys.bob_basis = _basis_coins(w[:, 0])
    k = sample(ALPHABET.local, 2 * decoys.state[idx] + basis, w[:, 1])
    prepared = decoys.prepared[idx]
    prepared_basis = prepared >> 2
    matched = basis == prepared_basis
    flips = k ^ (prepared & 3)  # bit 1 the polarization, bit 0 the bin
    pol_bad = matched & (flips > 1)
    freq_bad = matched & ((flips & 1) == 1)
    bad = pol_bad | freq_bad
    z = prepared_basis == BASES.index(PolBasis.Z)
    # the X-prepared counts are the rest of each session's comparisons
    return [
        (c, e, pol_e, freq_e, zc, ze, c - zc, e - ze)
        for c, e, pol_e, freq_e, zc, ze in _tallies(
            sizes, matched, bad, pol_bad, freq_bad, matched & z, bad & z
        )
    ]


def wc_check(
    pairs: PairBatch, sample_fractions: Sequence[float], streams: BatchStream
) -> list[tuple[int, ...]]:
    """Convert and measure a random sample of stored pairs, each stored
    pair of session ``s`` with probability ``sample_fractions[s]``.

    Both parties wavelength-convert their photon of each sampled pair and
    measure it in an independently random basis; matched-basis outcomes
    are compared against the correlation the first encoding step dictates.
    Checked pairs are consumed and never contribute key bits.  Both
    parties' bases are kept as ``pairs.wc_basis_a`` and
    ``pairs.wc_basis_b``, one entry per checked pair in index order.
    Returns each session's tallies in the column order of
    ``_COUNT_KEYS["wc"]``, all 0 for a session without the stream, which
    samples none.
    """
    eligible = _indices(pairs.b_delivered & ~pairs.checked)
    every = eligible is _EVERY
    sizes = pairs.sizes if every else _sizes(pairs.offsets, eligible)
    sampling = _coins(streams, sizes, sample_fractions)
    sampled = np.flatnonzero(sampling)
    if not every:
        sampled = eligible.take(sampled)
    pairs.checked[sampled] = True
    sizes = _tally(sampling, sizes)
    w = _draw(streams, sizes, 3)
    basis_a = pairs.wc_basis_a = _basis_coins(w[:, 0])
    basis_b = pairs.wc_basis_b = _basis_coins(w[:, 1])
    keys = 4 * pairs.state[sampled] + 2 * basis_a + basis_b
    k = sample(ALPHABET.wc, keys, w[:, 2])
    matched = basis_a == basis_b
    agree = (k >> 1) == (k & 1)
    expected = ALPHABET.expected_agree.take(2 * pairs.op_b[sampled] + basis_a)
    bad = matched & (agree != expected)
    z = basis_a == BASES.index(PolBasis.Z)
    # the X-basis counts are the rest of each session's comparisons, and
    # every sampled pair is checked
    tallies = _tallies(sizes, matched, bad, matched & z, bad & z)
    return [
        (c, e, zc, ze, c - zc, e - ze, n)
        for (c, e, zc, ze), n in zip(tallies, sizes)
    ]


def step4_encode_a(pairs: PairBatch, live: Sequence[bool]) -> np.ndarray:
    """Apply the photon-a operation to the stored pairs of each session
    ``s`` where ``live[s]`` holds, completing their codewords; returns the
    indices of those active pairs."""
    stored = pairs.b_delivered & ~pairs.checked
    if not all(live):
        stored &= pairs.of(live)
    active = np.flatnonzero(stored)
    pairs.state[active] = ALPHABET.encoded.take(
        4 * pairs.state[active] + pairs.op_a[active]
    )
    return active


def transmit_a(
    pairs: PairBatch,
    active: np.ndarray,
    losses: Sequence[float],
    eves: Sequence[Optional[EveStrategy]],
    streams: BatchStream,
) -> np.ndarray:
    """Send the photons a of the ``active`` pairs through the channel; see
    :func:`_channel` for ``losses`` and ``eves``.  Returns the indices of
    the pairs whose photon a arrived: ``active`` itself when the channel
    lost none, which leaves ``pairs.a_delivered`` as it started, all true;
    else ``active.take(np.flatnonzero(delivered))``."""
    sizes = _sizes(pairs.offsets, active)
    delivered, seen, basis, w = _channel(sizes, losses, eves, streams)
    arrived = _indices(delivered)
    arrivals = active
    if arrived is not _EVERY:
        pairs.a_delivered[active] = delivered
        arrivals = active.take(arrived)
    if basis is not None:
        # with every session attacked, every arrival is measured
        measured = arrivals if seen is delivered else active.take(np.flatnonzero(seen))
        _intercept_pairs(pairs, measured, Photon.A, basis, w)
    return arrivals


def step5_decode_and_sift(
    pairs: PairBatch, arrivals: np.ndarray, streams: BatchStream
) -> None:
    """Jointly measure the reunited pairs ``arrivals`` into
    ``pairs.decoded``, as given: the pairs whose photon a
    :func:`transmit_a` delivered.

    A session whose every arrival is in a state that decides its codeword
    (``ALPHABET.decided``), one with no arrivals included, skips its block
    of one word per arrival and reads its codewords off that table.  Any
    other session draws its block and samples every arrival's device row.
    The verdict reads each session's first arrival, and the rest only when
    that one is decided, so that an attacked session costs one lookup.
    Each run of consecutive sessions with an equal
    verdict is drawn or skipped as one block."""
    sizes = _sizes(pairs.offsets, arrivals)
    state = pairs.state[arrivals]
    decided = ALPHABET.decided
    verdicts, start = [], 0  # per session: its codewords, or None to draw
    for end in accumulate(sizes):
        codes = None
        if start == end or decided.item(state.item(start)) >= 0:
            codes = decided.take(state[start:end])
            if start < end and codes.min() < 0:
                codes = None
        verdicts.append(codes)
        start = end
    drawn = [codes is None for codes in verdicts]
    blocks, start = [], 0
    for draws, run in groupby(range(len(sizes)), drawn.__getitem__):
        sessions = tuple(run)
        span = slice(sessions[0], sessions[-1] + 1)
        run_sizes = sizes[span]
        end = start + sum(run_sizes)
        if draws:
            w = streams.words(sessions, run_sizes)
            outcomes = sample(ALPHABET.device, state[start:end], w)
            blocks.append(ALPHABET.decoded.take(outcomes))
        else:
            streams.skip(sessions, run_sizes)
            blocks += verdicts[span]
        start = end
    pairs.decoded[arrivals] = _joined(blocks)


def _record(
    t: Transcript,
    pairs: PairBatch,
    decoys: DecoyBatch,
    is_decoy: np.ndarray,
    report: RunReport,
) -> None:
    """Append the public messages of a finished batch of one, in protocol
    order: the received slots; for each check that ran, its positions and
    bases, then an abort when it compared nothing, else its outcome
    comparison and verdict; and the decoded positions of a session that
    kept its key.  A check passed when a later check ran or the session
    kept its key, as :func:`run_sessions` judged it."""
    received = np.empty(len(is_decoy), dtype=bool)
    received[~is_decoy] = pairs.b_delivered
    received[is_decoy] = decoys.delivered
    slots = tuple(np.flatnonzero(received).tolist())
    t.append("bob", MessageKind.POSITIONS, {"received_b": slots})
    counts = report.counts
    for check in ("decoy", "wc"):
        if f"{check}_compared" not in counts:  # the check did not run
            continue
        if check == "decoy":
            slots = np.flatnonzero(is_decoy)
            positions = {"decoy_positions": tuple(slots.tolist())}
            seen = slots[decoys.delivered].tolist()
            names = _BASIS_NAMES[decoys.bob_basis].tolist()
            t.append("alice", MessageKind.POSITIONS, positions)
            bases = {"decoy_bases": tuple(zip(seen, names))}
            t.append("bob", MessageKind.BASIS_DECLARATION, bases)
        else:
            checked = tuple(np.flatnonzero(pairs.checked).tolist())
            t.append("bob", MessageKind.POSITIONS, {"wc_positions": checked})
            names_a = _BASIS_NAMES[pairs.wc_basis_a].tolist()
            names_b = _BASIS_NAMES[pairs.wc_basis_b].tolist()
            bases = {"wc_bases": tuple(zip(checked, names_a, names_b))}
            t.append("both", MessageKind.BASIS_DECLARATION, bases)
        compared, errors = (counts[key] for key in _COUNT_KEYS[check][:2])
        if compared == 0:
            t.append("alice", MessageKind.ABORT, {"reason": _INDETERMINATE[check]})
            continue
        qber = getattr(report, f"{check}_qber")
        comparison = dict(check=check, compared=compared, errors=errors, qber=qber)
        t.append("alice", MessageKind.OUTCOME_COMPARISON, comparison)
        passed = not report.aborted or (check == "decoy" and "wc_compared" in counts)
        verdict = MessageKind.PROCEED if passed else MessageKind.ABORT
        t.append("alice", verdict, {"check": check, "qber": qber})
    if not report.aborted:
        decoded = tuple(np.flatnonzero(pairs.decoded >= 0).tolist())
        t.append("bob", MessageKind.POSITIONS, {"decoded_positions": decoded})


def _key_bits(codewords: np.ndarray) -> np.ndarray:
    """Three bits per codeword, most significant first, as ``uint8``."""
    bits = np.empty((len(codewords), 3), dtype=np.uint8)
    for column, shift in enumerate((2, 1, 0)):
        bits[:, column] = (codewords >> shift) & 1
    return bits.ravel()


def run_sessions(
    configs: Sequence[ProtocolConfig], transcript: Optional[Transcript] = None
) -> list[RunReport]:
    """Run any sessions as one batch, each with all of its own settings.

    Each report is a pure function of its own config: identical configs
    (including the seed) give identical reports, whichever sessions run
    beside them.  A failed or indeterminate security check aborts its
    session with empty keys; its pairs stay in the batch, and no later
    phase draws for them.  The phases run in the order of what they read:
    the decoy check comes before step 1, so a session it aborts never
    prepares its pairs and draws nothing from the sender's stream.
    A ``transcript``, which only a batch of one accepts, gets the public
    messages, read off the finished batch and report by :func:`_record`.
    An empty batch gives no reports.
    """
    if not configs:
        return []
    if transcript is not None and len(configs) > 1:
        raise ValueError("a transcript records a batch of one session")
    seeds = [c.seed for c in configs]
    losses = [c.loss for c in configs]
    thresholds = [c.threshold for c in configs]
    uses_decoy = [c.check.uses_decoy for c in configs]
    uses_wc = [c.check.uses_wc for c in configs]
    # each session's attacker on each transmission, None where it intercepts none
    eve_b, eve_a = (
        [c.eve if photon in c.eve_targets.photons else None for c in configs]
        for photon in (Photon.B, Photon.A)
    )
    # Each stream feeds one phase and is made only for the sessions that
    # reach and run that phase.  The pairs are prepared only after the
    # decoy check, for the sessions it lets through.
    pairs = PairBatch([c.pairs for c in configs])
    is_decoy, decoys = insert_decoys(
        pairs,
        [c.decoy_fraction for c in configs],
        BatchStream(seeds, _STREAM_DECOY, uses_decoy),
    )
    attack_b = transmit_b(
        pairs, decoys, is_decoy, losses, eve_b, BatchStream(seeds, _STREAM_CHANNEL_B)
    )

    decoys_lost = _tally(~decoys.delivered, decoys.sizes)
    counts = [
        dict(pairs=c.pairs, decoys=d, decoys_lost=lost, checked=0, lost=0, key_pairs=0)
        for c, d, lost in zip(configs, decoys.sizes, decoys_lost)
    ]
    qbers = [{"decoy_qber": None, "wc_qber": None} for _ in configs]
    live = [True] * len(configs)  # the sessions no check has aborted

    def judge(check: str, ran: list[bool], tallies: list) -> None:
        """Record the tallies of each session that ran ``check``
        (``ran[s]``) and decide its verdict: it aborts when it compared
        nothing or its error rate passes its threshold."""
        for s, (ran_s, tally) in enumerate(zip(ran, tallies)):
            if not ran_s:
                continue
            counts[s].update(zip(_COUNT_KEYS[check], tally))
            compared, errors = tally[:2]
            live[s] = compared > 0
            if live[s]:
                qber = qbers[s][f"{check}_qber"] = errors / compared
                live[s] = qber <= thresholds[s]

    if any(uses_decoy):
        streams = BatchStream(seeds, _STREAM_BOB_DECOY, uses_decoy)
        judge("decoy", uses_decoy, decoy_check(decoys, streams))
    if any(live):
        step1_prepare_and_encode(pairs, BatchStream(seeds, _STREAM_ALICE, live))
        if attack_b is not None:
            _intercept_b(pairs, attack_b, live)
    runs_wc = [uses and ok for uses, ok in zip(uses_wc, live)]
    if any(runs_wc):
        streams = BatchStream(seeds, _STREAM_WC, runs_wc)
        fractions = [c.sample_fraction for c in configs]
        judge("wc", runs_wc, wc_check(pairs, fractions, streams))

    survivors = np.zeros(0, dtype=np.intp)
    if any(live):
        active = step4_encode_a(pairs, live)
        streams = BatchStream(seeds, _STREAM_CHANNEL_A, live)
        survivors = transmit_a(pairs, active, losses, eve_a, streams)
        streams = BatchStream(seeds, _STREAM_DEVICE, live)
        step5_decode_and_sift(pairs, survivors, streams)
    kept = _sizes(pairs.offsets, survivors)
    alice_bits = _key_bits(pairs.codeword.take(survivors))
    bob_bits = _key_bits(pairs.decoded.take(survivors))
    alice_bytes, bob_bytes = alice_bits.tobytes(), bob_bits.tobytes()
    # a pair neither checked nor kept lost a photon; an aborted session
    # never sent its photons a
    lost = ~(pairs.b_delivered & pairs.a_delivered) & ~pairs.checked
    reports, end = [], 0
    for s, (config, kept_s, lost_s, mismatches) in enumerate(
        zip(
            configs,
            kept,
            _tally(lost, pairs.sizes),
            _tally(alice_bits != bob_bits, [3 * k for k in kept]),
        )
    ):
        start, end = end, end + 3 * kept_s
        counts[s].update(lost=lost_s, key_pairs=kept_s)
        reports.append(
            RunReport(
                **qbers[s],
                aborted=not live[s],
                alice_key=alice_bytes[start:end],
                bob_key=bob_bytes[start:end],
                final_qber=mismatches / (end - start) if kept_s else 0.0,
                counts=counts[s],
                config=config,
            )
        )
    if transcript is not None:
        _record(transcript, pairs, decoys, is_decoy, reports[0])
    return reports


def run_session(
    config: ProtocolConfig, transcript: Optional[Transcript] = None
) -> RunReport:
    """Run one full session and report the outcome: the batch of one of
    :func:`run_sessions`."""
    return run_sessions([config], transcript)[0]
