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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .channel import (
    ChannelConfig,
    ConfigError,
    EveRecord,
    apply_loss,
    ir_attack_decoy,
    ir_attack_entangled,
)
from .device import (
    DeviceOutcome,
    decode,
    device_measure,
    measure_single,
    wavelength_convert_global,
)
from .quantum import (
    Freq,
    JointState,
    LocalState,
    Pauli,
    Photon,
    PolBasis,
    SeededGenerator,
    apply_local,
    pol_freq_eigenstate,
)
from .states import (
    DepLabel,
    EncodingPair,
    Family,
    codeword_bits,
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


@dataclass
class PairRecord:
    """Simulation-side bookkeeping for one entangled pair."""

    index: int
    codeword: int
    encoding: EncodingPair
    state: JointState
    b_delivered: bool = True
    a_delivered: bool = True
    checked: bool = False
    eve_on_b: Optional[EveRecord] = None
    eve_on_a: Optional[EveRecord] = None
    outcome: Optional[DeviceOutcome] = None
    decoded: Optional[int] = None

    @property
    def surviving(self) -> bool:
        """Contributes key bits: both photons arrived, not consumed by a check."""
        return self.b_delivered and self.a_delivered and not self.checked


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


_DECOY_POLS = tuple(DecoyPol)
_FREQS = (Freq.LOW, Freq.HIGH)


@dataclass(frozen=True)
class DecoyPhoton:
    """Ground truth of one inserted check photon."""

    position: int  # slot in the mixed transmission sequence
    freq: Freq
    pol: DecoyPol


@dataclass
class DecoyRecord:
    """Runtime bookkeeping for one check photon."""

    photon: DecoyPhoton
    state: LocalState
    delivered: bool = True
    eve: Optional[EveRecord] = None
    bob_basis: Optional[PolBasis] = None
    bob_comp: Optional[int] = None
    bob_freq: Optional[Freq] = None


# The channel treats the mixed sequence uniformly; items are tagged so the
# attacker cannot be given side information about which slots are decoys.
PAIR_ITEM = "pair"
DECOY_ITEM = "decoy"


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
    alice_key: tuple[int, ...]
    bob_key: tuple[int, ...]
    final_qber: float
    counts: dict[str, int]
    config: ProtocolConfig
    seed: int


_PSI_PLUS = dep_basis(DepLabel.PSI_PLUS)

# State of a pair after the first encoding step, per photon-b operation.
_STEP1_STATE: dict[Pauli, JointState] = {
    op: apply_local(op, Photon.B, _PSI_PLUS) for op in Pauli
}


def step1_prepare_and_encode(
    config: ProtocolConfig, g: SeededGenerator
) -> list[PairRecord]:
    """Draw a codeword per pair, pick one of its two operation pairs, and
    apply the photon-b operation to a fresh PSI+ pair."""
    records = []
    for i in range(config.n_pairs):
        codeword = g.randint(8)
        pair = g.pick(encoding_choices(codeword))
        records.append(
            PairRecord(
                index=i,
                codeword=codeword,
                encoding=pair,
                state=_STEP1_STATE[pair.op_b],
            )
        )
    return records


def insert_decoys(
    pairs: list[PairRecord], decoy_fraction: float, g: SeededGenerator
) -> tuple[list[tuple[str, object]], list[DecoyRecord]]:
    """Mix single-photon check states into the b transmission sequence.

    The decoy count is binomial with mean ``decoy_fraction * len(pairs)``;
    positions are uniform among the mixed slots and preparations are
    uniform over the eight (frequency bin, polarization) combinations.
    Positions and preparations stay secret until the check.
    """
    n = len(pairs)
    count = int(np.count_nonzero(g.uniforms(n) < decoy_fraction)) if n else 0
    total = n + count
    # A random permutation (stable argsort over uniform keys) picks which
    # slots hold decoys; pair order is preserved in the remaining slots.
    decoy_slots = set()
    if count:
        keys = g.uniforms(total)
        decoy_slots = set(np.argsort(keys, kind="stable")[:count].tolist())
    mixed: list[tuple[str, object]] = []
    decoys: list[DecoyRecord] = []
    pair_iter = iter(pairs)
    for slot in range(total):
        if slot in decoy_slots:
            freq = _FREQS[g.randint(2)]
            pol = _DECOY_POLS[g.randint(4)]
            photon = DecoyPhoton(position=slot, freq=freq, pol=pol)
            record = DecoyRecord(
                photon=photon,
                state=pol_freq_eigenstate(pol.basis, pol.comp, freq),
            )
            decoys.append(record)
            mixed.append((DECOY_ITEM, record))
        else:
            mixed.append((PAIR_ITEM, next(pair_iter)))
    return mixed, decoys


def transmit_b(
    mixed: list[tuple[str, object]], channel: ChannelConfig, g: SeededGenerator
) -> None:
    """Send the mixed b sequence through the channel, mutating records.

    Loss is decided first; the attacker only touches delivered photons and
    cannot tell pair photons from check photons.
    """
    eve = channel.eve
    attack_b = eve is not None and eve.target.covers(Photon.B)
    for kind, record in mixed:
        delivered = apply_loss(channel.loss_probability, g)
        if kind == PAIR_ITEM:
            record.b_delivered = delivered
            if delivered and attack_b:
                record.state, record.eve_on_b = ir_attack_entangled(
                    record.state, Photon.B, eve.strategy, g
                )
        else:
            record.delivered = delivered
            if delivered and attack_b:
                record.state, record.eve = ir_attack_decoy(
                    record.state, eve.strategy, g
                )


def decoy_check(
    decoys: list[DecoyRecord],
    qber_threshold: float,
    transcript: Transcript,
    g: SeededGenerator,
) -> DecoyCheckResult:
    """Compare delivered check photons measured in matched bases.

    The receiver measures every delivered decoy in a uniformly random
    basis; comparisons count only where that basis matches the
    preparation.  A polarization flip or a frequency-bin mismatch both
    count as errors.  Raises :class:`IndeterminateCheckError` when nothing
    could be compared.
    """
    transcript.append(
        "alice",
        MessageKind.POSITIONS,
        {"decoy_positions": tuple(d.photon.position for d in decoys)},
    )
    declarations = []
    for record in decoys:
        if not record.delivered:
            continue
        basis = PolBasis.Z if g.coin(0.5) else PolBasis.X
        comp, freq = measure_single(record.state, basis, g)
        record.bob_basis = basis
        record.bob_comp = comp
        record.bob_freq = freq
        declarations.append((record.photon.position, basis.value))
    transcript.append(
        "bob", MessageKind.BASIS_DECLARATION, {"decoy_bases": tuple(declarations)}
    )
    compared = errors = pol_errors = freq_errors = 0
    z_compared = z_errors = x_compared = x_errors = 0
    for record in decoys:
        if not record.delivered or record.bob_basis is not record.photon.pol.basis:
            continue
        compared += 1
        pol_bad = record.bob_comp != record.photon.pol.comp
        freq_bad = record.bob_freq != record.photon.freq
        pol_errors += pol_bad
        freq_errors += freq_bad
        bad = pol_bad or freq_bad
        errors += bad
        if record.photon.pol.basis is PolBasis.Z:
            z_compared += 1
            z_errors += bad
        else:
            x_compared += 1
            x_errors += bad
    if compared == 0:
        transcript.append("alice", MessageKind.ABORT, {"reason": "no matched decoys"})
        raise IndeterminateCheckError("no matched decoy comparisons")
    qber = errors / compared
    proceed = qber <= qber_threshold
    transcript.append(
        "alice",
        MessageKind.OUTCOME_COMPARISON,
        {"check": "decoy", "compared": compared, "errors": errors, "qber": qber},
    )
    transcript.append(
        "alice",
        MessageKind.ABORT if not proceed else MessageKind.PROCEED,
        {"check": "decoy", "qber": qber},
    )
    return DecoyCheckResult(
        qber=qber,
        proceed=proceed,
        compared=compared,
        errors=errors,
        pol_errors=pol_errors,
        freq_errors=freq_errors,
        z_prepared_compared=z_compared,
        z_prepared_errors=z_errors,
        x_prepared_compared=x_compared,
        x_prepared_errors=x_errors,
    )


_Z_ROWS = np.eye(2, dtype=complex)
_X_ROWS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_BASIS_ROWS = {PolBasis.Z: _Z_ROWS, PolBasis.X: _X_ROWS}


def _expected_correlation(step1_label: DepLabel, basis: PolBasis) -> bool:
    """Whether matched-basis outcomes should agree for a checked pair.

    After conversion the PHI family is correlated and the PSI family
    anticorrelated in H/V, while the sign alone fixes the diagonal-basis
    relation: plus states agree, minus states disagree.
    """
    if basis is PolBasis.Z:
        return step1_label.family is Family.PHI
    return step1_label.sign > 0


def wc_check(
    pairs: list[PairRecord],
    sample_fraction: float,
    qber_threshold: float,
    transcript: Transcript,
    g: SeededGenerator,
) -> WcCheckResult:
    """Convert and measure a random sample of stored pairs.

    Both parties wavelength-convert their photon of each sampled pair and
    measure it in an independently random basis; matched-basis outcomes
    are compared against the correlation the first encoding step dictates.
    Checked pairs are consumed and never contribute key bits.  Raises
    :class:`IndeterminateCheckError` when no matched comparison happened.
    """
    sampled = [
        r
        for r in pairs
        if r.b_delivered and not r.checked and g.coin(sample_fraction)
    ]
    transcript.append(
        "bob",
        MessageKind.POSITIONS,
        {"wc_positions": tuple(r.index for r in sampled)},
    )
    declarations = []
    compared = errors = 0
    z_compared = z_errors = x_compared = x_errors = 0
    for record in sampled:
        record.checked = True
        converted = wavelength_convert_global(record.state)
        basis_a = PolBasis.Z if g.coin(0.5) else PolBasis.X
        basis_b = PolBasis.Z if g.coin(0.5) else PolBasis.X
        amp = (
            _BASIS_ROWS[basis_a].conj()
            @ converted.reshape(2, 2)
            @ _BASIS_ROWS[basis_b].conj().T
        )
        k = g.sample_index(np.abs(amp.reshape(4)) ** 2)
        comp_a, comp_b = divmod(k, 2)
        declarations.append((record.index, basis_a.value, basis_b.value))
        if basis_a is not basis_b:
            continue
        step1_label = encoding_to_label(EncodingPair(Pauli.I, record.encoding.op_b))
        agree = comp_a == comp_b
        bad = agree != _expected_correlation(step1_label, basis_a)
        compared += 1
        errors += bad
        if basis_a is PolBasis.Z:
            z_compared += 1
            z_errors += bad
        else:
            x_compared += 1
            x_errors += bad
    transcript.append(
        "both", MessageKind.BASIS_DECLARATION, {"wc_bases": tuple(declarations)}
    )
    if compared == 0:
        transcript.append(
            "alice", MessageKind.ABORT, {"reason": "no matched pair comparisons"}
        )
        raise IndeterminateCheckError("no matched converted-pair comparisons")
    qber = errors / compared
    proceed = qber <= qber_threshold
    transcript.append(
        "alice",
        MessageKind.OUTCOME_COMPARISON,
        {"check": "wc", "compared": compared, "errors": errors, "qber": qber},
    )
    transcript.append(
        "alice",
        MessageKind.ABORT if not proceed else MessageKind.PROCEED,
        {"check": "wc", "qber": qber},
    )
    return WcCheckResult(
        qber=qber,
        proceed=proceed,
        compared=compared,
        errors=errors,
        z_compared=z_compared,
        z_errors=z_errors,
        x_compared=x_compared,
        x_errors=x_errors,
        checked_count=len(sampled),
    )


def step4_encode_a(pairs: list[PairRecord]) -> list[PairRecord]:
    """Apply the photon-a operation, completing each surviving codeword."""
    active = [r for r in pairs if r.b_delivered and not r.checked]
    for record in active:
        record.state = apply_local(record.encoding.op_a, Photon.A, record.state)
    return active


def transmit_a(
    active: list[PairRecord], channel: ChannelConfig, g: SeededGenerator
) -> None:
    """Send the photons a of the active pairs through the channel."""
    eve = channel.eve
    attack_a = eve is not None and eve.target.covers(Photon.A)
    for record in active:
        delivered = apply_loss(channel.loss_probability, g)
        record.a_delivered = delivered
        if delivered and attack_a:
            record.state, record.eve_on_a = ir_attack_entangled(
                record.state, Photon.A, eve.strategy, g
            )


def step5_decode_and_sift(
    pairs: list[PairRecord], transcript: Transcript, g: SeededGenerator
) -> list[PairRecord]:
    """Jointly measure every reunited pair and keep the surviving ones."""
    survivors = [r for r in pairs if r.surviving]
    for record in survivors:
        record.outcome = device_measure(record.state, g)
        _, record.decoded = decode(record.outcome)
    transcript.append(
        "bob",
        MessageKind.POSITIONS,
        {"decoded_positions": tuple(r.index for r in survivors)},
    )
    return survivors


def _keys_from(survivors: list[PairRecord]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    alice: list[int] = []
    bob: list[int] = []
    for record in survivors:
        alice.extend(codeword_bits(record.codeword))
        bob.extend(codeword_bits(record.decoded))
    return tuple(alice), tuple(bob)


def run_session(
    config: ProtocolConfig, transcript: Optional[Transcript] = None
) -> RunReport:
    """Run one full session and report the outcome.

    The report is a pure function of the configuration: identical configs
    (including the seed) give identical reports.  A failed or indeterminate
    security check aborts the session with empty keys.
    """
    t = transcript if transcript is not None else Transcript()
    gens = [SeededGenerator(config.seed, k) for k in range(7)]
    pairs = step1_prepare_and_encode(config, gens[_STREAM_ALICE])
    strategy = config.check_strategy
    if strategy.uses_decoy:
        mixed, decoys = insert_decoys(
            pairs, config.decoy_fraction, gens[_STREAM_DECOY]
        )
    else:
        mixed = [(PAIR_ITEM, r) for r in pairs]
        decoys = []
    transmit_b(mixed, config.channel, gens[_STREAM_CHANNEL_B])
    t.append(
        "bob",
        MessageKind.POSITIONS,
        {
            "received_b": tuple(
                slot
                for slot, (kind, record) in enumerate(mixed)
                if (record.b_delivered if kind == PAIR_ITEM else record.delivered)
            )
        },
    )

    counts: dict[str, int] = {
        "pairs": config.n_pairs,
        "decoys": len(decoys),
        "decoys_lost": sum(not d.delivered for d in decoys),
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
                decoys, config.qber_threshold, t, gens[_STREAM_BOB_DECOY]
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
                gens[_STREAM_WC],
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
        counts["lost"] = sum(not r.b_delivered for r in pairs)
        return RunReport(
            decoy_qber=decoy_qber,
            wc_qber=wc_qber,
            aborted=True,
            alice_key=(),
            bob_key=(),
            final_qber=0.0,
            counts=counts,
            config=config,
            seed=config.seed,
        )

    active = step4_encode_a(pairs)
    transmit_a(active, config.channel, gens[_STREAM_CHANNEL_A])
    survivors = step5_decode_and_sift(pairs, t, gens[_STREAM_DEVICE])
    alice_key, bob_key = _keys_from(survivors)
    mismatches = sum(a != b for a, b in zip(alice_key, bob_key))
    final_qber = mismatches / len(alice_key) if alice_key else 0.0
    counts["lost"] = sum(
        not (r.b_delivered and r.a_delivered) for r in pairs if not r.checked
    )
    counts["key_pairs"] = len(survivors)
    return RunReport(
        decoy_qber=decoy_qber,
        wc_qber=wc_qber,
        aborted=False,
        alice_key=alice_key,
        bob_key=bob_key,
        final_qber=final_qber,
        counts=counts,
        config=config,
        seed=config.seed,
    )
