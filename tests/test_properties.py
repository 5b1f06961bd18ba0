"""Property tests over generated configurations (hypothesis), and the
pinned replay of one mixed batch.

Sessions are kept to a few dozen pairs, so each property runs in well
under a second.  Examples are derandomized: every run checks the same ones.
"""

import hashlib
import io
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_parsing import parse_outcome
from depqkd import (
    CheckStrategy,
    EveStrategy,
    EveTarget,
    ProtocolConfig,
    Transcript,
    protocol,
    run_session,
    run_sessions,
)
from depqkd import cli
from depqkd.alphabet import ALPHABET
from depqkd.cli import main
from depqkd.quantum import BatchStream, Photon

SMALL = settings(max_examples=60, deadline=None, derandomize=True)

def configs(eve=st.none() | st.sampled_from(EveStrategy)):
    """Every valid configuration, with at most 60 pairs.  The probabilities
    that decide their coins outright (loss 0 and 1, decoy fraction 0,
    sample fraction 1) are drawn often, not left to chance."""
    return st.builds(
        ProtocolConfig,
        pairs=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        decoy_fraction=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
        check=st.sampled_from(CheckStrategy),
        sample_fraction=(
            st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True)
        ),
        threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        loss=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        eve=eve,
        eve_targets=st.sampled_from(EveTarget),
    )


@SMALL
@given(configs())
def test_any_valid_config_runs_and_reports_consistently(config):
    report = run_session(config)
    assert len(report.alice_key) == len(report.bob_key)
    assert len(report.alice_key) == 3 * report.counts["key_pairs"]
    assert 0.0 <= report.final_qber <= 1.0
    counts = report.counts
    if report.aborted:
        assert report.alice_key == b"" and report.final_qber == 0.0
    else:
        # every pair is consumed by the check, lost, or kept
        kept = counts["key_pairs"]
        assert kept + counts["checked"] + counts["lost"] == config.pairs


@SMALL
@given(configs(eve=st.none()))
def test_without_an_attacker_the_keys_agree(config):
    report = run_session(config)
    assert report.alice_key == report.bob_key
    assert report.final_qber == 0.0


# Each numeric setting: the type its text is read as, values on both sides
# of its valid range, and the documented range.  A pair count above 50 is
# generated only past the largest a configuration accepts, which exits 2
# before any session runs.
SETTINGS = {
    "--pairs": (int, st.integers(-3, 40), lambda v: 1 <= v <= 50),
    "--seed": (int, st.integers(-1, 2**64), lambda v: 0 <= v < 2**64),
    "--decoy-fraction": (float, st.floats(-0.5, 1.5), lambda v: 0.0 <= v < 1.0),
    "--sample-fraction": (float, st.floats(-0.5, 1.5), lambda v: 0.0 < v <= 1.0),
    "--threshold": (float, st.floats(-0.5, 1.5), lambda v: 0.0 < v < 1.0),
    "--loss": (float, st.floats(-0.5, 1.5), lambda v: 0.0 <= v <= 1.0),
    "--trials": (int, st.integers(-1, 2), lambda v: 1 <= v < 2**64),
}
# The texts each enum setting accepts.
CHOICES = {
    "--check": [c.value for c in CheckStrategy],
    "--eve": ["none", *(e.value for e in EveStrategy)],
    "--eve-targets": [t.value for t in EveTarget],
}

# Text that is no valid value of any numeric setting: it does not parse, or
# it parses to a float outside every range.
BAD_VALUES = ["abc", "1.5.2", "0x10", "", "-", "-abc", "-inf", "nan"]
# Text at the edges of what int() and float() read: a negative zero, a
# subnormal, an underflow to 0, 2**64, thirty nines, and Unicode digits
# for 3, 40 and 0.5.
ODD_VALUES = ["-0", "1e-320", "2e-400", str(2**64), "9" * 30, "٣", "４０", "०.५"]

# What a sweep's --param may name: sweepable settings in either spelling, a
# name given with dashes, the unsweepable trials and an unknown name.
PARAMS = [
    "pairs", "seed", "decoy_fraction", "decoy-fraction", "sample-fraction",
    "threshold", "loss", "check", "eve", "eve_targets", "--loss", "trials", "bogus",
]

# Config files: two that parse (a byte order mark, CRLF line ends), whose
# keys the flags override, and four that exit 2.
CONFIG_FILES = {
    "bom": b"\xef\xbb\xbfthreshold = 0.5\n",
    "crlf": b"loss = 0.1\r\ncheck = both\r\n",
    "duplicate": b"loss = 0.1\nloss = 0.2\n",
    "not-utf8": b"loss = \xff\n",
    "directory": None,
    "missing": None,
}


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    (root / "directory").mkdir()
    for name, content in CONFIG_FILES.items():
        if content is not None:
            (root / name).write_bytes(content)
    return {name: str(root / name) for name in CONFIG_FILES}


def read(flag, text):
    """The value the CLI reads from ``text`` for the setting ``flag``, in its
    range or not, or ``None`` where it reads none."""
    if flag in CHOICES:
        return text if text in CHOICES[flag] else None
    try:
        return SETTINGS[flag][0](text)
    except ValueError:
        return None


def valid(flag, text):
    value = read(flag, text)
    return value is not None and (flag in CHOICES or SETTINGS[flag][2](value))


def any_text(flag, in_range):
    """Text of a setting's value: in its range, or else on either side of
    it, bad or odd."""
    if flag in CHOICES:
        return st.sampled_from(CHOICES[flag] if in_range else [*CHOICES[flag], "x"])
    _, values, ok = SETTINGS[flag]
    if in_range:
        return values.filter(ok).map(str)
    return values.map(str) | st.sampled_from(BAD_VALUES) | st.sampled_from(ODD_VALUES)


@st.composite
def cli_settings(draw):
    """A ``run`` or ``sweep`` command line: its subcommand, each option as
    ``(flag, text)``, a config file by name or ``None``, and the number of
    report lines it prints when every setting is valid, else ``None``."""
    # about half the examples keep every setting in range, so that valid
    # settings are generated as well as invalid ones
    in_range = draw(st.booleans())
    values = {
        flag: str(draw(strategy.filter(ok) if in_range else strategy))
        for flag, (_, strategy, ok) in SETTINGS.items()
    }
    for texts in (ODD_VALUES,) if in_range else (BAD_VALUES, ODD_VALUES):
        spoiled = draw(st.none() | st.sampled_from(sorted(SETTINGS)))
        if spoiled is not None:
            values[spoiled] = draw(st.sampled_from(texts))
    for flag, texts in CHOICES.items():
        values[flag] = draw(st.sampled_from(texts))
    options = list(values.items())
    config = draw(st.none() | st.sampled_from(sorted(CONFIG_FILES)))
    ok = config in (None, "bom", "crlf")
    subcommand = draw(st.sampled_from(["run", "sweep"]))
    swept, cells = None, 1
    if subcommand == "sweep":
        param = draw(st.sampled_from(PARAMS))
        swept = "--" + param.replace("_", "-")
        known = swept != "--trials" and (swept in SETTINGS or swept in CHOICES)
        text = any_text(swept if known else "--loss", in_range)
        texts = draw(st.lists(text, min_size=int(in_range), max_size=3))
        options += [("--param", param), ("--values", ",".join(texts))]
        cells = sum(1 for text in texts if text)
        ok = ok and known and cells > 0
        ok = ok and all(valid(swept, text) for text in texts if text)
    # the swept setting's flag is read, but each cell replaces its value
    ok = ok and all(
        read(flag, text) is not None if flag == swept else valid(flag, text)
        for flag, text in values.items()
    )
    lines = cells * int(values["--trials"]) if ok else None
    return subcommand, options, config, lines


# A unique abbreviation of some flags, and one that two flags share.
ABBREVIATIONS = {
    "--pairs": "--pai", "--sample-fraction": "--sam", "--threshold": "--thr",
    "--trials": "--tri",
}
AMBIGUOUS = "--s"  # --seed or --sample-fraction
# How a command line may break: an ambiguous abbreviation, a flag with no
# value after it, a stray positional, a flag given as "--flag=" with an
# empty value, --help, or a sweep flag left out.
BREAKS = ["ambiguous", "trailing", "stray", "empty", "help", "unrequire"]


def indices(options, flags):
    return st.sampled_from([i for i, (flag, _) in enumerate(options) if flag in flags])


@st.composite
def command_lines(draw, subcommand, options, lines):
    """The argv of ``options``, each spelt ``--flag=value`` or ``--flag
    value``, maybe with a flag given twice and with an abbreviation, and
    broken in at most one way of :data:`BREAKS`; and the report lines it
    prints: ``lines`` unchanged, ``None`` where it exits 2, or ``"help"``
    where it prints the help."""
    options = list(options)
    if draw(st.booleans()):  # a flag given twice: the last one wins
        i = draw(indices(options, {**SETTINGS, **CHOICES}))
        flag = options[i][0]
        options.insert(draw(st.integers(0, i)), (flag, draw(any_text(flag, True))))
    if draw(st.booleans()):
        i = draw(indices(options, ABBREVIATIONS))
        flag, text = options[i]
        options[i] = (ABBREVIATIONS[flag], text)
    change = draw(st.none() | st.sampled_from(BREAKS))
    if change == "unrequire" and subcommand == "run":
        change = None
    if change is not None:
        lines = "help" if change == "help" else None
    i = draw(indices(options, {**SETTINGS, **CHOICES}))
    flag, text = options[i]
    if change == "ambiguous":
        options[i] = (AMBIGUOUS, text)
    elif change == "unrequire":
        left_out = draw(st.sampled_from(["--param", "--values"]))
        options = [option for option in options if option[0] != left_out]
    spelt = [
        [f"{name}="] if change == "empty" and j == i
        else [f"{name}={value}"] if draw(st.booleans()) else [name, value]
        for j, (name, value) in enumerate(options)
    ]
    if change == "stray":
        spelt.insert(draw(st.integers(0, len(spelt))), ["stray"])
    elif change == "trailing":
        spelt.append([flag])
    elif change == "help":  # read before any later flag, so it always wins
        spelt.insert(0, ["--help"])
    return [subcommand, *(token for tokens in spelt for token in tokens)], lines


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cli_settings(), data=st.data())
def test_valid_settings_run_and_invalid_ones_exit_two(case, data, config_paths):
    subcommand, options, config, lines = case
    if config is not None:
        options = [*options, ("--config", config_paths[config])]
    argv, lines = data.draw(command_lines(subcommand, options, lines))
    # the CLI reads the command line as the full argparse tree does: the
    # same Namespace, or the same error or help
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(
        cli.build_parser().parse_args, argv
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # no exception escapes main, and it exits 0 exactly when every setting
    # is valid, else 2 with one error line and nothing on stdout
    if lines == "help":
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue().startswith(f"usage: depqkd {subcommand} [-h]")
    elif lines is not None:
        assert code == 0 and err.getvalue() == ""
        assert len(out.getvalue().splitlines()) == lines
    else:
        assert code == 2
        assert out.getvalue() == ""
        errors = err.getvalue().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")


@contextmanager
def recorded_session():
    """Record every stream built, every block of words drawn or skipped,
    and the single-photon records of the batch, while the block runs.

    ``streams`` holds ``(seed, stream)`` per session that a
    :class:`~depqkd.quantum.BatchStream` gives the stream, and ``draws``
    ``(seed, stream, kind, size)`` per session block that one of its calls
    draws or skips, ``kind`` being ``"words"`` or ``"skip"``.  Every record is a local id ``4 * basis + k``, the row ``k`` of a
    :data:`~depqkd.quantum.LOCAL_BASIS` table: ``eve_b`` and ``eve_a`` hold
    what the attacker observed of each pair of the batch as the batch ends,
    ``-1`` where it measured none, and ``prepared`` each check photon's
    preparation.  ``pairs`` is the batch's :class:`~depqkd.protocol.PairBatch`
    as the batch ends.
    """
    log = {"streams": [], "draws": [], "eve_b": [], "eve_a": [], "prepared": []}
    init, words, skip = BatchStream.__init__, BatchStream.words, BatchStream.skip
    transmit_b = protocol.transmit_b
    batches = []

    def counted_init(streams, *args):
        init(streams, *args)
        log["streams"].extend(
            (seed, streams.stream)
            for seed, position in zip(streams.seeds, streams.positions)
            if position is not None
        )

    def counted(kind, method):
        def wrapper(streams, sessions, sizes):
            sessions, sizes = list(sessions), list(sizes)
            log["draws"].extend(
                (streams.seeds[s], streams.stream, kind, int(n))
                for s, n in zip(sessions, sizes)
                if streams.positions[s] is not None
            )
            return method(streams, sessions, sizes)

        return wrapper

    def kept_batch(pairs, decoys, *args):
        batches.append((pairs, decoys))
        return transmit_b(pairs, decoys, *args)

    BatchStream.__init__ = counted_init
    BatchStream.words = counted("words", words)
    BatchStream.skip = counted("skip", skip)
    protocol.transmit_b = kept_batch
    try:
        yield log
    finally:
        BatchStream.__init__ = init
        BatchStream.words, BatchStream.skip = words, skip
        protocol.transmit_b = transmit_b
    # every session sends its photons b, so every batch passes transmit_b
    [(pairs, decoys)] = batches
    log["eve_b"], log["eve_a"] = pairs.eve_b.tolist(), pairs.eve_a.tolist()
    log["prepared"] = decoys.prepared.tolist()
    log["pairs"] = pairs


def per_session(records, sizes):
    """The records of a session-major batch, split into its sessions of
    ``sizes[s]`` pairs each."""
    out, start = [], 0
    for size in sizes:
        out.append(records[start : start + size])
        start += size
    return out


def own_settings():
    """Every setting of one session of a batch but nothing shared: each
    session draws its own pair count, check and attacker as well as its
    seed, loss, fractions and threshold.  The values that decide coins
    outright, and one shared value of each, are drawn often, so that a
    batch holds runs of equal values beside other ones."""
    return st.builds(
        ProtocolConfig,
        pairs=st.sampled_from([1, 10]) | st.integers(1, 25),
        seed=st.integers(0, 2**64 - 1),
        decoy_fraction=st.sampled_from([0.0, 0.5])
        | st.floats(0.0, 1.0, exclude_max=True),
        check=st.sampled_from(CheckStrategy),
        sample_fraction=st.sampled_from([1.0, 0.5])
        | st.floats(0.0, 1.0, exclude_min=True),
        threshold=st.sampled_from([0.05, 0.5])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        loss=st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
        eve=st.none() | st.sampled_from(EveStrategy),
        eve_targets=st.sampled_from(EveTarget),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(own_settings(), min_size=1, max_size=7, unique_by=lambda c: c.seed))
def test_a_batch_replays_each_session_as_if_run_alone(configs):
    # any mix of sessions shares a batch: pair counts, checks and attackers
    # may differ from session to session
    seeds = [c.seed for c in configs]
    with recorded_session() as batch:
        reports = run_sessions(configs)
    sizes = [c.pairs for c in configs]
    eve_b = per_session(batch["eve_b"], sizes)
    eve_a = per_session(batch["eve_a"], sizes)
    prepared = per_session(batch["prepared"], [r.counts["decoys"] for r in reports])
    for s, seed in enumerate(seeds):
        with recorded_session() as alone:
            report = run_session(configs[s])
        # the same report, counts included
        assert reports[s] == report
        # the same streams, and the same blocks drawn or skipped from each,
        # in order; a session draws its codewords exactly when the decoy
        # check lets it through
        assert [k for k in batch["streams"] if k[0] == seed] == alone["streams"]
        assert [d for d in batch["draws"] if d[0] == seed] == alone["draws"]
        never_prepared = decoy_aborted(report)
        codewords = [] if never_prepared else [(seed, 0, "words", 2 * sizes[s])]
        assert [d for d in alone["draws"] if d[1] == 0] == codewords
        # the same attacker records on both transmissions; an aborted
        # session stays in the batch but sends no photon a, and the
        # attacker measures no photon b of a pair that was never prepared
        assert eve_b[s] == alone["eve_b"]
        assert eve_a[s] == alone["eve_a"]
        if report.aborted:
            assert set(eve_a[s]) <= {-1}
        if never_prepared:
            assert set(eve_b[s]) <= {-1}
        # the same check photons, prepared alike
        assert prepared[s] == alone["prepared"]
    # only a batch of one records a transcript
    if len(configs) > 1:
        with pytest.raises(ValueError):
            run_sessions(configs, Transcript())


def delivery_settings(loss):
    """One session of a batch that mixes lossless and lossy channels, of
    the given ``loss``: with check photons or without (no decoy fraction,
    or no decoy check), and no attacker, one on photon b or one on photon
    a.  A loose threshold often lets an attacked session reach its second
    transmission."""
    return st.builds(
        ProtocolConfig,
        pairs=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
        decoy_fraction=st.sampled_from([0.0, 0.3, 0.85]),
        check=st.sampled_from(CheckStrategy),
        threshold=st.sampled_from([0.05, 0.9]),
        loss=loss,
        eve=st.none() | st.sampled_from(EveStrategy),
        eve_targets=st.sampled_from([EveTarget.B, EveTarget.A]),
    )


# a small loss often loses nothing in a session of a few pairs
LOSSY = st.sampled_from([0.01, 0.2]) | st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def lossless_beside_lossy(draw):
    """A batch in some order of a lossless session, a lossy one and up to
    three more of either kind."""
    sessions = [draw(delivery_settings(st.just(0.0))), draw(delivery_settings(LOSSY))]
    more = delivery_settings(st.just(0.0) | LOSSY)
    sessions += draw(st.lists(more, max_size=3))
    return draw(st.permutations(sessions))


@SMALL
@given(lossless_beside_lossy())
def test_lossless_and_lossy_sessions_report_in_a_batch_as_alone(configs):
    # a transmission that loses nothing of the whole batch indexes every
    # item by the full slice, and one that loses any routes its index
    # lists: a lossless session run alone takes the first path, and
    # usually the second in its batch
    assert run_sessions(configs) == [run_session(c) for c in configs]


# One batch that ends a session in each way a check can: a decoy abort
# under a random-basis attack on photon b among 0.85 decoys, an
# indeterminate decoy check (no decoys), a decoy abort of a lossy session
# attacked on both photons, a converter abort under an X attack on photon
# b, and a lossy session kept under an attack on photon a.
MIXED_BATCH = (
    ProtocolConfig(
        pairs=60, seed=101, decoy_fraction=0.85, check=CheckStrategy.DECOY,
        eve=EveStrategy.RANDOM_ZX,
    ),
    ProtocolConfig(pairs=40, seed=102, decoy_fraction=0.0, check=CheckStrategy.DECOY),
    ProtocolConfig(
        pairs=50, seed=103, decoy_fraction=0.3, check=CheckStrategy.BOTH, loss=0.2,
        eve=EveStrategy.RANDOM_ZX, eve_targets=EveTarget.BOTH,
    ),
    ProtocolConfig(
        pairs=70, seed=104, check=CheckStrategy.WAVELENGTH_CONVERTER,
        sample_fraction=0.5, eve=EveStrategy.X,
    ),
    ProtocolConfig(
        pairs=45, seed=105, decoy_fraction=0.2, check=CheckStrategy.BOTH,
        sample_fraction=0.3, loss=0.2, eve=EveStrategy.Z, eve_targets=EveTarget.A,
    ),
)
MIXED_REPORTS = "e942cba2834912bba160b08fbd874b0e47eb0be11631b35a281c1300ea3e90ef"
MIXED_TRANSCRIPTS = "813ea6fe4a5080a401f913ec0489af8d6f6ab7d9378a985653ab6cb50cb744d5"
# sha256 of the sorted (seed, stream, kind, total) draw ledger of the batch,
# without stream 0 of the sessions the decoy check aborts
MIXED_LEDGER = "ba134a15dea1d2e23715147a9811963c73fc3cdd4cc6d9b11551410f413ead37"
# sha256 of the batch's single-photon records, each a local id: what the
# attacker observed of each pair's photon b and photon a, and each check
# photon's preparation
MIXED_RECORDS = "da02f35788aac1d61cf4fc699b4710f6b43dab749d68df4350dee2e713ad3d19"


def decoy_aborted(report):
    """Whether the decoy check ended the session: it ran, and the session
    aborted before any converter check."""
    counts = report.counts
    return report.aborted and "decoy_compared" in counts and "wc_compared" not in counts


def digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_a_mixed_batch_keeps_its_pinned_reports_and_transcripts():
    reports = run_sessions(MIXED_BATCH)
    assert [decoy_aborted(r) for r in reports] == [True, True, True, False, False]
    assert [r.aborted for r in reports] == [True, True, True, True, False]
    alone, transcripts = [], []
    for config in MIXED_BATCH:
        transcript = Transcript()
        alone.append(run_session(config, transcript))
        transcripts.append(
            [(m.sender, m.kind.value, m.payload) for m in transcript]
        )
    assert digest(reports) == digest(alone) == MIXED_REPORTS
    assert digest(transcripts) == MIXED_TRANSCRIPTS


def test_only_sessions_past_the_decoy_check_prepare_their_pairs():
    with recorded_session() as log:
        reports = run_sessions(MIXED_BATCH)
    totals = Counter()
    for seed, stream, kind, n in log["draws"]:
        totals[seed, stream, kind] += n
    skipped = {c.seed for c, r in zip(MIXED_BATCH, reports) if decoy_aborted(r)}
    ledger = sorted(
        (*key, n) for key, n in totals.items() if not (key[0] in skipped and key[1] == 0)
    )
    assert digest(ledger) == MIXED_LEDGER
    # a session the decoy check aborts draws no codewords, while the
    # converter check reads the prepared states of the pairs it samples
    assert not [key for key in totals if key[0] in skipped and key[1] == 0]
    assert totals[104, 0, "words"] == 2 * 70


def test_a_mixed_batch_keeps_its_pinned_single_photon_records():
    with recorded_session() as log:
        run_sessions(MIXED_BATCH)
    records = [log["eve_b"], log["eve_a"], log["prepared"]]
    assert digest(records) == MIXED_RECORDS


def device_blocks(configs):
    """The reports of a batch, each session's blocks of the joint
    measurement's stream 6 as ``(kind, size)``, and the whole record."""
    with recorded_session() as log:
        reports = run_sessions(configs)
    blocks = [
        [(kind, n) for seed, stream, kind, n in log["draws"] if (seed, stream) == key]
        for key in ((c.seed, 6) for c in configs)
    ]
    return reports, blocks, log


# Sessions that reach the joint measurement: two unattacked ones, one
# attacked on photon a, one whose converter check consumes every pair and
# a lossy one that loses every pair (a loss of 1 would leave its checks
# nothing to compare).
WC = CheckStrategy.WAVELENGTH_CONVERTER
CLEAN = ProtocolConfig(
    pairs=40, seed=201, decoy_fraction=0.5, check=CheckStrategy.BOTH,
    sample_fraction=0.5,
)
OTHER_CLEAN = ProtocolConfig(pairs=25, seed=204, check=WC, sample_fraction=0.5)
ATTACKED_A = ProtocolConfig(
    pairs=40, seed=202, check=CheckStrategy.DECOY, eve=EveStrategy.Z,
    eve_targets=EveTarget.A,
)
ALL_CHECKED = ProtocolConfig(pairs=20, seed=203, check=WC, sample_fraction=1.0)
ALL_LOST = ProtocolConfig(
    pairs=4, seed=2, check=CheckStrategy.DECOY, decoy_fraction=0.9, threshold=0.5,
    loss=0.5,
)


@pytest.mark.parametrize(
    "config, kind",
    [
        (CLEAN, "skip"),
        (ATTACKED_A, "words"),
        (ALL_CHECKED, "skip"),
        (ALL_LOST, "skip"),
    ],
)
def test_the_joint_measurement_skips_the_blocks_the_states_decide(config, kind):
    # one word per arrival, skipped when every arrival's state decides its
    # codeword, as none does after an intercept; no arrival draws no word
    [report], [blocks], _ = device_blocks([config])
    assert not report.aborted
    assert blocks == [(kind, report.counts["key_pairs"])]
    if config in (ALL_CHECKED, ALL_LOST):
        assert report.counts["key_pairs"] == 0


def test_an_attacked_session_between_clean_ones_replays_as_if_run_alone():
    configs = [CLEAN, ATTACKED_A, OTHER_CLEAN]
    reports, blocks, batch = device_blocks(configs)
    assert [[kind for kind, _ in b] for b in blocks] == [["skip"], ["words"], ["skip"]]
    for config, report in zip(configs, reports):
        [alone], _, log = device_blocks([config])
        assert report == alone
        assert [d for d in batch["draws"] if d[0] == config.seed] == log["draws"]


# The phase of each stream, as README's draw schedule names it.
STREAM_PHASES = {
    protocol._STREAM_ALICE: "step 1",
    protocol._STREAM_DECOY: "decoy insertion",
    protocol._STREAM_CHANNEL_B: "first transmission",
    protocol._STREAM_BOB_DECOY: "decoy check",
    protocol._STREAM_WC: "converter check",
    protocol._STREAM_CHANNEL_A: "second transmission",
    protocol._STREAM_DEVICE: "joint measurement",
}


def readme_draw_schedule():
    """{stream: phase} of the rows of README's draw schedule."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| stream | phase | sessions with the stream | words |"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| (\d+) \| ([^|]+) \|", table, re.M)
    return {int(stream): phase.strip() for stream, phase in rows}


def scheduled_words(config, report, pairs, s):
    """{stream: (words drawn, words skipped)} of session ``s`` of a finished
    batch, by README's draw schedule, for each stream the session has."""
    n, c = config.pairs, report.counts["decoys"]
    counts, span = report.counts, slice(pairs.offsets[s], pairs.offsets[s + 1])
    stored = int(np.count_nonzero(pairs.b_delivered[span]))
    delivered_slots = stored + c - counts["decoys_lost"]
    arrivals = pairs.state[span][pairs.decoded[span] >= 0]
    # the photons attacked, and each row's words: the basis coin (only
    # under a policy without a fixed basis), then the measurement word
    photons = () if config.eve is None else config.eve_targets.photons
    rows = 1 if config.eve is None or config.eve.basis is not None else 2

    def coins(k, p):  # drawn, or skipped where p decides every coin
        return (k, 0) if 0.0 < p < 1.0 else (0, k)

    def attacked(k, photon):
        return rows * k if photon in photons else 0

    schedule = {}
    if not decoy_aborted(report):
        schedule[0] = (2 * n, 0)
    if config.check.uses_decoy:
        drawn, skipped = coins(n, config.decoy_fraction)
        schedule[1] = (drawn + (n + c if c else 0) + 2 * c, skipped)
    drawn, skipped = coins(n + c, config.loss)
    schedule[2] = (drawn + attacked(delivered_slots, Photon.B), skipped)
    if config.check.uses_decoy:
        schedule[3] = (2 * (c - counts["decoys_lost"]), 0)
    if config.check.uses_wc and not decoy_aborted(report):
        drawn, skipped = coins(stored, config.sample_fraction)
        schedule[4] = (drawn + 3 * counts["checked"], skipped)
    if not report.aborted:
        drawn, skipped = coins(stored - counts["checked"], config.loss)
        schedule[5] = (drawn + attacked(len(arrivals), Photon.A), skipped)
        decided = (ALPHABET.decided.take(arrivals) >= 0).all()
        schedule[6] = (0, len(arrivals)) if decided else (len(arrivals), 0)
    return schedule


def test_readme_names_the_phase_of_each_stream():
    assert readme_draw_schedule() == STREAM_PHASES


@pytest.mark.parametrize(
    "configs",
    [MIXED_BATCH, (CLEAN, ATTACKED_A, OTHER_CLEAN, ALL_CHECKED, ALL_LOST)],
    ids=["mixed", "joint-measurement"],
)
def test_each_session_draws_and_skips_what_the_draw_schedule_says(configs):
    # the ledger's totals of words drawn and skipped, per session and stream
    with recorded_session() as log:
        reports = run_sessions(configs)
    ledger = {key: [0, 0] for key in log["streams"]}
    for seed, stream, kind, n in log["draws"]:
        ledger[seed, stream][kind == "skip"] += n
    for s, (config, report) in enumerate(zip(configs, reports)):
        own = {
            stream: tuple(words)
            for (seed, stream), words in ledger.items() if seed == config.seed
        }
        assert own == scheduled_words(config, report, log["pairs"], s), config.seed


def test_sessions_run_in_four_threads_replay_their_serial_reports():
    # a draw keeps no state that another reads, so sessions that run side
    # by side in threads, each several times, report what they do alone;
    # an exception in a thread is raised again by its result
    configs = [
        ProtocolConfig(
            pairs=2000,
            seed=seed,
            check=CheckStrategy.BOTH,
            loss=0.1,
            eve=(None, EveStrategy.Z, EveStrategy.RANDOM_ZX)[seed % 3],
            eve_targets=EveTarget.A,
        )
        for seed in range(12)
    ]
    serial = [run_session(config) for config in configs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run_session, configs * 3))
    mismatched = [
        config.seed for config, report in zip(configs * 3, threaded)
        if report != serial[config.seed]
    ]
    assert mismatched == []
