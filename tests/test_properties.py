"""Property tests over generated configurations (hypothesis).

Sessions are kept to a few dozen pairs, so each property runs in well
under a second.  Examples are derandomized: every run checks the same ones.
"""

import io
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from depqkd.cli import main
from depqkd.quantum import SeededGenerator

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


# Each setting with values on both sides of its valid range; ``valid`` is
# the documented range.
SETTINGS = {
    "--pairs": (st.integers(-3, 40), lambda v: v >= 1),
    "--decoy-fraction": (st.floats(-0.5, 1.5), lambda v: 0.0 <= v < 1.0),
    "--sample-fraction": (st.floats(-0.5, 1.5), lambda v: 0.0 < v <= 1.0),
    "--threshold": (st.floats(-0.5, 1.5), lambda v: 0.0 < v < 1.0),
    "--loss": (st.floats(-0.5, 1.5), lambda v: 0.0 <= v <= 1.0),
    "--trials": (st.integers(-1, 2), lambda v: v >= 1),
}


# Text that is no valid value of any setting in SETTINGS: it does not
# parse, or it parses to a float outside every range.
BAD_VALUES = st.sampled_from(["abc", "1.5.2", "0x10", "", "-", "-abc", "-inf", "nan"])


@st.composite
def cli_settings(draw):
    # about half the examples keep every setting in range, so that valid
    # settings are generated as well as invalid ones
    in_range = draw(st.booleans())
    values = {
        flag: draw(strategy.filter(ok) if in_range else strategy)
        for flag, (strategy, ok) in SETTINGS.items()
    }
    spoiled = draw(st.none() | st.sampled_from(sorted(SETTINGS)))
    if spoiled is not None:
        values[spoiled] = draw(BAD_VALUES)
    values["--check"] = draw(st.sampled_from([c.value for c in CheckStrategy]))
    values["--eve"] = draw(st.sampled_from(["none"] + [e.value for e in EveStrategy]))
    values["--eve-targets"] = draw(st.sampled_from([t.value for t in EveTarget]))
    values["--seed"] = draw(st.integers(0, 2**64 - 1))
    return values


@SMALL
@given(cli_settings(), st.lists(st.booleans(), min_size=10, max_size=10))
def test_valid_settings_run_and_invalid_ones_exit_two(values, joined):
    # each flag spelt "--flag=value" or "--flag value"
    argv = ["run"]
    for (flag, value), join in zip(values.items(), joined, strict=True):
        argv += [f"{flag}={value}"] if join else [flag, str(value)]
    valid = all(
        not isinstance(values[flag], str) and ok(values[flag])
        for flag, (_, ok) in SETTINGS.items()
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if valid:
        assert code == 0
        assert len(out.getvalue().splitlines()) == values["--trials"]
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@contextmanager
def recorded_session():
    """Record every stream built, every block of words drawn or skipped,
    and the attacker's records of each transmission, while the block runs.

    ``streams`` and ``draws`` hold ``(seed, stream)`` and ``(seed, stream,
    kind, size)`` per call, ``kind`` being ``"words"`` or ``"skip"``;
    ``eve_b`` and ``eve_a`` hold the attacker's basis and outcome per pair
    of the batch, right after each transmission.
    """
    log = {"streams": [], "draws": [], "eve_b": [], "eve_a": []}
    init, words, skip = (
        SeededGenerator.__init__,
        SeededGenerator.words,
        SeededGenerator.skip,
    )
    transmit_b, transmit_a = protocol.transmit_b, protocol.transmit_a

    def counted_init(g, seed, stream=0):
        init(g, seed, stream)
        log["streams"].append((g.seed, g.stream))

    def counted(kind, method):
        def wrapper(g, n):
            log["draws"].append((g.seed, g.stream, kind, int(n)))
            return method(g, n)

        return wrapper

    def records(photon, transmit):
        def wrapper(pairs, *args):
            transmit(pairs, *args)
            basis, outcome = (
                (pairs.eve_b_basis, pairs.eve_b_outcome)
                if photon == "b"
                else (pairs.eve_a_basis, pairs.eve_a_outcome)
            )
            log[f"eve_{photon}"].append(list(zip(basis.tolist(), outcome.tolist())))

        return wrapper

    SeededGenerator.__init__ = counted_init
    SeededGenerator.words = counted("words", words)
    SeededGenerator.skip = counted("skip", skip)
    protocol.transmit_b = records("b", transmit_b)
    protocol.transmit_a = records("a", transmit_a)
    try:
        yield log
    finally:
        SeededGenerator.__init__ = init
        SeededGenerator.words, SeededGenerator.skip = words, skip
        protocol.transmit_b, protocol.transmit_a = transmit_b, transmit_a


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
    kept = [s for s, report in enumerate(reports) if not report.aborted]
    sizes = [c.pairs for c in configs]
    eve_b = per_session(batch["eve_b"][0], sizes)
    # an aborted session stays in the batch but sends no photon a
    eve_a = per_session(batch["eve_a"][0], sizes) if kept else []
    for s, seed in enumerate(seeds):
        with recorded_session() as alone:
            report = run_session(configs[s])
        # the same report, counts included
        assert reports[s] == report
        # the same streams, and the same blocks drawn or skipped from each,
        # in order; every session draws its codewords
        assert any(kind == "words" for _, _, kind, _ in alone["draws"])
        assert [k for k in batch["streams"] if k[0] == seed] == alone["streams"]
        assert [d for d in batch["draws"] if d[0] == seed] == alone["draws"]
        # the same attacker records on both transmissions
        assert eve_b[s] == alone["eve_b"][0]
        if s in kept:
            assert eve_a[s] == alone["eve_a"][0]
        else:
            assert alone["eve_a"] == []
            assert not kept or set(eve_a[s]) <= {(-1, -1)}
    # only a batch of one records a transcript
    if len(configs) > 1:
        with pytest.raises(ValueError):
            run_sessions(configs, Transcript())
