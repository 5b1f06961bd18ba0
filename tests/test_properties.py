"""Property tests over generated configurations (hypothesis).

Sessions are kept to a few dozen pairs, so each property runs in well
under a second.  Examples are derandomized: every run checks the same ones.
"""

import dataclasses
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


def per_session(records, n, sessions):
    """The records of a session-major batch, split into its sessions."""
    return {s: records[i * n : (i + 1) * n] for i, s in enumerate(sessions)}


def own_settings():
    """What a session of a batch holds for itself: its seed, loss, decoy
    fraction, sample fraction and threshold.  The values that decide coins
    outright, and one shared value of each, are drawn often, so that a
    batch holds runs of equal values beside other ones."""
    return st.tuples(
        st.integers(0, 2**64 - 1),
        st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([0.05, 0.5])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    configs(),
    st.lists(own_settings(), min_size=1, max_size=6, unique_by=lambda own: own[0]),
)
def test_a_batch_replays_each_session_as_if_run_alone(config, sessions):
    # the sessions share the pair count, the check and the attacker
    config = dataclasses.replace(config, pairs=config.pairs % 25 + 1)
    configs = [
        dataclasses.replace(
            config,
            seed=seed,
            decoy_fraction=decoy_fraction,
            sample_fraction=sample_fraction,
            threshold=threshold,
            loss=loss,
        )
        for seed, loss, decoy_fraction, sample_fraction, threshold in sessions
    ]
    seeds = [c.seed for c in configs]
    n = config.pairs
    with recorded_session() as batch:
        reports = run_sessions(configs)
    kept = [s for s, report in enumerate(reports) if not report.aborted]
    eve_b = per_session(batch["eve_b"][0], n, range(len(seeds)))
    eve_a = per_session(batch["eve_a"][0], n, kept) if kept else {}
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
        assert eve_a.get(s, []) == (alone["eve_a"][0] if alone["eve_a"] else [])


def test_a_batch_takes_sessions_that_share_their_batch_key():
    config = ProtocolConfig(pairs=10)

    def attacked(strategy, target):
        return dataclasses.replace(config, seed=1, eve=strategy, eve_targets=target)

    z_on_b = attacked(EveStrategy.Z, EveTarget.B)
    both = CheckStrategy.BOTH
    for first, other in (
        (config, dataclasses.replace(config, seed=1, pairs=11)),
        (config, dataclasses.replace(config, seed=1, check=both)),
        (config, z_on_b),
        (z_on_b, attacked(EveStrategy.X, EveTarget.B)),
        (z_on_b, attacked(EveStrategy.Z, EveTarget.A)),
    ):
        with pytest.raises(ValueError):
            run_sessions([first, other])
    # every other setting may differ
    run_sessions(
        [
            config,
            ProtocolConfig(
                pairs=10,
                seed=1,
                decoy_fraction=0.5,
                sample_fraction=0.3,
                threshold=0.2,
                loss=0.4,
            ),
        ]
    )
    # without an attacker the targets are moot, so they do not split a batch
    run_sessions([config, dataclasses.replace(config, seed=1, eve_targets=EveTarget.A)])
    with pytest.raises(ValueError):
        run_sessions([config, dataclasses.replace(config, seed=1)], Transcript())
