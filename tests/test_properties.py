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
    ChannelConfig,
    CheckStrategy,
    EveConfig,
    EveStrategy,
    EveTarget,
    ProtocolConfig,
    SeededGenerator,
    Transcript,
    protocol,
    run_session,
    run_sessions,
)
from depqkd.cli import main

SMALL = settings(max_examples=60, deadline=None, derandomize=True)

eves = st.one_of(
    st.none(),
    st.builds(EveConfig, st.sampled_from(EveStrategy), st.sampled_from(EveTarget)),
)


def configs(eve=eves):
    """Every valid configuration, with at most 60 pairs."""
    return st.builds(
        ProtocolConfig,
        n_pairs=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        decoy_fraction=st.floats(0.0, 1.0, exclude_max=True),
        check_strategy=st.sampled_from(CheckStrategy),
        check_sample_fraction=st.floats(0.0, 1.0, exclude_min=True),
        qber_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        channel=st.builds(ChannelConfig, st.floats(0.0, 1.0), eve),
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
        assert kept + counts["checked"] + counts["lost"] == config.n_pairs


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
    """Record every stream built, every block drawn, and the attacker's
    records of each transmission, while the block runs.

    ``streams`` and ``draws`` hold ``(seed, stream)`` and ``(seed, stream,
    size)`` per call; ``eve_b`` and ``eve_a`` hold the attacker's basis and
    outcome per pair of the batch, right after each transmission.
    """
    log = {"streams": [], "draws": [], "eve_b": [], "eve_a": []}
    init, uniforms = SeededGenerator.__init__, SeededGenerator.uniforms
    transmit_b, transmit_a = protocol.transmit_b, protocol.transmit_a

    def counted_init(g, seed, stream=0):
        init(g, seed, stream)
        log["streams"].append((g.seed, g.stream))

    def counted_uniforms(g, n):
        log["draws"].append((g.seed, g.stream, int(n)))
        return uniforms(g, n)

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

    SeededGenerator.__init__, SeededGenerator.uniforms = counted_init, counted_uniforms
    protocol.transmit_b = records("b", transmit_b)
    protocol.transmit_a = records("a", transmit_a)
    try:
        yield log
    finally:
        SeededGenerator.__init__, SeededGenerator.uniforms = init, uniforms
        protocol.transmit_b, protocol.transmit_a = transmit_b, transmit_a


def per_session(records, n, sessions):
    """The records of a session-major batch, split into its sessions."""
    return {s: records[i * n : (i + 1) * n] for i, s in enumerate(sessions)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    configs(),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
)
def test_a_batch_replays_each_session_as_if_run_alone(config, seeds):
    config = dataclasses.replace(config, n_pairs=config.n_pairs % 25 + 1)
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    n = config.n_pairs
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
        # the same streams, and the same blocks drawn from each, in order
        assert [k for k in batch["streams"] if k[0] == seed] == alone["streams"]
        assert [d for d in batch["draws"] if d[0] == seed] == alone["draws"]
        # the same attacker records on both transmissions
        assert eve_b[s] == alone["eve_b"][0]
        assert eve_a.get(s, []) == (alone["eve_a"][0] if alone["eve_a"] else [])


def test_a_batch_takes_sessions_that_differ_only_in_their_seeds():
    config = ProtocolConfig(n_pairs=10)
    with pytest.raises(ValueError):
        run_sessions([config, dataclasses.replace(config, seed=1, n_pairs=11)])
    with pytest.raises(ValueError):
        run_sessions([config, dataclasses.replace(config, seed=1)], Transcript())
