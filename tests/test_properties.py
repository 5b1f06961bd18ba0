"""Property tests over generated configurations (hypothesis).

Sessions are kept to a few dozen pairs, so each property runs in well
under a second.  Examples are derandomized: every run checks the same ones.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from depqkd import (
    ChannelConfig,
    CheckStrategy,
    EveConfig,
    EveStrategy,
    EveTarget,
    ProtocolConfig,
    run_session,
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


@st.composite
def cli_settings(draw):
    values = {flag: draw(strategy) for flag, (strategy, _) in SETTINGS.items()}
    values["--check"] = draw(st.sampled_from([c.value for c in CheckStrategy]))
    values["--eve"] = draw(st.sampled_from(["none"] + [e.value for e in EveStrategy]))
    values["--eve-targets"] = draw(st.sampled_from([t.value for t in EveTarget]))
    values["--seed"] = draw(st.integers(0, 2**64 - 1))
    return values


@SMALL
@given(cli_settings())
def test_valid_settings_run_and_invalid_ones_exit_two(values):
    # flag=value keeps argparse from reading a negative value as a flag
    argv = ["run"] + [f"{flag}={value}" for flag, value in values.items()]
    valid = all(ok(values[flag]) for flag, (_, ok) in SETTINGS.items())
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
