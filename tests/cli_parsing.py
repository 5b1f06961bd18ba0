"""The outcome of parsing a command line, shared by the CLI tests that
compare the CLI's own reading of an argv with the full argparse tree's."""

import io
from contextlib import redirect_stdout

from depqkd import ConfigError


def parse_outcome(parse, argv):
    """The repr of the attributes of the namespace ``parse(argv)`` returns,
    which tells apart attribute order, ``0`` from ``0.0`` and one NaN from
    another value, or the exception it raises (a rejected command line, or
    the exit after ``--help``) with what it printed."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return repr(vars(parse(list(argv))))
    except (ConfigError, SystemExit) as exc:
        return type(exc), exc.args, out.getvalue()
