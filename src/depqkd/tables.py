"""The tables sessions sample, read from the package file ``tables.bin``.

A session reads 13 small integer tables: the transitions and 1/16-grid
outcome rows of the 40 pair states of :class:`depqkd.alphabet.StateAlphabet`
and its code tables.  ``python -m depqkd.alphabet`` builds them from the
physics and writes them to ``tables.bin``; a session only reads that file,
so no process that runs sessions builds a state.  :data:`ALPHABET` holds
them under the builder's names (``collapsed`` and ``partial`` by
:class:`~depqkd.quantum.Photon`), read on first use, so that a broken file
can still be regenerated: a missing, truncated or malformed file raises
:class:`TableFileError` naming the file and that command.

The file is an ASCII header, then the tables' bytes.  The header's first
line is :data:`MAGIC`; each further line holds a table's name, numpy dtype
string and comma-separated shape, in the order of :data:`TABLES`, and an
empty line ends it.  The bytes follow in that order, each table starting
at a multiple of its item size from the start of the file.  Every table
is a read-only ``np.frombuffer`` view of the file's bytes.
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import numpy as np

from .quantum import Photon, PolBasis

# Arrays hold bases as indices into BASES (0 = H/V, 1 = diagonal).
BASES = tuple(PolBasis)

# Per-item dtypes.  Every code (codeword, choice, operation, basis, outcome,
# decoy preparation and local state, decoded codeword, the -1 markers) is
# below 16.  A pair state id is one of the 40 of the alphabet, and every
# sampling key built from one, up to 8 * id + 7 = 319, fits STATE too.
# Tables are read with ``take``: indexing with a narrow integer array costs
# numpy an extra cast to intp, two to six times the gather.
CODE = np.int8
STATE = np.int16

GRID_BITS = 4  # an outcome is a function of its word's top 4 bits

PATH = os.path.join(os.path.dirname(__file__), "tables.bin")
MAGIC = "depqkd tables"
REGENERATE = "python -m depqkd.alphabet"
#: The tables of the file, in its order.
TABLES = (
    "prepared",
    "encoded",
    "choice_ops",
    "expected_agree",
    "collapsed[a]",
    "collapsed[b]",
    "partial[a]",
    "partial[b]",
    "device",
    "decoded",
    "decided",
    "wc",
    "local",
)


class TableFileError(ValueError):
    """Raised for a table file that is missing, truncated or malformed."""


def sample(lut: np.ndarray, keys: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The outcome of each word ``w`` under the row of its key,
    ``lut[16 * key + (w >> 60)]``."""
    at = keys.astype(np.intp) << GRID_BITS
    at |= (w >> (64 - GRID_BITS)).view(np.intp)
    return lut.take(at)


def load(path: str = PATH) -> SimpleNamespace:
    """The tables of the file at ``path``, as :data:`ALPHABET` holds them;
    :class:`TableFileError` naming the file for one that is missing,
    truncated or not laid out as the module docstring says."""
    try:
        with open(path, "rb") as file:
            data = file.read()
        header, end, _ = data.partition(b"\n\n")
        magic, *lines = header.decode("ascii").split("\n")
        if not end or magic != MAGIC or [l.split(" ")[0] for l in lines] != [*TABLES]:
            raise ValueError("its header does not list the tables")
        offset, tables = len(header) + len(end), {}
        for line in lines:
            name, dtype, shape = line.split(" ")
            dtype, shape = np.dtype(dtype), tuple(int(n) for n in shape.split(","))
            offset += -offset % dtype.itemsize
            table = np.frombuffer(data, dtype, math.prod(shape), offset)
            tables[name] = table.reshape(shape)
            offset += table.nbytes
        if offset != len(data):
            raise ValueError(f"it holds {len(data)} bytes, not {offset}")
    except (OSError, TypeError, ValueError) as exc:
        message = f"{path}: {exc}; regenerate it with {REGENERATE}"
        raise TableFileError(message) from None
    per_photon = {
        name: {photon: tables.pop(f"{name}[{photon.value}]") for photon in Photon}
        for name in ("collapsed", "partial")
    }
    return SimpleNamespace(**tables, **per_photon)


def __getattr__(name: str) -> SimpleNamespace:
    # ALPHABET is read on first use, not at import, so that a broken file
    # leaves the package importable and its regeneration command running
    if name != "ALPHABET":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global ALPHABET
    ALPHABET = load()
    return ALPHABET
