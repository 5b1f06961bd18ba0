"""The closed alphabet of pair states, the generator of the table file
sessions read, and the checks ``depqkd verify-tables`` runs on both.

:class:`StateAlphabet` builds and checks the 40 pair states a session can
reach, the state each transition reaches, the outcomes of each measurement
by sampling key, and the code tables.  No session builds it:
``python -m depqkd.alphabet`` writes :func:`table_bytes` of a build to the
file that :mod:`depqkd.tables` reads.  :func:`table_checks` builds the
rows ``verify-tables`` prints, only when it runs.
"""

from __future__ import annotations

import numpy as np

from .device import (
    DEVICE_BRAS,
    DEVICE_OUTCOMES,
    FAMILY_BY_PORTS,
    PORT_MODES,
    PORTS_A,
    PORTS_B,
    decode,
    wavelength_convert_global,
)
from .quantum import (
    LOCAL_BASIS,
    LOCAL_OPERATORS,
    POL_BASES,
    Pauli,
    Photon,
    PolBasis,
    read_only,
)
from .states import (
    ENCODING_TABLE,
    DepLabel,
    EncodingPair,
    Family,
    codeword_to_label,
    dep_basis,
    encoding_choices,
    label_to_codeword,
)
from .tables import BASES, CODE, GRID_BITS, MAGIC, PATH, STATE, TABLES

# Arrays hold operations as indices into _PAULIS.
_PAULIS = tuple(Pauli)

# Every transition of a pair state as an operator on its amplitudes, 12 per
# photon, photon a first (u (x) 1, then 1 (x) u): each operation of _PAULIS,
# then the projector on row k of LOCAL_BASIS[basis] at 4 + 4 * basis + k.
# Applied one 16x16 product each: as one wide product OpenBLAS splits them
# over its threads, which took 30 ms a build on 2 cores and slowed what
# ran after it.
_PHOTON_OPERATORS = np.array(
    [LOCAL_OPERATORS[op] for op in _PAULIS]
    + [np.outer(row, row.conj()) for basis in BASES for row in LOCAL_BASIS[basis]]
)
_TRANSITIONS = np.concatenate(
    [
        np.einsum("nij,kl->nikjl", _PHOTON_OPERATORS, np.eye(4)),
        np.einsum("ij,nkl->nikjl", np.eye(4), _PHOTON_OPERATORS),
    ]
).reshape(-1, 16, 16)
# Bras of a converted photon, [basis][comp], and of both measured in bases
# (basis_a, basis_b), row 4 * (2 * basis_a + basis_b) + 2 * comp_a + comp_b.
_QUBIT_BRAS = np.array([POL_BASES[basis] for basis in BASES])
_CONVERTED_BRAS = np.einsum("xai,ybj->xyabij", _QUBIT_BRAS, _QUBIT_BRAS).reshape(16, 4)

_GRID = 1 << GRID_BITS
_DECIMALS = 9  # states are looked up by their amplitudes rounded to 1e-9


def _canonical(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``vecs`` times the global phase that makes its first
    nonzero amplitude real and positive, and that row rounded to 1e-9,
    whose bytes are its lookup key (adding 0.0 turns -0.0 into 0.0)."""
    lead = vecs[np.arange(len(vecs)), (np.abs(vecs) > 10.0**-_DECIMALS).argmax(axis=1)]
    vecs = vecs * (np.abs(lead) / lead)[:, None]
    return vecs, np.round(vecs, _DECIMALS) + 0.0


def _lut(name: str, p: np.ndarray) -> np.ndarray:
    """The sampling table of outcome probabilities ``p[row]``: per row 16
    ``int8`` entries, outcome ``i`` filling ``16 * p_i`` of them in order.
    ``ValueError`` names the table and the row of a row off that grid."""
    scaled = _GRID * p
    counts = np.rint(scaled)
    off = (np.abs(scaled - counts) > 1e-9).any(axis=1) | (counts.sum(axis=1) != _GRID)
    if off.any():
        row = int(np.argmax(off))
        raise ValueError(
            f"outcome probabilities {p[row].tolist()} of {name} row {row} "
            f"are not multiples of 1/{_GRID} summing to 1"
        )
    outcomes = np.tile(np.arange(p.shape[1], dtype=CODE), len(p))
    return np.repeat(outcomes, counts.astype(np.intp).ravel())


class StateAlphabet:
    """Every pair state reachable from PSI+ up to global phase, with dense
    tables of what each state leads to.

    The states are PSI+ (id 0) closed under every transition of the
    protocol: an operation of :class:`Pauli` on either photon, and every
    outcome of either photon measured in either basis, which makes 40
    states.  State ``id`` is row ``id`` of the read-only array ``states``,
    stored with its first nonzero amplitude real and positive, and looked
    up by its amplitudes rounded to 1e-9.  Ids follow a breadth-first walk
    from PSI+, whatever sessions run.

    The tables are indexed by sampling key: ``prepared[op_b]`` (from PSI+),
    ``encoded[4 * id + op_a]``, and per photon ``partial[photon][2 * id +
    basis]`` and ``collapsed[photon][4 * (2 * id + basis) + k]`` for
    outcome ``k``; ``device[id]``, ``wc[4 * id + 2 * basis_a + basis_b]``,
    and for a check photon with :class:`~depqkd.protocol.DecoyBatch` state
    id ``local_id``, ``local[2 * local_id + basis]``.  Bases index
    :data:`BASES` and operations ``tuple(Pauli)``.  A transition holds the
    id of the state reached, or -1 for an outcome of probability 0, which
    its row gives no entries; an outcome row (:func:`_lut`) holds the
    probabilities in sixteenths.  Each table is built by array products
    over stacked states, and a row off the 1/16 grid or a state the
    converters annihilate raises.

    The code tables start from PSI+ too: ``choice_ops[:, 2 * cw + c]`` is
    ``(op_a, op_b)`` of ``encoding_choices(cw)[c]``, ``expected_agree[2 *
    op_b + basis]`` whether a converted pair's matched-basis outcomes
    agree, and ``decoded`` the codeword of each device outcome.
    ``decided[id]`` is the codeword the joint measurement announces for
    state ``id`` whatever its outcome, when every entry of ``device[id]``
    decodes to that one codeword, and -1 otherwise.  Exactly the eight
    basis states are decided, and no state an intercept leaves; the build
    raises ``ValueError`` naming a codeword that one of its choices does
    not encode into a state deciding it, and an ``op_b`` and basis where
    a converted pair of ``prepared[op_b]`` measured in that basis on both
    photons can disagree with ``expected_agree``.  Every table is
    read-only.
    """

    def __init__(self) -> None:
        found: list[np.ndarray] = []  # the states by id
        self._ids: dict[bytes, int] = {}
        self._ids_of(dep_basis(DepLabel.PSI_PLUS)[None], found)
        ids, p = [], []  # per state, each transition's id and probability
        done = 0
        while done < len(found):  # one pass per breadth-first level
            vecs = np.array(found[done:])
            done = len(found)
            reached = (_TRANSITIONS @ vecs.T).transpose(2, 0, 1)
            p.append((np.abs(reached) ** 2).sum(axis=-1))
            # an outcome is reached exactly when its row gives it entries
            seen = np.rint(_GRID * p[-1]) > 0
            ids.append(np.full(seen.shape, -1, dtype=STATE))
            states = reached[seen] / np.sqrt(p[-1][seen])[:, None]
            ids[-1][seen] = self._ids_of(states, found)
        ids = np.concatenate(ids).reshape(-1, len(Photon), 12)
        p = np.concatenate(p).reshape(ids.shape)
        self.prepared = ids[0, 1, :4]
        self.encoded = ids[:, 0, :4].ravel()
        choices = [pair for cw in range(8) for pair in encoding_choices(cw)]
        self.choice_ops = np.array(
            [[_PAULIS.index(op) for op in pair] for pair in choices], dtype=CODE
        ).T.copy()
        # The state each photon-b operation makes of PSI+.  After conversion
        # the PHI family is correlated and the PSI family anticorrelated in
        # H/V, while the sign alone fixes the diagonal-basis relation: plus
        # states agree, minus states disagree.
        labels = [ENCODING_TABLE[EncodingPair(Pauli.I, op)] for op in _PAULIS]
        self.expected_agree = np.array(
            [
                label.family is Family.PHI if basis is PolBasis.Z else label.sign > 0
                for label in labels
                for basis in BASES
            ]
        )
        self.collapsed, self.partial = {}, {}
        for i, photon in enumerate(Photon):
            self.collapsed[photon] = ids[:, i, 4:].ravel()
            rows = p[:, i, 4:].reshape(-1, 4)
            self.partial[photon] = _lut(f"partial[{photon.value}]", rows)
        self.states = vecs = read_only(found)
        self.device = _lut("device", np.abs(vecs @ DEVICE_BRAS.T) ** 2)
        self.decoded = np.array([decode(o)[1] for o in DEVICE_OUTCOMES], dtype=CODE)
        codes = self.decoded.take(self.device).reshape(-1, _GRID)
        same = (codes == codes[:, :1]).all(axis=1)
        self.decided = np.where(same, codes[:, 0], -1).astype(CODE)
        # decided[encoded[4 * prepared[op_b] + op_a]] == cw, column 2 * cw + c, in
        # Python ints: numpy loops no session runs map ~0.1 MB more of numpy's code
        for column, (op_a, op_b) in enumerate(self.choice_ops.T.tolist()):
            state = self.encoded.item(4 * self.prepared.item(op_b) + op_a)
            if self.decided.item(state) != (cw := column >> 1):
                raise ValueError(f"the encoding of codeword {cw} does not decide it")
        amp = wavelength_convert_global(vecs) @ _CONVERTED_BRAS.T
        self.wc = _lut("wc", (np.abs(amp) ** 2).reshape(-1, 4))
        # every outcome of wc[4 * prepared[op_b] + 3 * basis], both photons
        # in one basis, agrees as expected_agree[2 * op_b + basis] says
        agrees = self.expected_agree.tolist()
        for op_b, state in enumerate(self.prepared.tolist()):
            for basis in range(len(BASES)):
                row = self.wc[_GRID * (4 * state + 3 * basis) :][:_GRID].tolist()
                if any(((k >> 1) == (k & 1)) != agrees[2 * op_b + basis] for k in row):
                    raise ValueError(
                        f"a converted pair of op_b {_PAULIS[op_b].value} measured "
                        f"in basis {BASES[basis].value} can break expected_agree"
                    )
        local = np.concatenate([LOCAL_BASIS[basis] for basis in BASES])
        self.local = _lut("local", np.abs(local @ local.conj().T).reshape(-1, 4) ** 2)
        tables = [self.prepared, self.encoded, self.choice_ops, self.expected_agree]
        tables += [*self.collapsed.values(), *self.partial.values(), self.device]
        for table in (*tables, self.decoded, self.decided, self.wc, self.local):
            table.setflags(write=False)

    def _ids_of(self, vecs: np.ndarray, found: list[np.ndarray]) -> np.ndarray:
        """The id of each state of ``vecs``, adding the new ones to ``found``
        in order."""
        vecs, rounded = _canonical(vecs)
        keys, size = rounded.tobytes(), rounded.itemsize * 16
        ids = []
        for i in range(len(vecs)):
            key = keys[i * size : (i + 1) * size]
            sid = self._ids.get(key)
            if sid is None:
                sid = self._ids[key] = len(found)
                found.append(vecs[i])
            ids.append(sid)
        return np.array(ids, dtype=STATE)

    def index(self, state: np.ndarray) -> int:
        """The id of ``state`` up to global phase; ``ValueError`` outside."""
        sid = self._ids.get(_canonical(state[None])[1].tobytes())
        if sid is None:
            raise ValueError("the state is not in the alphabet")
        return sid


def table_bytes(alphabet: StateAlphabet) -> bytes:
    """The table file of ``alphabet``'s :data:`~depqkd.tables.TABLES`, laid
    out as :mod:`depqkd.tables` reads it."""
    arrays = []
    for name in TABLES:
        attr, _, photon = name.partition("[")
        table = getattr(alphabet, attr)
        arrays.append(table[Photon(photon[:-1])] if photon else table)
    header = [MAGIC] + [
        f"{name} {table.dtype.str} {','.join(map(str, table.shape))}"
        for name, table in zip(TABLES, arrays)
    ]
    out = bytearray("\n".join(header).encode("ascii") + b"\n\n")
    for table in arrays:
        out += bytes(-len(out) % table.itemsize) + table.tobytes()
    return bytes(out)


def table_checks() -> list[tuple[str, bool, str]]:
    """Every row ``depqkd verify-tables`` prints, as (name, passed, detail):
    a build's transitions, device rows and decided codewords, the device's
    port routing, and whether the table file holds exactly that build."""
    rows: list[tuple[str, bool, str]] = []
    alphabet = StateAlphabet()
    sid = {label: alphabet.index(dep_basis(label)) for label in DepLabel}

    for pair, label in ENCODING_TABLE.items():
        produced = alphabet.encoded[
            4 * alphabet.prepared[_PAULIS.index(pair.op_b)] + _PAULIS.index(pair.op_a)
        ]
        name = f"encoding {pair.op_a.value} (x) {pair.op_b.value} -> {label}"
        rows.append((name, bool(produced == sid[label]), "closure up to global phase"))

    codewords = {label: label_to_codeword(label) for label in DepLabel}
    bijective = sorted(codewords.values()) == list(range(8)) and all(
        codeword_to_label(cw) is label for label, cw in codewords.items()
    )
    rows.append(("codeword map bijective", bijective, "8 states <-> 8 codewords"))

    # each photon's port by local mode; a mode no port collects has none
    port_a, port_b = (
        {mode: port for port in ports for mode in PORT_MODES[port]}
        for ports in (PORTS_A, PORTS_B)
    )
    # the ports that the decoder reads as each family
    family_ports = {family: ports for ports, family in FAMILY_BY_PORTS.items()}
    device = alphabet.device.reshape(-1, _GRID)  # each state's sampling row
    for label in DepLabel:
        ports = family_ports[label.family]
        support = np.flatnonzero(np.abs(dep_basis(label)) > 1e-12).tolist()
        routed = {(port_a.get(j // 4), port_b.get(j % 4)) for j in support}
        # (port_a, port_b) of each device outcome the state's row gives
        seen = {DEVICE_OUTCOMES[o][:2] for o in device[sid[label]].tolist()}
        ok = routed == {ports} and seen == {ports}
        rows.append((f"ports {label} -> {ports}", ok, "routing and coincidences"))

    # a state is discriminated when its every coincidence decodes to its
    # codeword, which is the codeword the alphabet says it decides
    for label in DepLabel:
        ok = bool(alphabet.decided[sid[label]] == codewords[label])
        rows.append(
            (f"discrimination {label}", ok, "all coincidences decode to the state")
        )

    with open(PATH, "rb") as file:
        shipped = file.read() == table_bytes(alphabet)
    rows.append(("shipped tables equal the build", shipped, "tables.bin byte for byte"))
    return rows


if __name__ == "__main__":
    with open(PATH, "wb") as file:
        file.write(table_bytes(StateAlphabet()))
