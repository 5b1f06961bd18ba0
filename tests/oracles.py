"""Independent brute-force references used only by the tests.

Everything here is rebuilt from first principles: dense density matrices,
explicit 16x16 projectors, and exhaustive outcome trees.  The production
modules compute the same quantities through structurally different code
(reshaped views, stacked basis rows, sampling), so agreement between the
two routes is a real check rather than a tautology.
"""

from __future__ import annotations

from math import log2

import numpy as np

SQ2 = np.sqrt(2.0)

# ---------------------------------------------------------------------------
# density-matrix machinery


def density_matrix(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def reduced_density_matrix(vec16, photon: str) -> np.ndarray:
    """Partial trace of a pure pair state over the other photon."""
    m = np.asarray(vec16, dtype=complex).reshape(4, 4)
    if photon == "a":
        return m @ m.conj().T
    return m.T @ m.conj()


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def projector(rows) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    return rows.T @ rows.conj()


def is_normalized(vec, tol: float = 1e-12) -> bool:
    """Whether ``<vec|vec>`` is 1 within ``tol``."""
    vec = np.asarray(vec, dtype=complex)
    return abs(float(np.real(np.vdot(vec, vec))) - 1.0) <= tol


def equal_up_to_global_phase(s1, s2, tol: float = 1e-9) -> bool:
    """Whether two normalized state vectors differ only by a global phase:
    ``|<s1|s2>| >= 1 - tol``."""
    return bool(abs(np.vdot(s1, s2)) >= 1.0 - tol)


def born_probability(vec, proj) -> float:
    vec = np.asarray(vec, dtype=complex)
    return float(np.real(vec.conj() @ proj @ vec))


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


# ---------------------------------------------------------------------------
# the eight pair states and the step-1 map, restated from scratch

_SUPPORT = {"phi": (0, 15), "psi": (2, 13), "gamma": (8, 7), "upsilon": (10, 5)}


def pair_state(family: str, sign: int) -> np.ndarray:
    first, second = _SUPPORT[family]
    vec = np.zeros(16, dtype=complex)
    vec[first] = 1.0 / SQ2
    vec[second] = sign / SQ2
    return vec


def classify(vec16, tol: float = 1e-9):
    """The ``(family, sign)`` of the pair state a vector equals up to global
    phase, or None: only exact matches within ``tol`` classify, so
    superpositions of several pair states do not."""
    for family in _SUPPORT:
        for sign in (+1, -1):
            if abs(np.vdot(pair_state(family, sign), vec16)) >= 1.0 - tol:
                return family, sign
    return None


# photon-b operation applied to psi+ -> (family, sign)
STEP1 = {"I": ("psi", +1), "Z": ("psi", -1), "X": ("phi", +1), "IY": ("phi", -1)}

# photon-b operation options per codeword (either option equally likely)
CODEWORD_OPB = {
    0: ("I", "Z"),
    1: ("Z", "I"),
    2: ("X", "IY"),
    3: ("IY", "X"),
    4: ("I", "Z"),
    5: ("Z", "I"),
    6: ("X", "IY"),
    7: ("IY", "X"),
}


# ---------------------------------------------------------------------------
# local measurement vectors (mode index = 2 * pol + freq)


def local_z_vector(pol: int, freq: int) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[2 * pol + freq] = 1.0
    return vec


def local_x_vector(comp: int, freq: int) -> np.ndarray:
    sign = +1 if comp == 0 else -1
    vec = np.zeros(4, dtype=complex)
    vec[freq] = 1.0 / SQ2  # H component
    vec[2 + freq] = sign / SQ2  # V component
    return vec


def local_basis_vectors(basis: str) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Labeled eigenvectors ((comp, freq), vector) of a local measurement."""
    make = local_z_vector if basis == "Z" else local_x_vector
    return [
        ((comp, freq), make(comp, freq)) for comp in (0, 1) for freq in (0, 1)
    ]


def collapse_b(vec16, local_vec) -> tuple[float, np.ndarray]:
    """Probability and post state of projecting photon b on a local vector."""
    p16 = np.kron(np.eye(4, dtype=complex), projector(local_vec))
    un = p16 @ np.asarray(vec16, dtype=complex)
    p = float(np.real(un.conj() @ un))
    return p, (un / np.sqrt(p) if p > 1e-15 else un)


def collapse_a(vec16, local_vec) -> tuple[float, np.ndarray]:
    p16 = np.kron(projector(local_vec), np.eye(4, dtype=complex))
    un = p16 @ np.asarray(vec16, dtype=complex)
    p = float(np.real(un.conj() @ un))
    return p, (un / np.sqrt(p) if p > 1e-15 else un)


# the closed set of pair states

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "IY": np.array([[0, 1], [-1, 0]], dtype=complex),
}


def closure(vec16, tol: float = 1e-9) -> list[np.ndarray]:
    """Every state reachable from ``vec16``, one vector per global-phase
    class: a Pauli on either photon's polarization, as a dense 16x16
    operator, and every outcome of nonzero probability of a local
    measurement on either photon in either basis."""
    operators = []
    for u in _PAULI_MATRICES.values():
        local = np.kron(u, np.eye(2))  # polarization major, frequency minor
        operators.append(np.kron(local, np.eye(4)))  # on photon a
        operators.append(np.kron(np.eye(4), local))  # on photon b
    found = [np.asarray(vec16, dtype=complex)]
    for vec in found:  # grows while it is walked
        successors = [op @ vec for op in operators]
        for basis in ("Z", "X"):
            for _label, u in local_basis_vectors(basis):
                for collapse in (collapse_a, collapse_b):
                    p, post = collapse(vec, u)
                    if p > tol:
                        successors.append(post)
        for succ in successors:
            if all(abs(np.vdot(f, succ)) < 1.0 - tol for f in found):
                found.append(succ)
    return found


# ---------------------------------------------------------------------------
# wavelength conversion and two-qubit measurements


def erase_frequency(vec16) -> np.ndarray:
    """Coherently drop both frequency indices; returns a normalized
    (HH, HV, VH, VV) vector."""
    vec16 = np.asarray(vec16, dtype=complex)
    out = np.zeros(4, dtype=complex)
    for pa in (0, 1):
        for fa in (0, 1):
            for pb in (0, 1):
                for fb in (0, 1):
                    out[2 * pa + pb] += vec16[(2 * pa + fa) * 4 + (2 * pb + fb)]
    return out / np.linalg.norm(out)


def qubit_vector(basis: str, comp: int) -> np.ndarray:
    if basis == "Z":
        vec = np.zeros(2, dtype=complex)
        vec[comp] = 1.0
        return vec
    sign = +1 if comp == 0 else -1
    return np.array([1.0, sign], dtype=complex) / SQ2


def two_qubit_prob(vec4, basis_a, comp_a, basis_b, comp_b) -> float:
    w = np.kron(qubit_vector(basis_a, comp_a), qubit_vector(basis_b, comp_b))
    return float(abs(np.vdot(w, np.asarray(vec4, dtype=complex))) ** 2)


# ---------------------------------------------------------------------------
# the joint measurement device as dense projectors


def device_projectors() -> list[tuple[tuple[int, int, int, int], np.ndarray]]:
    """(outcome, dense projector) pairs for the receiver's measurement,
    rebuilt from the routing and conversion definition."""
    port_modes = {1: (0, 3), 3: (1, 2), 2: (0, 3), 4: (1, 2)}
    out = []
    for port_a in (1, 3):
        for port_b in (2, 4):
            for x_a in (+1, -1):
                for x_b in (+1, -1):
                    h, v = port_modes[port_a]
                    va = np.zeros(4, dtype=complex)
                    va[h], va[v] = 1.0 / SQ2, x_a / SQ2
                    h, v = port_modes[port_b]
                    vb = np.zeros(4, dtype=complex)
                    vb[h], vb[v] = 1.0 / SQ2, x_b / SQ2
                    w = np.kron(va, vb)
                    out.append(((port_a, port_b, x_a, x_b), np.outer(w, w.conj())))
    return out


# ---------------------------------------------------------------------------
# sampling on the 1/16 grid


def grid_outcome(probabilities, word: int) -> int:
    """The outcome a 64-bit ``word`` picks from a distribution on the 1/16
    grid: the integer counts ``round(16 * p)`` laid end to end over the 16
    values of the word's top 4 bits."""
    top, edge = word >> 60, 0
    for outcome, p in enumerate(probabilities):
        edge += round(16 * float(p))
        if top < edge:
            return outcome
    raise ValueError(f"counts of {list(probabilities)} sum to {edge}, not 16")


# ---------------------------------------------------------------------------
# outcome-tree enumerations

_BASES = {
    "Z": [("Z", 1.0)],
    "X": [("X", 1.0)],
    "RANDOM": [("Z", 0.5), ("X", 0.5)],
}


def wc_expected_error_rates(strategy: str) -> dict[str, float]:
    """Exact matched-basis error rates of the converted-pair check under an
    intercept-resend attack on photon b."""
    err = {"Z": 0.0, "X": 0.0}
    tot = {"Z": 0.0, "X": 0.0}
    for _op_b, (family, sign) in STEP1.items():
        state = pair_state(family, sign)
        for eve_basis, w_basis in _BASES[strategy]:
            for _label, eve_vec in local_basis_vectors(eve_basis):
                p_eve, post = collapse_b(state, eve_vec)
                if p_eve < 1e-15:
                    continue
                v4 = erase_frequency(post)
                for check_basis in ("Z", "X"):
                    expected_agree = (
                        family == "phi" if check_basis == "Z" else sign > 0
                    )
                    p_err = sum(
                        two_qubit_prob(v4, check_basis, ca, check_basis, cb)
                        for ca in (0, 1)
                        for cb in (0, 1)
                        if (ca == cb) != expected_agree
                    )
                    weight = 0.25 * w_basis * p_eve * 0.25
                    err[check_basis] += weight * p_err
                    tot[check_basis] += weight
    return {
        "z": err["Z"] / tot["Z"],
        "x": err["X"] / tot["X"],
        "pooled": (err["Z"] + err["X"]) / (tot["Z"] + tot["X"]),
    }


def decoy_expected_error_rates(strategy: str) -> dict[str, float]:
    """Exact matched-basis error rate of the check-photon comparison under
    an intercept-resend attack, split by preparation basis."""
    err = {"Z": 0.0, "X": 0.0}
    tot = {"Z": 0.0, "X": 0.0}
    for prep_basis in ("Z", "X"):
        for (comp, freq), prep in local_basis_vectors(prep_basis):
            for eve_basis, w_basis in _BASES[strategy]:
                for _label, u in local_basis_vectors(eve_basis):
                    p_eve = float(abs(np.vdot(u, prep)) ** 2)
                    if p_eve < 1e-15:
                        continue
                    p_err = sum(
                        float(abs(np.vdot(w, u)) ** 2)
                        for (c2, f2), w in local_basis_vectors(prep_basis)
                        if (c2, f2) != (comp, freq)
                    )
                    weight = 0.125 * w_basis * p_eve
                    err[prep_basis] += weight * p_err
                    tot[prep_basis] += weight
    return {
        "z_prepared": err["Z"] / tot["Z"],
        "x_prepared": err["X"] / tot["X"],
        "pooled": (err["Z"] + err["X"]) / (tot["Z"] + tot["X"]),
    }


def mutual_information_bits(joint: dict) -> float:
    """Mutual information of a joint distribution given as {(x, y): p}."""
    px: dict = {}
    py: dict = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    mi = 0.0
    for (x, y), p in joint.items():
        if p > 1e-15:
            mi += p * log2(p / (px[x] * py[y]))
    return mi


def eve_codeword_mutual_information(strategy: str) -> float:
    """Exact mutual information between the attacker's per-pair record
    (basis, outcome) and the final codeword, attack on photon b only."""
    joint: dict = {}
    for codeword, op_options in CODEWORD_OPB.items():
        for op_b in op_options:
            family, sign = STEP1[op_b]
            state = pair_state(family, sign)
            for eve_basis, w_basis in _BASES[strategy]:
                for label, u in local_basis_vectors(eve_basis):
                    p, _ = collapse_b(state, u)
                    if p < 1e-15:
                        continue
                    key = ((eve_basis, label), codeword)
                    joint[key] = joint.get(key, 0.0) + 0.125 * 0.5 * w_basis * p
    return mutual_information_bits(joint)
