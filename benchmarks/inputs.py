"""Seeded benchmark inputs, drawn with numpy.random.default_rng(seed).

The package's own RNG is never used here, so a change to the package
cannot change its inputs. The mix of document kinds is fixed exactly
(stratified blocks, then shuffled); the seed only changes the numbers.

Every input carries what the checks need: the expected exit code and,
for channels, the reference affine form (m, c) from the Pauli-transfer
route in ``reference``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import reference

I2 = reference.PAULI_BASIS[0]
PAULIS = reference.PAULI_BASIS[1:]

FAMILIES = ("pauli", "gad", "mixed_unitary", "tetrahedron", "unitary")
BLOCK = 20  # stream documents per block of the fixed mix


@dataclass
class Doc:
    """One channel document and what answering it must produce."""

    kind: str  # "kraus", "affine", "family" or "invalid"
    text: str
    expect_exit: int = 0
    m: np.ndarray | None = None
    c: np.ndarray | None = None


def _cjson(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _rjson(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def random_kraus_ops(rng, k: int) -> np.ndarray:
    """k stacked 2x2 operators from the orthonormal columns of a Gaussian (2k x 2)."""
    g = rng.standard_normal((2 * k, 2)) + 1j * rng.standard_normal((2 * k, 2))
    q, _ = np.linalg.qr(g)
    return q.reshape(k, 2, 2)


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _expm_su2(theta: float, axis) -> np.ndarray:
    n_sigma = np.einsum("i,ijk->jk", np.asarray(axis, dtype=float), PAULIS)
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * n_sigma


def kraus_doc(rng, k: int) -> Doc:
    ops = random_kraus_ops(rng, k)
    m, c = reference.affine_of_kraus(ops)
    return Doc("kraus", json.dumps({"type": "kraus", "operators": [_cjson(op) for op in ops]}), m=m, c=c)


def affine_doc(rng, k: int) -> Doc:
    m, c = reference.affine_of_kraus(random_kraus_ops(rng, k))
    return Doc("affine", json.dumps({"type": "affine", "m": _rjson(m), "c": _rjson(c)}), m=m, c=c)


def _family_ops(name: str, prm: dict) -> list:
    """Kraus operators of a family point, written from the family definitions."""
    if name == "pauli":
        return [np.sqrt(p) * s for p, s in zip(prm["p"], reference.PAULI_BASIS)]
    if name == "gad":
        g, p = prm["gamma"], prm["p"]
        off = np.sqrt(1.0 - g * g)
        return [
            np.sqrt(p) * np.array([[1, 0], [0, g]]),
            np.sqrt(p) * np.array([[0, off], [0, 0]]),
            np.sqrt(1 - p) * np.array([[g, 0], [0, 1]]),
            np.sqrt(1 - p) * np.array([[0, 0], [off, 0]]),
        ]
    if name == "mixed_unitary":
        p, t = prm["p"], prm["theta"]
        return [np.sqrt(1 - 3 * p) * I2] + [np.sqrt(p) * _expm_su2(t, np.eye(3)[i]) for i in range(3)]
    if name == "tetrahedron":
        p, pp = prm["p"], prm["p_prime"]
        corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
        ops = [np.sqrt(max(1 - 2 * p - 2 * pp, 0.0)) * I2]
        for w, v in zip((pp, p, p, pp), corners):
            ops.append(np.sqrt(w) * np.einsum("i,ijk->jk", v, PAULIS))
        return ops
    return [_expm_su2(prm["theta"], prm["axis"])]


def _family_params(rng, name: str, exact: bool) -> dict:
    """Random family parameters; exact=True picks a tie, trivial or exact-rotation point."""
    if name == "pauli":
        if exact:
            top = rng.uniform(0.3, 0.5)
            return {"p": [1 - 2 * top, top, top, 0.0] if rng.random() < 0.5 else [1.0, 0.0, 0.0, 0.0]}
        return {"p": rng.dirichlet(np.ones(4)).tolist()}
    if name == "gad":
        return {"gamma": 0.0 if exact else rng.uniform(-1, 1), "p": rng.uniform(0, 1)}
    if name == "mixed_unitary":
        return {"p": rng.uniform(0, 1 / 3), "theta": 0.0 if exact else rng.uniform(-np.pi, np.pi)}
    if name == "tetrahedron":
        if exact:
            p = rng.uniform(0.19, 0.25)
            return {"p": p, "p_prime": p}
        s = rng.uniform(0, 0.5)
        w = rng.uniform(0, 1)
        return {"p": s * w, "p_prime": s * (1 - w)}
    if exact:
        axis = [0.0, 0.0, 0.0]
        axis[int(rng.integers(3))] = 1.0
        return {"theta": float(np.pi / 2 if rng.random() < 0.5 else np.pi), "axis": axis}
    axis = rng.standard_normal(3)
    return {"theta": rng.uniform(-np.pi, np.pi), "axis": (axis / np.linalg.norm(axis)).tolist()}


def family_doc(rng, name: str, exact: bool = False) -> Doc:
    prm = {k: (float(v) if isinstance(v, float) else v) for k, v in _family_params(rng, name, exact).items()}
    m, c = reference.affine_of_kraus(np.array(_family_ops(name, prm), dtype=complex))
    return Doc("family", json.dumps({"type": name, **prm}), m=m, c=c)


INVALID_KINDS = (
    "truncated_json", "missing_field", "bad_shape", "bool_number",
    "c_out_of_ball", "m_out_of_ball", "transpose_map", "non_cp",
)


def invalid_doc(rng, what: str) -> Doc:
    """A document that must be refused: exit 2 (malformed, out of ball) or 3 (not CP)."""
    if what == "truncated_json":
        text = kraus_doc(rng, 2).text
        return Doc("invalid", text[: len(text) // 2], 2)
    if what == "missing_field":
        return Doc("invalid", json.dumps({"type": "kraus"}), 2)
    if what == "bad_shape":
        ops = random_kraus_ops(rng, 2)
        return Doc("invalid", json.dumps({"type": "kraus", "operators": [_cjson(ops[0])[:1]]}), 2)
    if what == "bool_number":
        return Doc("invalid", json.dumps({"type": "pauli", "p": [True, 0, 0, 0]}), 2)
    if what == "c_out_of_ball":
        c = rng.standard_normal(3)
        c *= rng.uniform(1.1, 2.0) / np.linalg.norm(c)
        return Doc("invalid", json.dumps({"type": "affine", "m": _rjson(0.1 * np.eye(3)), "c": _rjson(c)}), 2)
    if what == "m_out_of_ball":
        m = rng.uniform(1.1, 2.0) * _rotation(rng)
        return Doc("invalid", json.dumps({"type": "affine", "m": _rjson(m), "c": [0, 0, 0]}), 2)
    if what == "transpose_map":
        m, c = np.diag([1.0, -1.0, 1.0]), np.zeros(3)
    else:
        # t * transpose is CP only for t <= 1/3; conjugating by a rotation keeps that
        r = _rotation(rng)
        m, c = r @ (rng.uniform(0.5, 1.0) * np.diag([1.0, -1.0, 1.0])) @ r.T, np.zeros(3)
    return Doc("invalid", json.dumps({"type": "affine", "m": _rjson(m), "c": _rjson(c)}), 3, m, c)


def stream_docs(seed: int, blocks: int) -> list[Doc]:
    """The stream mix, in blocks of BLOCK = 20 documents, each shuffled.

    Per block: 12 Kraus documents (3 each with 1..4 operators), 3 affine,
    4 family documents cycling through the five families with every
    fourth one at an exact tie, trivial optimum or exact rotation, and 1
    invalid document cycling through INVALID_KINDS. Any run of whole
    blocks therefore has exactly this mix.
    """
    rng = np.random.default_rng([seed, 1])
    docs = []
    fam = 0
    for b in range(blocks):
        block = [kraus_doc(rng, k) for k in (1, 2, 3, 4) for _ in range(3)]
        block += [affine_doc(rng, k) for k in (2, 3, 4)]
        for _ in range(4):
            block.append(family_doc(rng, FAMILIES[fam % 5], exact=(fam // 5) % 4 == 3))
            fam += 1
        block.append(invalid_doc(rng, INVALID_KINDS[b % len(INVALID_KINDS)]))
        docs += [block[i] for i in rng.permutation(len(block))]
    return docs


def oneshot_docs(seed: int) -> list[Doc]:
    """A Pauli document, a family document and random Kraus documents (1..4 operators)."""
    rng = np.random.default_rng([seed, 2])
    return [family_doc(rng, "pauli"), family_doc(rng, "gad")] + [kraus_doc(rng, k) for k in (1, 2, 3, 4)]


def sampling_docs(seed: int) -> list[Doc]:
    """A few channels for the samplers: two Kraus, one family, one affine."""
    rng = np.random.default_rng([seed, 3])
    return [kraus_doc(rng, 2), kraus_doc(rng, 4), family_doc(rng, "gad"), affine_doc(rng, 3)]


def command_seeds(seed: int, n: int) -> list[int]:
    """Seeds for the package's own sampling and ``random`` commands."""
    return [int(s) for s in np.random.default_rng([seed, 4]).integers(0, 2**31, n)]
