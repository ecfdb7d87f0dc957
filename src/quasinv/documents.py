"""JSON channel documents: parsing, rendering, and the published schemas.

One JSON object describes one channel. Complex numbers are [re, im]
pairs, matrices are row-major nested arrays, and all floats are emitted
with 17 significant digits so documents round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import AffineChannel, KrausChannel, kraus_to_affine
from .zoo import FAMILY_TABLE, Family, FamilySpec, make

_FAMILY_BY_TYPE = {family.doc_type: family for family in FAMILY_TABLE}
CHANNEL_TYPES = ("kraus", "affine", *_FAMILY_BY_TYPE)


class DocumentError(ValueError):
    """A channel document that cannot be parsed or fails validation."""


@dataclass
class ParsedChannel:
    """A channel document resolved to concrete representations."""

    label: str
    doc: dict
    affine: AffineChannel
    kraus: KrausChannel | None


# ---------------------------------------------------------------------------
# published JSON schemas
# ---------------------------------------------------------------------------

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_CMATRIX2 = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": _COMPLEX},
}


def _rvector(n: int) -> dict:
    return {"type": "array", "minItems": n, "maxItems": n, "items": {"type": "number"}}


_RVECTOR3 = _rvector(3)
_RMATRIX3 = {"type": "array", "minItems": 3, "maxItems": 3, "items": _RVECTOR3}
_RMATRIX4 = {"type": "array", "minItems": 4, "maxItems": 4, "items": _rvector(4)}


def _family_branch(family: Family) -> dict:
    fields = {
        name: _rvector(len(components)) if components else {"type": "number"}
        for name, components in family.params.items()
    }
    return {
        "properties": {"type": {"const": family.doc_type}, **fields},
        "required": ["type", *family.params],
    }


CHANNEL_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "channel document",
    "type": "object",
    "required": ["type"],
    "properties": {"label": {"type": "string"}},
    "oneOf": [
        {
            "properties": {
                "type": {"const": "kraus"},
                "operators": {"type": "array", "minItems": 1, "items": _CMATRIX2},
            },
            "required": ["type", "operators"],
        },
        {
            "properties": {"type": {"const": "affine"}, "m": _RMATRIX3, "c": _RVECTOR3},
            "required": ["type", "m", "c"],
        },
        *map(_family_branch, FAMILY_TABLE),
    ],
}

_CPTP_SCHEMA = {
    "type": "object",
    "required": ["tp_exact", "tp_residual", "min_choi_eigenvalue", "passed"],
    "properties": {
        "tp_exact": {"type": "boolean"},
        "tp_residual": {"type": ["number", "null"]},
        "min_choi_eigenvalue": {"type": "number"},
        "passed": {"type": "boolean"},
    },
}

RESULT_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "analysis result document",
    "type": "object",
    "required": ["input", "affine", "cptp"],
    "properties": {
        "input": {"type": "object"},
        "affine": {
            "type": "object",
            "required": ["m", "c"],
            "properties": {"m": _RMATRIX3, "c": _RVECTOR3},
        },
        "cptp": _CPTP_SCHEMA,
        "mstd_before": {"type": "number"},
        "q_matrix": _RMATRIX4,
        "lambda_max": {"type": "number"},
        "quasi_inverse": {
            "type": "object",
            "required": ["x", "matrix"],
            "properties": {
                "x": {
                    "type": "array",
                    "minItems": 4,
                    "maxItems": 4,
                    "items": {"type": "number"},
                },
                "matrix": _CMATRIX2,
            },
        },
        "delta_mstd": {"type": "number"},
        "mstd_after": {"type": "number"},
        "trivial": {"type": "boolean"},
        "degenerate": {"type": "boolean"},
    },
}

MSTD_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "mstd document",
    "type": "object",
    "required": ["input", "mstd"],
    "properties": {
        "input": {"type": "object"},
        "mstd": {
            "type": "object",
            "required": ["value", "method", "stderr", "n_samples"],
            "properties": {
                "value": {"type": "number"},
                "method": {
                    "enum": [
                        "analytic-ball",
                        "analytic-surface",
                        "monte-carlo-ball",
                        "monte-carlo-surface",
                    ]
                },
                "stderr": {"type": ["number", "null"]},
                "n_samples": {"type": ["integer", "null"]},
            },
        },
    },
}

VERIFICATION_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "verification document",
    "type": "object",
    "required": ["input", "verification"],
    "properties": {
        "input": {"type": "object"},
        "verification": {
            "type": "object",
            "required": [
                "channel_id",
                "solver_delta",
                "best_sampled_delta",
                "n_samples",
                "max_violation",
                "passed",
            ],
            "properties": {
                "channel_id": {"type": "string"},
                "solver_delta": {"type": "number"},
                "best_sampled_delta": {"type": "number"},
                "n_samples": {"type": "integer"},
                "max_violation": {"type": "number"},
                "passed": {"type": "boolean"},
            },
        },
    },
}

ERROR_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "error document",
    "type": "object",
    "required": ["error"],
    "properties": {
        "error": {
            "type": "object",
            "required": ["code", "message"],
            "properties": {"code": {"type": "string"}, "message": {"type": "string"}},
        }
    },
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str):
    if key not in obj:
        raise DocumentError(f"channel document is missing field {key!r}")
    return obj[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, name: str) -> float:
    if not _is_number(value):
        raise DocumentError(f"field {name!r} must be a number")
    return float(value)


def _as_array(raw, shape: tuple, message: str) -> np.ndarray:
    """Nested lists of JSON numbers (no strings, bools or nulls) as a float array."""
    arr = np.array(raw, dtype=object)
    if arr.shape != shape or not all(map(_is_number, arr.flat)):
        raise DocumentError(message)
    return arr.astype(float)


def parse_channel_document(obj) -> ParsedChannel:
    """Resolve a channel document to affine (always) and Kraus (when known)."""
    if not isinstance(obj, dict):
        raise DocumentError("channel document must be a JSON object")
    doc_type = _require(obj, "type")
    if doc_type not in CHANNEL_TYPES:
        raise DocumentError(f"unknown channel type {doc_type!r}, expected one of {CHANNEL_TYPES}")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise DocumentError("label must be a string")

    try:
        if doc_type == "kraus":
            raw_ops = _require(obj, "operators")
            if not isinstance(raw_ops, list) or not raw_ops:
                raise DocumentError("kraus document needs a nonempty operators list")
            message = "each kraus operator must be a 2x2 matrix of [re, im] number pairs"
            arr = _as_array(raw_ops, (len(raw_ops), 2, 2, 2), message)
            ops = list(arr[..., 0] + 1j * arr[..., 1])
            kraus = KrausChannel(ops)
            affine = kraus_to_affine(kraus)
        elif doc_type == "affine":
            message = "affine document needs a 3x3 'm' and 3-vector 'c' of numbers"
            m = _as_array(_require(obj, "m"), (3, 3), message)
            c = _as_array(_require(obj, "c"), (3,), message)
            kraus = None
            affine = AffineChannel(m, c)
        else:
            kraus, _ = make(_parse_family(_FAMILY_BY_TYPE[doc_type], obj))
            affine = kraus_to_affine(kraus)
    except DocumentError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise DocumentError(str(exc)) from exc
    return ParsedChannel(label=label, doc=obj, affine=affine, kraus=kraus)


def _parse_family(family: Family, obj: dict) -> FamilySpec:
    """Family parameters of a document; make() checks that they are finite."""
    params = {}
    for name, components in family.params.items():
        value = _require(obj, name)
        if not components:
            params[name] = _as_float(value, name)
        elif isinstance(value, list) and len(value) == len(components):
            params[name] = [_as_float(x, name) for x in value]
        else:
            raise DocumentError(f"{family.doc_type} document needs {name} = [{', '.join(components)}]")
    return FamilySpec(family.name, params)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def real_matrix_to_json(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def kraus_document(k: KrausChannel, label: str = "") -> dict:
    doc = {"type": "kraus", "operators": [complex_matrix_to_json(op) for op in k.operators]}
    if label:
        doc["label"] = label
    return doc


def dumps(obj, indent: int | None = None) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _render(obj, indent, 0)


def _render(obj, indent: int | None, level: int) -> str:
    kind = type(obj)  # exact types first: nearly every value is a float, list or dict
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj}")
        return f"{obj:.17g}" if obj else "0"  # "0" for -0.0 too
    if kind is list or (kind is not dict and isinstance(obj, (list, tuple))):
        if not obj:
            return "[]"
        return "[" + ", ".join([_render(value, indent, level + 1) for value in obj]) + "]"
    if kind is dict or isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be strings")
        pad_in = pad = ""
        if indent is not None:
            pad_in, pad = "\n" + " " * (indent * (level + 1)), "\n" + " " * (indent * level)
        items = [encode_basestring_ascii(k) + ": " + _render(v, indent, level + 1) for k, v in obj.items()]
        return "{" + pad_in + ("," + (pad_in or " ")).join(items) + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render(float(obj), indent, level)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")
