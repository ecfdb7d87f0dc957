"""JSON channel documents: parsing, rendering, and the published schemas.

One JSON object describes one channel. Complex numbers are [re, im]
pairs, matrices are row-major nested arrays, and all floats are emitted
with 17 significant digits so documents round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import AffineChannel, CptpReport, KrausChannel, kraus_to_affine
from .inverter import QForm, QuasiInverseResult
from .metrics import METHODS, MstdReport
from .oracle import VerificationReport
from .zoo import FAMILY_TABLE, Family, FamilySpec, channel

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
# the fields parse_channel_document reads, by document type: those its schema branch declares
_FIELDS_READ = {
    branch["properties"]["type"]["const"]: {"label", *branch["properties"]}
    for branch in CHANNEL_DOCUMENT_SCHEMA["oneOf"]
}

_JSON_TYPES = {"bool": "boolean", "float": "number", "int": "integer", "str": "string"}


def _json_type(annotation: str) -> str | list:
    """JSON type of a report field's annotation: bool, float, int, str, or one of them | None."""
    if annotation.endswith(" | None"):
        return [_JSON_TYPES[annotation.removesuffix(" | None")], "null"]
    return _JSON_TYPES[annotation]


def _object(properties: dict) -> dict:
    """Schema of an object whose properties are all required."""
    return {"type": "object", "required": list(properties), "properties": properties}


def _report_schema(cls, **overrides) -> dict:
    """Schema of a report rendered as vars(report): every field is required, in field order."""
    return _object({
        f.name: overrides[f.name] if f.name in overrides else {"type": _json_type(f.type)}
        for f in fields(cls)
    })


def _document_schema(title: str, required: dict, optional: dict | None = None) -> dict:
    """Schema of a top-level document: its required properties, then any optional ones."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": title,
        "type": "object",
        "required": list(required),
        "properties": {**required, **(optional or {})},
    }


_INPUT = {"type": "object"}  # the channel document, echoed as given

# The analysis document's solver keys in order: solver_fields renders each
# from the QuasiInverseResult field of that name, but q_matrix and quasi_inverse.
# They are absent from the document of a channel that fails the CPTP check.
_SOLVER_SCHEMAS = {
    "mstd_before": {"type": "number"},
    "q_matrix": _RMATRIX4,
    "lambda_max": {"type": "number"},
    "quasi_inverse": _object({"x": _rvector(4), "matrix": _CMATRIX2}),
    "delta_mstd": {"type": "number"},
    "mstd_after": {"type": "number"},
    "trivial": {"type": "boolean"},
    "degenerate": {"type": "boolean"},
}

RESULT_DOCUMENT_SCHEMA = _document_schema(
    "analysis result document",
    {"input": _INPUT, "affine": _object({"m": _RMATRIX3, "c": _RVECTOR3}), "cptp": _report_schema(CptpReport)},
    _SOLVER_SCHEMAS,
)

MSTD_DOCUMENT_SCHEMA = _document_schema(
    "mstd document",
    {"input": _INPUT, "mstd": _report_schema(MstdReport, method={"enum": list(METHODS)})},
)

VERIFICATION_DOCUMENT_SCHEMA = _document_schema(
    "verification document", {"input": _INPUT, "verification": _report_schema(VerificationReport)}
)

ERROR_DOCUMENT_SCHEMA = _document_schema(
    "error document", {"error": _object({"code": {"type": "string"}, "message": {"type": "string"}})}
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str):
    if key not in obj:
        raise DocumentError(f"channel document is missing field {key!r}")
    return obj[key]


_PLAIN_NUMBERS = frozenset((int, float))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a JSON value holds no NaN or infinite number at any depth."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _as_array(raw, shape: tuple, message: str, name: str) -> np.ndarray:
    """Field ``name``: nested lists or tuples of numbers (not bools) as a float array."""
    items = [raw]
    for n in shape:
        if not all(isinstance(x, (list, tuple)) and len(x) == n for x in items):
            raise DocumentError(message)
        items = [y for x in items for y in x]
    # exact int and float leaves pass at once; _is_number decides anything else (bools, subclasses)
    if not set(map(type, items)) <= _PLAIN_NUMBERS and not all(map(_is_number, items)):
        raise DocumentError(message)
    try:
        return np.array(items, dtype=float).reshape(shape)
    except OverflowError:
        raise DocumentError(f"field {name!r} holds an integer too large for a float") from None


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
    # the checks below refuse non-finite numbers in the fields they read; the rest is echoed as
    # given, and JSON output has no NaN or infinity
    read = _FIELDS_READ[doc_type]
    for key, value in obj.items():
        if key not in read and not _finite(value):
            raise DocumentError(f"field {key!r} holds a non-finite number")

    try:
        if doc_type == "kraus":
            raw_ops = _require(obj, "operators")
            if not isinstance(raw_ops, list) or not raw_ops:
                raise DocumentError("kraus document needs a nonempty operators list")
            message = "each kraus operator must be a 2x2 matrix of [re, im] number pairs"
            arr = _as_array(raw_ops, (len(raw_ops), 2, 2, 2), message, "operators")
            with np.errstate(invalid="ignore"):  # inf * 0j is nan, which KrausChannel refuses
                ops = arr[..., 0] + 1j * arr[..., 1]
            kraus = KrausChannel(ops)
            affine = kraus_to_affine(kraus)
        elif doc_type == "affine":
            message = "affine document needs a 3x3 'm' and 3-vector 'c' of numbers"
            m = _as_array(_require(obj, "m"), (3, 3), message, "m")
            c = _as_array(_require(obj, "c"), (3,), message, "c")
            kraus = None
            affine = AffineChannel(m, c)
        else:  # zoo checks the parameters, as it does for every FamilySpec
            family = _FAMILY_BY_TYPE[doc_type]
            kraus = channel(FamilySpec(family.name, {name: _require(obj, name) for name in family.params}))
            affine = kraus_to_affine(kraus)
    except DocumentError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise DocumentError(str(exc)) from exc
    return ParsedChannel(label=label, doc=obj, affine=affine, kraus=kraus)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def kraus_document(k: KrausChannel, label: str = "") -> dict:
    doc = {"type": "kraus", "operators": [complex_matrix_to_json(op) for op in k.operators]}
    if label:
        doc["label"] = label
    return doc


def validated_document(parsed: ParsedChannel, report: CptpReport) -> dict:
    """The keys every analysis document has: input, affine form and CPTP report."""
    affine = {"m": parsed.affine.m.tolist(), "c": parsed.affine.c.tolist()}
    # reports render as vars(): their dataclass field order is the documents' key order
    return {"input": parsed.doc, "affine": affine, "cptp": vars(report)}


def solver_fields(result: QuasiInverseResult, qf: QForm) -> dict:
    """The solver keys of an analysis document, in the order _SOLVER_SCHEMAS declares."""
    special = {
        "q_matrix": qf.q.tolist(),
        "quasi_inverse": {"x": result.x.tolist(), "matrix": complex_matrix_to_json(result.unitary)},
    }
    return {key: special[key] if key in special else getattr(result, key) for key in _SOLVER_SCHEMAS}


def report_document(parsed: ParsedChannel, key: str, report) -> dict:
    """The input channel document and one report under key: an mstd or verification document."""
    return {"input": parsed.doc, key: vars(report)}


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
        # finite floats inline (x - x is nan for inf and nan), anything else by recursion
        items = [(f"{x:.17g}" if x else "0") if type(x) is float and x - x == 0.0
                 else _render(x, indent, level + 1) for x in obj]
        return "[" + ", ".join(items) + "]"
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
    if isinstance(obj, np.ndarray):  # a vector family parameter given from Python
        return _render(obj.tolist(), indent, level)
    raise TypeError(f"cannot serialize {type(obj)!r}")
