"""JSON channel documents: parsing, rendering, and the published schemas.

One JSON object describes one channel. Complex numbers are [re, im]
pairs, matrices are row-major nested arrays, and all floats are emitted
with 17 significant digits so documents round-trip exactly.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import AffineChannel, CptpReport, KrausChannel, kraus_to_affine
from .inverter import QForm, QuasiInverseResult
from .metrics import METHODS, MstdReport
from .numerics import _checked_array
from .oracle import VerificationReport
from .zoo import FAMILY_TABLE, FamilySpec, channel

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


def _array(items: dict, n: int) -> dict:
    """Schema of an array of exactly n items."""
    return {"type": "array", "minItems": n, "maxItems": n, "items": items}


def _branch(doc_type: str, /, **fields) -> dict:
    """A CHANNEL_DOCUMENT_SCHEMA branch: the document type and its fields, all required."""
    return {"properties": {"type": {"const": doc_type}, **fields}, "required": ["type", *fields]}


_CMATRIX2 = _array(_array(_COMPLEX, 2), 2)
_RVECTOR3 = _array({"type": "number"}, 3)
_RMATRIX3 = _array(_RVECTOR3, 3)
_RMATRIX4 = _array(_array({"type": "number"}, 4), 4)

CHANNEL_DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "channel document",
    "type": "object",
    "required": ["type"],
    "properties": {"label": {"type": "string"}},
    "oneOf": [
        _branch("kraus", operators={"type": "array", "minItems": 1, "items": _CMATRIX2}),
        _branch("affine", m=_RMATRIX3, c=_RVECTOR3),
        *[_branch(family.doc_type, **{
            name: _array({"type": "number"}, len(components)) if components else {"type": "number"}
            for name, components in family.params.items()
        }) for family in FAMILY_TABLE],
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
    "quasi_inverse": _object({"x": _array({"type": "number"}, 4), "matrix": _CMATRIX2}),
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


def _finite(value) -> bool:
    """Whether a JSON value, or one built in Python with NumPy floats, holds no NaN or infinity at any depth."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _as_array(raw, shape: tuple, message: str, name: str) -> np.ndarray:
    """Field ``name`` by the one array intake as a float array; any refusal but an overflow is ``message``."""
    try:
        return _checked_array(raw, shape, name)
    except OverflowError:
        raise DocumentError(f"field {name!r} holds an integer too large for a float") from None
    except (TypeError, ValueError):
        raise DocumentError(message) from None


def parse_channel_document(obj) -> ParsedChannel:
    """Resolve a channel document to affine (always) and Kraus (when known)."""
    if not isinstance(obj, dict):
        raise DocumentError("channel document must be a JSON object")
    doc_type = _require(obj, "type")
    if doc_type not in CHANNEL_TYPES:
        raise DocumentError(f"unknown channel type {reprlib.repr(doc_type)}, expected one of {CHANNEL_TYPES}")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise DocumentError("label must be a string")
    # the checks below refuse non-finite numbers in the fields they read; the rest is echoed as
    # given, and JSON output has no NaN or infinity
    read = _FIELDS_READ[doc_type]
    for key, value in obj.items():
        if key not in read and not _finite(value):
            raise DocumentError(f"field {reprlib.repr(key)} holds a non-finite number")

    try:
        if doc_type == "kraus":
            raw_ops = _require(obj, "operators")
            if not isinstance(raw_ops, list) or not raw_ops:
                raise DocumentError("kraus document needs a nonempty operators list")
            message = "each kraus operator must be a 2x2 matrix of [re, im] number pairs"
            arr = _as_array(raw_ops, (len(raw_ops), 2, 2, 2), message, "operators")
            with np.errstate(invalid="ignore"):  # inf * 0j is nan, which KrausChannel refuses
                ops = arr[..., 0] + 1j * arr[..., 1]
            kraus = KrausChannel._of_own(ops)
            affine = kraus_to_affine(kraus)
        elif doc_type == "affine":
            message = "affine document needs a 3x3 'm' and 3-vector 'c' of numbers"
            m = _as_array(_require(obj, "m"), (3, 3), message, "m")
            c = _as_array(_require(obj, "c"), (3,), message, "c")
            kraus = None
            affine = AffineChannel._of_own(m, c)
        else:  # zoo checks the parameters, as it does for every FamilySpec
            family = _FAMILY_BY_TYPE[doc_type]
            kraus = channel(FamilySpec(family.name, {name: _require(obj, name) for name in family.params}))
            affine = kraus_to_affine(kraus)
    except (ValueError, TypeError, OverflowError) as exc:  # a DocumentError too, with its message kept
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
    """Deterministic JSON: floats (numpy's too) as ``.17g``, so they round-trip, and ``0`` for -0.0.

    Lists, tuples and numpy arrays go on one line; ``indent`` lays out dicts
    only. Strings use ASCII escapes. The first fault in document order
    raises: ValueError for a NaN or infinity, TypeError for a non-string key.
    """
    return _render(obj, indent, 0)


def _render(obj, indent: int | None, level: int) -> str:
    kind = type(obj)  # exact types first: nearly every value is a float, list or dict
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj}")
        return f"{obj:.17g}" if obj else "0"  # "0" for -0.0 too
    if kind is list or (kind is not dict and isinstance(obj, (list, tuple))):
        items = []
        for x in obj:
            if type(x) is float and x - x == 0.0:  # a finite float inline: x - x is nan for inf and nan
                items.append(f"{x:.17g}" if x else "0")
            else:
                items.append(_render(x, indent, level + 1))
        return f"[{', '.join(items)}]"
    if kind is dict or isinstance(obj, dict):
        if not obj:
            return "{}"
        pad_in = pad = ""
        if indent is not None:
            pad_in, pad = "\n" + " " * (indent * (level + 1)), "\n" + " " * (indent * level)
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            items.append(encode_basestring_ascii(key) + ": " + _render(value, indent, level + 1))
        return "{" + pad_in + ("," + (pad_in or " ")).join(items) + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
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

