"""One number rule for every intake: the Python API, channel documents and family parameters.

A number is an int or a float, Python's or NumPy's, never a bool; the
complex intakes take complex numbers too (``numerics._is_number``). Each
leaf below is swapped into a valid argument of every intake. A leaf the
rule takes behaves as its plain value does, with the same result or the
same refusal; a leaf it refuses gets that intake's own message.
"""

import reprlib
from fractions import Fraction

import numpy as np
import pytest

from quasinv.channels import IDENTITY2, KrausChannel, check_bloch, phase_distance
from quasinv.documents import DocumentError, dumps, parse_channel_document
from quasinv.zoo import FamilySpec, channel
from test_channels import COMPLEX_INTAKES, INTAKES

_AFFINE_MESSAGE = "affine document needs a 3x3 'm' and 3-vector 'c' of numbers"
_KRAUS_MESSAGE = "each kraus operator must be a 2x2 matrix of [re, im] number pairs"
_M = [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]
_RAGGED = [0.5, [0.5]]  # ragged itself, and makes any row it stands in ragged
_HUGE = 10**400  # an integer no float holds

# (leaf, its plain value if every intake takes it; 0.5j is taken by the complex intakes only)
LEAVES = [
    pytest.param(True, None, id="True"),
    pytest.param(np.bool_(True), None, id="np.bool_"),
    pytest.param(None, None, id="None"),
    pytest.param({}, None, id="dict"),
    pytest.param("0.5", None, id="str"),
    pytest.param(0.5j, None, id="complex"),
    pytest.param(_RAGGED, None, id="ragged row"),
    pytest.param(np.int64(1), 1.0, id="np.int64"),
    pytest.param(np.float32(0.5), 0.5, id="np.float32"),
    pytest.param(Fraction(1, 2), None, id="Fraction"),
    pytest.param(_HUGE, None, id="10**400"),
]


def _swapped(valid, leaf):
    """``valid`` as a Python list with its first entry replaced by ``leaf``; a scalar is replaced whole."""
    if np.ndim(valid) == 0:
        return leaf
    rows = np.asarray(valid).tolist()
    row = rows
    while isinstance(row[0], list):
        row = row[0]
    row[0] = leaf
    return rows


def _api_intakes():
    """(field, call, refusal word) of every API intake, called on a Python list of the values it takes."""
    for param in INTAKES:
        intake, name, valid, _ = param.values
        yield name, lambda leaf, intake=intake, valid=valid: intake(_swapped(valid, leaf)), "real"
    for param in COMPLEX_INTAKES:
        intake, name, (_, valid, _), _ = param.values  # the real one of its integer, real and complex arguments
        yield name, lambda leaf, intake=intake, valid=valid: intake(_swapped(valid, leaf)), "numeric"
    # two more complex intakes, of 2x2 matrices
    yield "a", lambda leaf: phase_distance(_swapped(IDENTITY2, leaf), IDENTITY2), "numeric"
    yield "x", lambda leaf: KrausChannel([IDENTITY2]).evaluate(_swapped(IDENTITY2, leaf)), "numeric"


def _outcome(call, leaf):
    try:
        call(leaf)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def _api_refusal(name, kind, leaf):
    if leaf is _RAGGED:
        return ValueError, f"{name} must be a regular array, got ragged rows"
    if leaf is _HUGE:
        return OverflowError, "int too large to convert to float"
    return TypeError, f"{name} must be {kind}, got dtype {np.asarray(leaf).dtype}"


def _document(doc):
    return dumps(parse_channel_document(doc).doc)  # a taken leaf is echoed back


_IDENTITY_OPERATOR = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
# (call, field, the field's own message)
_DOCUMENT_INTAKES = [
    (lambda leaf: _document({"type": "affine", "m": _swapped(_M, leaf), "c": [0, 0, 0]}), "m", _AFFINE_MESSAGE),
    (lambda leaf: _document({"type": "affine", "m": _M, "c": [leaf, 0, 0]}), "c", _AFFINE_MESSAGE),
    (lambda leaf: _document({"type": "kraus", "operators": [_swapped(_IDENTITY_OPERATOR, leaf)]}),
     "operators", _KRAUS_MESSAGE),
]
_FAMILY_INTAKES = [
    (lambda leaf: channel(FamilySpec("gad", {"gamma": leaf, "p": 0.5})), "gamma"),
    (lambda leaf: channel(FamilySpec("rotation", {"theta": 1.0, "axis": [leaf, 0.6, 0.8]})), "axis"),
]


@pytest.mark.parametrize("leaf, plain", LEAVES)
class TestOneNumberRule:
    def test_api_intakes(self, leaf, plain):
        for name, call, kind in _api_intakes():
            got = _outcome(call, leaf)
            if plain is not None:
                assert got == _outcome(call, plain), name
            elif kind == "numeric" and isinstance(leaf, complex):
                # taken: the matrix may then fail a later check, but not the intake's
                assert got is None or (got[0] is ValueError and not got[1].startswith(f"{name} must")), name
            else:
                assert got == _api_refusal(name, kind, leaf), name

    def test_documents(self, leaf, plain):
        for call, field, message in _DOCUMENT_INTAKES:
            got = _outcome(call, leaf)
            if plain is not None:
                assert got == _outcome(call, plain), field
            elif leaf is _HUGE:
                assert got == (DocumentError, f"field {field!r} holds an integer too large for a float")
            else:
                assert got == (DocumentError, message), field

    def test_family_parameters(self, leaf, plain):
        for call, name in _FAMILY_INTAKES:
            got = _outcome(call, leaf)
            if plain is not None:
                assert got == _outcome(call, plain), name
            elif leaf is _HUGE:
                assert got == (ValueError, f"parameter {name!r} holds an integer too large for a float")
            else:
                assert got == (ValueError, f"parameter {name!r} must be a real number, got {reprlib.repr(leaf)}")


def test_numpy_float_in_an_echoed_field_is_checked_as_finite():
    # a document built in Python takes NumPy numbers, so a NaN one in a field that is only echoed is refused at
    # parse, as a Python NaN is, rather than failing later in dumps
    doc = {"type": "gad", "gamma": 0.3, "p": 0.2, "note": [np.float32("nan")]}
    with pytest.raises(DocumentError, match="^field 'note' holds a non-finite number$"):
        parse_channel_document(doc)
    doc["note"] = [np.float32(0.5), np.int64(2)]
    assert _document(doc) == '{"type": "gad", "gamma": 0.29999999999999999, "p": 0.20000000000000001, "note": [0.5, 2]}'


@pytest.mark.parametrize("leaf, dtype", [(0.5j, "complex128"), (True, "bool"), (None, "object")])
def test_a_non_number_beats_an_oversized_int(leaf, dtype):
    # as in a document: the leaf is refused before the cast could overflow on the integer beside it
    with pytest.raises(TypeError, match=f"^Bloch vector must be real, got dtype {dtype}$"):
        check_bloch([_HUGE, leaf, 0])
