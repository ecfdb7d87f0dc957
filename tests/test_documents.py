import dataclasses
import json

import numpy as np
import pytest

from quasinv import documents, zoo
from quasinv.channels import CptpReport, KrausChannel, SIGMA_Y
from quasinv.documents import (
    CHANNEL_TYPES,
    MSTD_DOCUMENT_SCHEMA,
    RESULT_DOCUMENT_SCHEMA,
    VERIFICATION_DOCUMENT_SCHEMA,
    DocumentError,
    complex_matrix_to_json,
    dumps,
    kraus_document,
    parse_channel_document,
    report_document,
)
from quasinv.metrics import METHODS, MstdReport, mstd_analytic
from quasinv.oracle import VerificationReport

FAMILY_DOCUMENTS = [
    {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]},
    {"type": "gad", "gamma": 0.3, "p": 0.2},
    {"type": "mixed_unitary", "p": 0.3, "theta": 2.8},
    {"type": "tetrahedron", "p": 0.1, "p_prime": 0.2},
    {"type": "unitary", "theta": 1.1, "axis": [0, 0.6, 0.8]},
]


class TestParsing:
    def test_kraus_roundtrip(self):
        k = KrausChannel([SIGMA_Y])
        doc = kraus_document(k, label="flip-y")
        parsed = parse_channel_document(doc)
        assert parsed.label == "flip-y"
        assert np.array_equal(parsed.kraus.operators[0], SIGMA_Y)
        assert np.allclose(parsed.affine.m, np.diag([-1.0, 1.0, -1.0]), atol=1e-15)

    def test_affine_document(self):
        doc = {"type": "affine", "m": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "c": [0, 0, 0.1]}
        parsed = parse_channel_document(doc)
        assert parsed.kraus is None
        assert parsed.affine.c[2] == 0.1

    def test_rejects_non_object(self):
        with pytest.raises(DocumentError):
            parse_channel_document([1, 2, 3])

    def test_rejects_missing_fields(self):
        with pytest.raises(DocumentError, match="missing"):
            parse_channel_document({"type": "gad", "gamma": 0.5})

    def test_rejects_bad_operator_shape(self):
        with pytest.raises(DocumentError):
            parse_channel_document({"type": "kraus", "operators": [[[1, 0], [0, 1]]]})

    def test_rejects_non_tp_kraus(self):
        half = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        with pytest.raises(DocumentError, match="trace preserving"):
            parse_channel_document({"type": "kraus", "operators": [half]})

    def test_rejects_non_numeric_parameter(self):
        with pytest.raises(DocumentError, match="number"):
            parse_channel_document({"type": "gad", "gamma": "big", "p": 0.1})

    def test_rejects_non_string_label(self):
        with pytest.raises(DocumentError, match="label"):
            parse_channel_document({"type": "pauli", "p": [1, 0, 0, 0], "label": 7})

    def test_tuples_parse_as_lists(self):
        # the Python API may pass tuples where JSON has arrays
        m = ((0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5))
        as_tuples = parse_channel_document({"type": "affine", "m": m, "c": (0, 0, 0.1)})
        as_lists = parse_channel_document({"type": "affine", "m": [list(row) for row in m], "c": [0, 0, 0.1]})
        assert np.array_equal(as_tuples.affine.m, as_lists.affine.m)
        assert np.array_equal(as_tuples.affine.c, as_lists.affine.c)

    def test_rejects_invalid_family_parameters(self):
        with pytest.raises(DocumentError):
            parse_channel_document({"type": "tetrahedron", "p": 0.4, "p_prime": 0.3})

    @pytest.mark.parametrize("doc", FAMILY_DOCUMENTS, ids=lambda doc: doc["type"])
    def test_family_parameters_checked_once(self, monkeypatch, doc):
        # the document parser leaves every family parameter to zoo: one check each
        checked = []
        real_values = zoo._real_values

        def spy(parameters, name, components):
            checked.append(name)
            return real_values(parameters, name, components)

        monkeypatch.setattr(zoo, "_real_values", spy)
        parse_channel_document(doc)
        family = next(f for f in zoo.FAMILY_TABLE if f.doc_type == doc["type"])
        assert checked == list(family.params)

    def test_fields_read_are_those_the_schema_declares(self):
        assert list(documents._FIELDS_READ) == list(CHANNEL_TYPES)
        assert documents._FIELDS_READ == {
            "kraus": {"type", "label", "operators"},
            "affine": {"type", "label", "m", "c"},
            "pauli": {"type", "label", "p"},
            "gad": {"type", "label", "gamma", "p"},
            "mixed_unitary": {"type", "label", "p", "theta"},
            "tetrahedron": {"type", "label", "p", "p_prime"},
            "unitary": {"type", "label", "theta", "axis"},
        }

    def test_family_documents_cover_every_family(self):
        assert [doc["type"] for doc in FAMILY_DOCUMENTS] == [f.doc_type for f in zoo.FAMILY_TABLE]


class TestDumps:
    @pytest.mark.parametrize("indent", [None, 2])
    def test_numpy_vector_parameter_echoed_as_a_list(self, indent):
        def rendered(axis):
            parsed = parse_channel_document({"type": "unitary", "theta": 1.0, "axis": axis})
            return dumps(report_document(parsed, "mstd", mstd_analytic(parsed.affine)), indent)

        assert rendered(np.array([0, 0, 1.0])) == rendered([0.0, 0.0, 1.0])

    def test_floats_roundtrip(self):
        values = [0.1, 1 / 3, np.sqrt(0.6), 1e-300, -0.0, 123456.789]
        text = dumps({"v": values})
        assert json.loads(text)["v"] == values

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps({"v": float("nan")})

    def test_deterministic(self):
        doc = kraus_document(KrausChannel([SIGMA_Y]), label="y")
        assert dumps(doc) == dumps(doc)

    def test_nested_layout_parses(self):
        doc = {"a": {"b": [1, 2.5, None, True], "c": "text"}, "d": []}
        assert json.loads(dumps(doc, indent=2)) == doc

    def test_complex_matrix_encoding(self):
        enc = complex_matrix_to_json(SIGMA_Y)
        assert enc == [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps({"v": object()})


# Every kind of value the renderer accepts, with the exact bytes it must
# produce; any change here changes every document the CLI writes.
GOLDEN_DOC = {
    "neg_zero": -0.0,
    "subnormal": 5e-324,
    "tiny": 1e-300,
    "big": 1e22,
    "tenth": 0.1,
    "np_float": np.float64(1 / 3),
    "np_int": np.int64(-7),
    "int": 12,
    "flags": [True, False],
    "none": None,
    "empty_list": [],
    "empty_dict": {},
    "nested": [[1, -2.5], [[0.5], []]],
    "tuple": (1, 2.0),
    "records": [{"k": 1, "v": [0.25]}, {}],
    "label": 'Bloch ψ café "q"\\',
}

GOLDEN_COMPACT = (
    '{"neg_zero": 0, "subnormal": 4.9406564584124654e-324, "tiny": 1e-300, '
    '"big": 1e+22, "tenth": 0.10000000000000001, "np_float": 0.33333333333333331, '
    '"np_int": -7, "int": 12, "flags": [true, false], "none": null, '
    '"empty_list": [], "empty_dict": {}, "nested": [[1, -2.5], [[0.5], []]], '
    '"tuple": [1, 2], "records": [{"k": 1, "v": [0.25]}, {}], '
    '"label": "Bloch \\u03c8 caf\\u00e9 \\"q\\"\\\\"}'
)

GOLDEN_INDENTED = """{
  "neg_zero": 0,
  "subnormal": 4.9406564584124654e-324,
  "tiny": 1e-300,
  "big": 1e+22,
  "tenth": 0.10000000000000001,
  "np_float": 0.33333333333333331,
  "np_int": -7,
  "int": 12,
  "flags": [true, false],
  "none": null,
  "empty_list": [],
  "empty_dict": {},
  "nested": [[1, -2.5], [[0.5], []]],
  "tuple": [1, 2],
  "records": [{
      "k": 1,
      "v": [0.25]
    }, {}],
  "label": "Bloch \\u03c8 caf\\u00e9 \\"q\\"\\\\"
}"""


class TestGoldenBytes:
    def test_compact(self):
        assert dumps(GOLDEN_DOC) == GOLDEN_COMPACT

    def test_indented(self):
        assert dumps(GOLDEN_DOC, indent=2) == GOLDEN_INDENTED

    def test_parses_back(self):
        back = json.loads(GOLDEN_INDENTED)
        assert back["subnormal"] == 5e-324 and back["tenth"] == 0.1
        assert back["label"] == GOLDEN_DOC["label"]

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), np.float64("nan")])
    def test_rejects_non_finite_anywhere(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"a": [[0.5, value]]}, indent=2)

    def test_rejects_non_string_key(self):
        with pytest.raises(TypeError, match="keys"):
            dumps({1: 0.5})


class TestReportSchemas:
    """The cptp, mstd and verification sections follow their report dataclasses."""

    @pytest.mark.parametrize(
        "schema,key,cls",
        [
            (RESULT_DOCUMENT_SCHEMA, "cptp", CptpReport),
            (MSTD_DOCUMENT_SCHEMA, "mstd", MstdReport),
            (VERIFICATION_DOCUMENT_SCHEMA, "verification", VerificationReport),
        ],
    )
    def test_fields_in_order(self, schema, key, cls):
        section = schema["properties"][key]
        names = [f.name for f in dataclasses.fields(cls)]
        assert section["required"] == names
        assert list(section["properties"]) == names

    def test_mstd_methods(self):
        method = MSTD_DOCUMENT_SCHEMA["properties"]["mstd"]["properties"]["method"]
        assert method == {"enum": list(METHODS)}
