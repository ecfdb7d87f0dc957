"""Mutation fuzzing of the CLI: every mutated document gets an answer or an error document.

Valid Kraus, affine and family documents are mutated at random (wrong
shapes, NaN and infinity literals, booleans, strings and nulls for numbers,
huge and negative values, missing keys, truncated JSON). The mutations are
drawn from the package's own ``RngStream``, so the run is the same on every
machine. Each mutated document must end with exit code 0, 2 or 3 and print
exactly one JSON document on stdout that validates against the schema of
its outcome, with no traceback or warning on stderr.
"""

import copy
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import quasinv
import quasinv.cli as cli
from quasinv.documents import ERROR_DOCUMENT_SCHEMA, MSTD_DOCUMENT_SCHEMA, RESULT_DOCUMENT_SCHEMA
from quasinv.numerics import RngStream

_AMPLITUDE_DAMPING = [
    [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
    [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]],
]

BASE_DOCUMENTS = [
    {"type": "kraus", "operators": _AMPLITUDE_DAMPING, "label": "amplitude damping"},
    {"type": "affine", "m": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.25]], "c": [0, 0, 0.5]},
    # the amplitude damping above in affine form: an extreme point, so most changes leave CP
    {"type": "affine", "m": [[0.8, 0, 0], [0, 0.8, 0], [0, 0, 0.64]], "c": [0, 0, 0.36]},
    {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]},
    {"type": "gad", "gamma": 0.3, "p": 0.2},
    {"type": "mixed_unitary", "p": 0.3, "theta": 2.8},
    {"type": "tetrahedron", "p": 0.1, "p_prime": 0.2},
    {"type": "unitary", "theta": 1.1, "axis": [0, 0.6, 0.8]},
]

# replacements for a number: JSON literals json.dumps writes as NaN/Infinity,
# non-numbers, huge and negative values, and numbers that break the bounds
_ODD_VALUES = [
    float("nan"), float("inf"), float("-inf"), True, False, None, "0.5", "",
    1e308, -1e308, 10**400, -(10**400), 2**63, -1, -0.5, 2.0, 1e-320, [], {}, [0.5],
]

SCHEMAS = {
    0: RESULT_DOCUMENT_SCHEMA,
    2: ERROR_DOCUMENT_SCHEMA,
    3: RESULT_DOCUMENT_SCHEMA,
}

N_MUTATIONS = 2000


def _pick(rng: RngStream, items):
    return items[rng.u64() % len(items)]


def _containers(node, path=()):
    """Paths of every list and dict in a document, the root included."""
    if isinstance(node, (list, dict)):
        yield path
        keys = range(len(node)) if isinstance(node, list) else list(node)
        for key in keys:
            yield from _containers(node[key], path + (key,))


def _leaves(node, path=()):
    """Paths of every number and string in a document."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _leaves(item, path + (key,))
    else:
        yield path


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _mutate_once(doc, rng: RngStream):
    """``doc`` (a dict) with one random change."""
    kind = rng.u64() % 6
    if kind in (0, 1):  # a leaf becomes an odd value
        leaves = list(_leaves(doc))
        if leaves:
            doc = _set(doc, _pick(rng, leaves), copy.deepcopy(_pick(rng, _ODD_VALUES)))
        return doc
    if kind == 2:  # a list loses or gains an entry, or a container is flattened
        path = _pick(rng, list(_containers(doc)))
        node = _get(doc, path)
        if isinstance(node, list) and node and rng.u64() % 2:
            node.pop(rng.u64() % len(node))
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[0]) if node else 0.5)
        else:
            doc = _set(doc, path, 0.5)
        return doc
    if kind == 3:  # a key goes missing
        node = _get(doc, _pick(rng, [p for p in _containers(doc) if isinstance(_get(doc, p), dict)]))
        if node:
            del node[_pick(rng, list(node))]
        return doc
    if kind == 4:  # a number is scaled far out of range or negated
        numbers = [p for p in _leaves(doc) if type(_get(doc, p)) in (int, float)]
        numbers = [p for p in numbers if abs(_get(doc, p)) < 1e100]
        if numbers:
            path = _pick(rng, numbers)
            doc = _set(doc, path, _get(doc, path) * _pick(rng, [-1, -3.0, 1e12, 1e200, 1e-200]))
        return doc
    # the type is unknown or of another family
    doc["type"] = _pick(rng, ["kraus", "affine", "pauli", "gad", "unitary", "rotation", "", 3, None])
    return doc


def _mutate(doc, rng: RngStream) -> str:
    """One to three random changes of ``doc``, as JSON text, truncated one time in six."""
    doc = copy.deepcopy(doc)
    for _ in range(1 + rng.u64() % 3):
        if isinstance(doc, dict):
            doc = _mutate_once(doc, rng)
    text = json.dumps(doc)
    if rng.u64() % 6 == 0:
        text = text[: rng.u64() % len(text)]
    return text


def _strict_loads(text: str):
    def refuse(name):
        raise ValueError(f"non-standard JSON literal {name}")

    return json.loads(text, parse_constant=refuse)


def _check_outcome(code, out, err, schemas=SCHEMAS):
    assert code in schemas, (code, out, err)
    assert out.endswith("}\n")
    doc = _strict_loads(out)  # exactly one document: json.loads refuses trailing data
    jsonschema.Draft7Validator(schemas[code]).validate(doc)
    if code == 2:
        assert doc["error"]["code"] == "parse"
    if code == 3:
        assert doc["cptp"]["passed"] is False
    assert "Traceback" not in err and "Warning" not in err


def _texts():
    """The distinct mutated documents, in the order they were drawn."""
    rng = RngStream(2024)
    return list(dict.fromkeys(_mutate(_pick(rng, BASE_DOCUMENTS), rng) for _ in range(N_MUTATIONS)))


TEXTS = _texts()


class TestMutatedDocuments:
    def test_mutations_cover_every_kind(self):
        assert len(TEXTS) > N_MUTATIONS // 2
        assert any("NaN" in t for t in TEXTS) and any("Infinity" in t for t in TEXTS)
        assert any("true" in t or "false" in t for t in TEXTS)
        assert any(not t.endswith("}") for t in TEXTS)

    def test_analyze_answers_or_refuses(self, capsys, monkeypatch):
        codes = set()
        for text in TEXTS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["analyze", "-"])
            captured = capsys.readouterr()
            _check_outcome(code, captured.out, captured.err)
            codes.add(code)
        assert codes == {0, 2, 3}

    def test_mstd_answers_or_refuses(self, capsys, monkeypatch):
        schemas = {0: MSTD_DOCUMENT_SCHEMA, 2: ERROR_DOCUMENT_SCHEMA, 3: RESULT_DOCUMENT_SCHEMA}
        for text in TEXTS[::8]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["mstd", "-", "--surface"])
            captured = capsys.readouterr()
            _check_outcome(code, captured.out, captured.err, schemas)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_fresh_process(self, index):
        # default warning filters in a new interpreter, so any warning reaches stderr
        text = TEXTS[index]
        env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quasinv.cli", "analyze", "-"],
            input=text, capture_output=True, text=True, env=env, timeout=60,
        )
        _check_outcome(proc.returncode, proc.stdout, proc.stderr)


class TestFoundByFuzzing:
    @pytest.mark.parametrize(
        "document,message",
        [
            # inf * 1j makes a nan real part before KrausChannel refuses the entry
            ({"type": "kraus", "operators": [[[[1, float("-inf")], [0, 0]], [[0, 0], [1, 0]]]]},
             "non-finite"),
            # |axis| overflows to inf inside np.linalg.norm
            ({"type": "unitary", "theta": 1.1, "axis": [0, 0.6, 1e308]}, "unit vector"),
        ],
    )
    def test_parse_error_without_warning(self, capsys, monkeypatch, document, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(document)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["analyze", "-"])
        captured = capsys.readouterr()
        _check_outcome(code, captured.out, captured.err)
        assert code == 2
        assert message in json.loads(captured.out)["error"]["message"]


_KRAUS_MESSAGE = "each kraus operator must be a 2x2 matrix of [re, im] number pairs"
_AFFINE_MESSAGE = "affine document needs a 3x3 'm' and 3-vector 'c' of numbers"
_IDENTITY_OPERATOR = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_M = [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]
_HUGE = "1" + "0" * 400  # an integer literal no float holds


def _kraus_text(operator):
    return json.dumps({"type": "kraus", "operators": [operator]})


def _affine_text(m, c=(0, 0, 0)):
    return json.dumps({"type": "affine", "m": m, "c": list(c)})


class TestArrayFields:
    """Number arrays in a document: each malformed shape or leaf type gets its message and exit 2."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (_kraus_text([[[True, 0], [0, 0]], [[0, 0], [1, 0]]]), _KRAUS_MESSAGE),
            (_kraus_text([[["1", 0], [0, 0]], [[0, 0], [1, 0]]]), _KRAUS_MESSAGE),
            (_kraus_text([[[None, 0], [0, 0]], [[0, 0], [1, 0]]]), _KRAUS_MESSAGE),
            (_kraus_text([[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]]), _KRAUS_MESSAGE),  # ragged
            (_kraus_text([[[1, 0], [0, 0]], [[0, 0]]]), _KRAUS_MESSAGE),  # ragged
            (_kraus_text([[[[1], 0], [0, 0]], [[0, 0], [1, 0]]]), _KRAUS_MESSAGE),  # extra nesting
            (_kraus_text([[1, 0], [0, 1]]), _KRAUS_MESSAGE),  # too shallow
            (_kraus_text([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]), _KRAUS_MESSAGE),  # 2x3
            (_kraus_text({"re": 1}), _KRAUS_MESSAGE),
            (_kraus_text([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]).replace("1, 0]]]", _HUGE + ", 0]]]"),
             "field 'operators' holds an integer too large for a float"),
            (_affine_text([[True, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]), _AFFINE_MESSAGE),
            (_affine_text([["0.5", 0, 0], [0, 0.5, 0], [0, 0, 0.5]]), _AFFINE_MESSAGE),
            (_affine_text([[None, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]), _AFFINE_MESSAGE),
            (_affine_text([[0.5, 0], [0, 0.5, 0], [0, 0, 0.5]]), _AFFINE_MESSAGE),  # ragged
            (_affine_text([[0.5, 0, 0], [0, [0.5, 0], 0], [0, 0, 0.5]]), _AFFINE_MESSAGE),  # ragged
            (_affine_text([[[0.5], [0], [0]], [[0], [0.5], [0]], [[0], [0], [0.5]]]), _AFFINE_MESSAGE),
            (_affine_text([[0.5, 0, 0], [0, 0.5, 0]]), _AFFINE_MESSAGE),  # 2x3
            (_affine_text(0.5), _AFFINE_MESSAGE),
            (_affine_text("abc"), _AFFINE_MESSAGE),
            (_affine_text(_M, c=(0, 0)), _AFFINE_MESSAGE),
            (_affine_text(_M, c=(0, 0, [0])), _AFFINE_MESSAGE),
            (_affine_text(_M, c=(0, False, 0)), _AFFINE_MESSAGE),
            # a non-number decides before the huge integer is converted
            (_affine_text([[1, "x", 0], [0, 0.5, 0], [0, 0, 0.5]]).replace("[1,", f"[{_HUGE},"), _AFFINE_MESSAGE),
            (_affine_text([[1, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]).replace("[1,", f"[{_HUGE},"),
             "field 'm' holds an integer too large for a float"),
            (_affine_text(_M, c=(0, 0, 1)).replace("0, 1]}", f"0, -{_HUGE}]}}"),
             "field 'c' holds an integer too large for a float"),
        ],
    )
    def test_parse_error(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["analyze", "-"])
        captured = capsys.readouterr()
        _check_outcome(code, captured.out, captured.err)
        assert code == 2
        assert json.loads(captured.out)["error"]["message"] == message

    def test_valid_arrays_parse(self, capsys, monkeypatch):
        for text in (_kraus_text(_IDENTITY_OPERATOR), _affine_text(_M, c=(0, 0, 0.25))):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["analyze", "-"]) == 0
            capsys.readouterr()


def _family_text(doc, **literals):
    """A family document's JSON, with each "@name" string replaced by the literal text given for it."""
    text = json.dumps(doc)
    for name, literal in literals.items():
        text = text.replace(f'"@{name}"', literal)
    return text


_GAD = {"type": "gad", "gamma": 0.3, "p": 0.2}
_AXIS_MESSAGE = "parameter 'axis' needs 3 components [nx, ny, nz]"


class TestFamilyParameters:
    """zoo checks a family document's parameters: each refusal exits 2 and names the parameter."""

    CASES = [
        (json.dumps({**_GAD, "gamma": True}), "parameter 'gamma' must be a real number, got True"),
        (json.dumps({"type": "pauli", "p": [0.1, False, 0.2, 0.7]}), "parameter 'p' must be a real number, got False"),
        (json.dumps({"type": "tetrahedron", "p": 0.1, "p_prime": "0.2"}),
         "parameter 'p_prime' must be a real number, got '0.2'"),
        (json.dumps({"type": "mixed_unitary", "p": 0.3, "theta": None}),
         "parameter 'theta' must be a real number, got None"),
        (json.dumps({**_GAD, "p": [0.2]}), "parameter 'p' must be a real number, got [0.2]"),
        (json.dumps({"type": "unitary", "theta": 1.1, "axis": [[0, 0.6, 0.8]]}), _AXIS_MESSAGE),
        (json.dumps({"type": "unitary", "theta": 1.1, "axis": [[0], [0.6], [0.8]]}),
         "parameter 'axis' must be a real number, got [0]"),
        (json.dumps({"type": "unitary", "theta": 1.1, "axis": [0, 0.6]}), _AXIS_MESSAGE),
        (json.dumps({"type": "pauli", "p": 1}), "parameter 'p' needs 4 components [p0, p1, p2, p3]"),
        (json.dumps({"type": "gad", "gamma": 0.3}), "channel document is missing field 'p'"),
        (json.dumps({"type": "unitary", "axis": [0, 0.6, 0.8]}), "channel document is missing field 'theta'"),
        (json.dumps({**_GAD, "p": float("nan")}), "parameter 'p' must be a finite number"),
        (_family_text({**_GAD, "gamma": "@x"}, x="1e999"), "parameter 'gamma' must be a finite number"),
        (_family_text({"type": "pauli", "p": [0.1, 0.6, "@x", 0.1]}, x="-Infinity"),
         "parameter 'p' must be a finite number"),
        (_family_text({**_GAD, "gamma": "@x"}, x=_HUGE), "parameter 'gamma' holds an integer too large for a float"),
        (_family_text({"type": "unitary", "theta": 1.1, "axis": [0, 0.6, "@x"]}, x="-" + _HUGE),
         "parameter 'axis' holds an integer too large for a float"),
        # every parameter's type is checked before any is found non-finite
        (_family_text({"type": "unitary", "theta": "@x", "axis": [0, "1", 0]}, x="NaN"),
         "parameter 'axis' must be a real number, got '1'"),
    ]

    @pytest.mark.parametrize("text,message", CASES, ids=[message for _, message in CASES])
    @pytest.mark.parametrize("command", [["analyze"], ["mstd"], ["verify", "--samples", "10000"]])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_refused_naming_the_parameter(self, capsys, monkeypatch, text, message, command, fmt):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command[0], "-", *command[1:], "--format", fmt])
        captured = capsys.readouterr()
        _check_outcome(code, captured.out, captured.err)
        assert code == 2
        assert json.loads(captured.out)["error"]["message"] == message
        assert captured.err == f"error: {message}\n"

    def test_megabyte_string_echoed_briefly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({**_GAD, "gamma": "x" * 2**20})))
        assert cli.main(["analyze", "-"]) == 2
        captured = capsys.readouterr()
        message = json.loads(captured.out)["error"]["message"]
        assert message.startswith("parameter 'gamma' must be a real number, got 'xxx")
        assert len(message) < 100 and len(captured.out) < 300 and len(captured.err) < 100
