import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import quasinv
import quasinv.cli as cli
from quasinv.channels import (
    PAULIS,
    KrausChannel,
    kraus_to_affine,
    phase_distance,
    random_channel,
    validate_cptp,
)
from quasinv.documents import (
    CHANNEL_DOCUMENT_SCHEMA,
    CHANNEL_TYPES,
    ERROR_DOCUMENT_SCHEMA,
    MSTD_DOCUMENT_SCHEMA,
    RESULT_DOCUMENT_SCHEMA,
    VERIFICATION_DOCUMENT_SCHEMA,
    kraus_document,
    parse_channel_document,
)
from quasinv.numerics import RngStream
from quasinv.oracle import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_doc(tmp_path, obj, name="channel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def to_matrix(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class TestAnalyze:
    def test_pauli_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        code, out = run_cli(capsys, "analyze", path)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_DOCUMENT_SCHEMA)
        assert doc["delta_mstd"] == pytest.approx(0.2, abs=1e-12)
        assert phase_distance(PAULIS[0], to_matrix(doc["quasi_inverse"]["matrix"])) < 1e-12
        assert doc["mstd_before"] - doc["mstd_after"] == pytest.approx(
            doc["delta_mstd"], abs=1e-12
        )

    def test_trivial_rotation(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "unitary", "theta": 0.0, "axis": [0, 0, 1]})
        code, out = run_cli(capsys, "analyze", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["trivial"] is True
        assert doc["delta_mstd"] == 0.0

    def test_non_cp_affine_exits_3(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {"type": "affine", "m": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "c": [0, 0, 0]},
        )
        code, out = run_cli(capsys, "analyze", path)
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, RESULT_DOCUMENT_SCHEMA)
        assert doc["cptp"]["min_choi_eigenvalue"] < 0
        assert "quasi_inverse" not in doc

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps({"type": "gad", "gamma": -0.5, "p": 0.2}))
        )
        code, out = run_cli(capsys, "analyze", "-")
        assert code == 0
        doc = json.loads(out)
        assert phase_distance(PAULIS[2], to_matrix(doc["quasi_inverse"]["matrix"])) < 1e-12

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 2
        doc = json.loads(out)  # stdout carries only the structured error
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)

    def test_unknown_type_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "squeeze"})
        code, out = run_cli(capsys, "analyze", path)
        assert code == 2
        jsonschema.validate(json.loads(out), ERROR_DOCUMENT_SCHEMA)

    def test_table_format(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        code, out = run_cli(capsys, "analyze", path, "--format", "table")
        assert code == 0
        assert "delta_mstd" in out and "{" not in out


class TestMstd:
    def test_identity_analytic(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "unitary", "theta": 0.0, "axis": [0, 0, 1]})
        code, out = run_cli(capsys, "mstd", path)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, MSTD_DOCUMENT_SCHEMA)
        assert doc["mstd"]["value"] == 0.0
        assert doc["mstd"]["method"] == "analytic-ball"

    def test_depolarizing_monte_carlo_reproducible(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.25, 0.25, 0.25, 0.25]})
        code, first = run_cli(
            capsys, "mstd", path, "--monte-carlo", "1000000", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(first)
        assert doc["mstd"]["method"] == "monte-carlo-ball"
        assert doc["mstd"]["n_samples"] == 1000000
        assert abs(doc["mstd"]["value"] - 0.15) <= 4 * doc["mstd"]["stderr"]
        _, second = run_cli(capsys, "mstd", path, "--monte-carlo", "1000000", "--seed", "7")
        assert first == second  # byte-identical rerun

    def test_depolarizing_surface(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.25, 0.25, 0.25, 0.25]})
        code, out = run_cli(capsys, "mstd", path, "--surface")
        assert code == 0
        doc = json.loads(out)
        assert doc["mstd"]["value"] == pytest.approx(0.25, abs=1e-15)
        assert doc["mstd"]["method"] == "analytic-surface"

    def test_non_cp_exits_3(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {"type": "affine", "m": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "c": [0, 0, 0]},
        )
        code, _ = run_cli(capsys, "mstd", path)
        assert code == 3

    def test_monte_carlo_surface(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.25, 0.25, 0.25, 0.25]})
        code, out = run_cli(
            capsys, "mstd", path, "--monte-carlo", "10000", "--surface", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mstd"]["method"] == "monte-carlo-surface"
        assert doc["mstd"]["value"] == pytest.approx(0.25, abs=1e-12)


class TestZoo:
    def test_uniform_pauli(self, capsys):
        code, out = run_cli(capsys, "zoo", "pauli", "0.25", "0.25", "0.25", "0.25")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, CHANNEL_DOCUMENT_SCHEMA)
        assert doc["type"] == "kraus"
        assert len(doc["operators"]) == 4
        parsed = parse_channel_document(doc)
        assert parsed.kraus.tp_residual() < 1e-12

    def test_tetrahedron_over_normalized_exits_2(self, capsys):
        code, out = run_cli(capsys, "zoo", "tetrahedron", "0.3", "0.3")
        assert code == 2
        jsonschema.validate(json.loads(out), ERROR_DOCUMENT_SCHEMA)

    def test_wrong_arity_exits_2(self, capsys):
        code, _ = run_cli(capsys, "zoo", "gad", "0.5")
        assert code == 2

    def test_gad_roundtrip_through_analyze(self, capsys, tmp_path):
        code, out = run_cli(capsys, "zoo", "gad", "-0.5", "0.2")
        assert code == 0
        path = tmp_path / "gad.json"
        path.write_text(out)
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        doc = json.loads(out)
        assert phase_distance(PAULIS[2], to_matrix(doc["quasi_inverse"]["matrix"])) < 1e-12
        assert doc["delta_mstd"] == pytest.approx(0.2, abs=1e-12)

    def test_negative_parameters_parse(self, capsys):
        code, out = run_cli(capsys, "zoo", "rotation", "-1.5", "0", "0", "1")
        assert code == 0
        assert json.loads(out)["type"] == "kraus"

    @pytest.mark.parametrize(
        "family,params",
        [
            ("pauli", ["0.1", "0.6", "0.2", "0.1"]),
            ("pauli", ["0.25", "0.25", "0.25", "0.25"]),
            ("pauli", ["0.7", "0.1", "0.1", "0.1"]),
            ("gad", ["-0.75", "0.3"]),
            ("gad", ["-0.25", "1.0"]),
            ("gad", ["0.5", "0.0"]),
            ("mixed_unitary", ["0.3", "2.8"]),
            ("mixed_unitary", ["0.32", "2.4"]),
            ("tetrahedron", ["0.3", "0.1"]),
            ("tetrahedron", ["0.1", "0.3"]),
            ("tetrahedron", ["0.05", "0.05"]),
            ("rotation", ["0.9", "0", "1", "0"]),
            ("rotation", ["2.2", "0.6", "0", "0.8"]),
        ],
    )
    def test_roundtrip_reproduces_golden_expectation(self, capsys, tmp_path, family, params):
        from quasinv import zoo

        code, out = run_cli(capsys, "zoo", family, "--", *params)
        assert code == 0
        path = tmp_path / "family.json"
        path.write_text(out)
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        doc = json.loads(out)

        values = [float(x) for x in params]
        if family == "rotation":
            spec = zoo.rotation_spec(values[0], values[1:])
        else:
            spec = zoo.FamilySpec(
                family,
                dict(
                    zip(
                        {
                            "pauli": ["p"],
                            "gad": ["gamma", "p"],
                            "mixed_unitary": ["p", "theta"],
                            "tetrahedron": ["p", "p_prime"],
                        }[family],
                        [values] if family == "pauli" else values,
                    )
                ),
            )
        _, gold = zoo.make(spec)
        assert doc["delta_mstd"] == pytest.approx(gold.expected_delta, abs=1e-10)
        if not gold.degenerate:
            v = to_matrix(doc["quasi_inverse"]["matrix"])
            assert phase_distance(gold.expected_unitary, v) < 1e-9


class TestRandom:
    def test_streams_reproducible_documents(self, capsys):
        code, first = run_cli(capsys, "random", "--count", "3", "--seed", "11")
        assert code == 0
        lines = first.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            jsonschema.validate(doc, CHANNEL_DOCUMENT_SCHEMA)
            parsed = parse_channel_document(doc)
            assert parsed.kraus.tp_residual() < 1e-10
        _, second = run_cli(capsys, "random", "--count", "3", "--seed", "11")
        assert first == second  # byte-identical at fixed seed

    def test_single_kraus_gives_orthogonal_map(self, capsys):
        code, out = run_cli(capsys, "random", "--count", "1", "--seed", "4", "--kraus", "1")
        assert code == 0
        parsed = parse_channel_document(json.loads(out))
        m = parsed.affine.m
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-9

    def test_bad_flags_exit_2(self, capsys):
        assert run_cli(capsys, "random", "--count", "0")[0] == 2
        assert run_cli(capsys, "random", "--kraus", "5")[0] == 2


class TestVerify:
    def test_zoo_channel_passes(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "tetrahedron", "p": 0.3, "p_prime": 0.1})
        code, out = run_cli(capsys, "verify", path, "--samples", "50000", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, VERIFICATION_DOCUMENT_SCHEMA)
        assert doc["verification"]["passed"] is True
        assert doc["verification"]["max_violation"] <= 1e-9

    def test_identity_passes(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"type": "unitary", "theta": 0.0, "axis": [1, 0, 0]})
        code, out = run_cli(capsys, "verify", path, "--samples", "10000")
        assert code == 0
        assert json.loads(out)["verification"]["passed"] is True

    def test_failed_verification_exits_4(self, capsys, tmp_path, monkeypatch):
        failed = VerificationReport(
            channel_id="",
            solver_delta=0.1,
            best_sampled_delta=0.2,
            n_samples=10000,
            max_violation=0.1,
            passed=False,
        )
        monkeypatch.setattr(cli.oracle, "verify", lambda *a, **kw: failed)
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        code, out = run_cli(capsys, "verify", path, "--samples", "10000")
        assert code == 4
        assert json.loads(out)["verification"]["passed"] is False


class TestNumericFailurePath:
    def test_solver_breakdown_exits_1(self, capsys, tmp_path, monkeypatch):
        from quasinv.numerics import ConvergenceError

        def broken(*args, **kwargs):
            raise ConvergenceError(0.5)

        monkeypatch.setattr(cli, "_solve", broken)
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        code, out = run_cli(capsys, "analyze", path)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
        assert doc["error"]["code"] == "numeric"

    def test_lapack_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        def broken(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        code, out = run_cli(capsys, "analyze", path)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
        assert doc["error"]["code"] == "numeric"
        assert "did not converge" in doc["error"]["message"]


class TestSampleMinimums:
    @pytest.mark.parametrize(
        "argv", [("verify", "-", "--samples", "10"), ("mstd", "-", "--monte-carlo", "10")]
    )
    def test_too_few_samples_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps({"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]}))
        )
        code, out = run_cli(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
        assert doc["error"]["code"] == "parse"
        assert argv[2] in doc["error"]["message"]


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


class TestBrokenPipe:
    def test_error_document_into_closed_pipe(self, capsys, tmp_path, monkeypatch):
        path = write_doc(tmp_path, {"type": "no_such_type"})
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli.main(["analyze", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSerialization:
    def test_floats_roundtrip_exactly(self, capsys):
        code, out = run_cli(capsys, "zoo", "pauli", "0.1", "0.6", "0.2", "0.1")
        assert code == 0
        ops = [to_matrix(op) for op in json.loads(out)["operators"]]
        assert ops[0][0, 0] == np.sqrt(0.1)
        assert ops[1][0, 1] == np.sqrt(0.6)

    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("quasinv")
        if exe is None:
            pytest.skip("console script not on PATH")
        doc = json.dumps({"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
        proc = subprocess.run(
            [exe, "analyze", "-"], input=doc, capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_mstd"] == pytest.approx(0.2, abs=1e-12)


# sha256 of `quasinv random --count 50 --seed 7 --kraus k`: these bytes are
# the RNG and serialization contract and must never change.
RANDOM_SHA256 = {
    1: "de3a77c15d7b4395e3e4e13b2b8e60e19c2327d42b6ff3c21f1fa7de4b1b296a",
    2: "84f3707ecb9b3ca70370279af882b092802bbed589a61cc39c5ceede4c80e17b",
    3: "46b86a73c80e6e5558ba40be16daeecd78fb3861347240c57beb4e5a86f3ff5d",
    4: "5eea379d50de1299ce1b746edb87cd708a3ae9908e52b94110f2dc4010991f70",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("k", sorted(RANDOM_SHA256))
    def test_random_stream_bytes(self, capsys, k):
        code, out = run_cli(capsys, "random", "--count", "50", "--seed", "7", "--kraus", str(k))
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == RANDOM_SHA256[k]


def analyze_text(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(["analyze", "-"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_parse_error(code, out, err):
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
    assert doc["error"]["code"] == "parse"
    assert "Warning" not in err and "Traceback" not in err


class TestNonFiniteArithmetic:
    def test_overflowing_affine_exits_2(self, capsys, monkeypatch):
        text = json.dumps({"type": "affine", "m": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]], "c": [0, 0, 0]})
        code, out, err = analyze_text(capsys, monkeypatch, text)
        assert_parse_error(code, out, err)
        assert "singular value" in json.loads(out)["error"]["message"]

    def test_overflowing_kraus_exits_2(self, capsys, monkeypatch):
        ops = [[[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]
        code, out, err = analyze_text(capsys, monkeypatch, json.dumps({"type": "kraus", "operators": ops}))
        assert_parse_error(code, out, err)
        assert "trace preserving" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "mixed_unitary", "p": 0.1, "theta": Infinity}',
            '{"type": "gad", "gamma": NaN, "p": 0.1}',
            '{"type": "unitary", "theta": 1, "axis": [NaN, 0, 1]}',
        ],
    )
    def test_non_finite_family_parameter_exits_2(self, capsys, monkeypatch, text):
        code, out, err = analyze_text(capsys, monkeypatch, text)
        assert_parse_error(code, out, err)
        assert "finite number" in json.loads(out)["error"]["message"]


IDENTITY_OPERATOR = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def _with_entry(value, where):
    """An identity channel document with one matrix entry replaced."""
    if where == "operator":
        op = json.loads(json.dumps(IDENTITY_OPERATOR))
        op[0][0][0] = value
        return {"type": "kraus", "operators": [op]}
    doc = {"type": "affine", "m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "c": [0, 0, 0]}
    if where == "m":
        doc["m"][0][0] = value
    else:
        doc["c"][0] = value
    return doc


class TestNonNumberEntries:
    @pytest.mark.parametrize("where", ["m", "c", "operator"])
    @pytest.mark.parametrize("value", ["1", True, None, [1]])
    def test_exits_2(self, capsys, monkeypatch, where, value):
        code, out, err = analyze_text(capsys, monkeypatch, json.dumps(_with_entry(value, where)))
        assert_parse_error(code, out, err)

    @pytest.mark.parametrize("where", ["m", "c", "operator"])
    def test_integers_still_accepted(self, capsys, monkeypatch, where):
        value = 0 if where == "c" else 1
        code, _, _ = analyze_text(capsys, monkeypatch, json.dumps(_with_entry(value, where)))
        assert code == 0

    @pytest.mark.parametrize("where", ["m", "operator"])
    def test_huge_integer_exits_2(self, capsys, monkeypatch, where):
        text = json.dumps(_with_entry(0, where)).replace("0", "1" + "0" * 400, 1)
        code, out, err = analyze_text(capsys, monkeypatch, text)
        assert_parse_error(code, out, err)

    def test_huge_integer_family_parameter_exits_2(self, capsys, monkeypatch):
        text = '{"type": "gad", "gamma": 1' + "0" * 400 + ', "p": 0.1}'
        code, out, err = analyze_text(capsys, monkeypatch, text)
        assert_parse_error(code, out, err)


FAMILY_DOCUMENTS = [
    {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]},
    {"type": "gad", "gamma": -0.5, "p": 0.2},
    {"type": "mixed_unitary", "p": 0.3, "theta": 2.8},
    {"type": "tetrahedron", "p": 0.25, "p_prime": 0.25},
    {"type": "unitary", "theta": 1.2, "axis": [0, 0.6, 0.8]},
]


def _cptp_route_documents():
    rng = RngStream(2718)
    docs = FAMILY_DOCUMENTS + [kraus_document(random_channel(rng, 1 + i % 4)) for i in range(200)]
    # the transpose map: positive but not completely positive
    docs.append({"type": "affine", "m": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "c": [0, 0, 0]})
    return docs


class TestCptpRoute:
    def test_documents_cover_every_family(self):
        assert {doc["type"] for doc in FAMILY_DOCUMENTS} == set(CHANNEL_TYPES) - {"kraus", "affine"}

    def test_cli_report_equals_validate_cptp(self, capsys, monkeypatch):
        codes = set()
        for doc in _cptp_route_documents():
            code, out, _ = analyze_text(capsys, monkeypatch, json.dumps(doc))
            codes.add(code)
            parsed = parse_channel_document(doc)
            report = validate_cptp(parsed.kraus or parsed.affine)
            expected = {
                "tp_exact": report.tp_exact,
                "tp_residual": report.tp_residual,
                "min_choi_eigenvalue": report.min_choi_eigenvalue,
                "passed": report.passed,
            }
            cptp = json.loads(out)["cptp"]
            assert cptp == expected
            assert cptp["tp_exact"] is report.tp_exact and cptp["passed"] is report.passed
        assert codes == {0, 3}


class TestZooNonFinite:
    @pytest.mark.parametrize(
        "params",
        [
            ["mixed_unitary", "0.1", "inf"],
            ["rotation", "inf", "0", "0", "1"],
            ["pauli", "nan", "0.5", "0.25", "0.25"],
            ["tetrahedron", "nan", "0.1"],
            ["gad", "--", "-inf", "0.2"],
        ],
    )
    def test_exits_2_without_warnings(self, params):
        # a fresh interpreter with default warning filters, so any warning reaches stderr
        env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quasinv.cli", "zoo", *params],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
        assert "finite number" in doc["error"]["message"]
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestTpResidualCount:
    @pytest.mark.parametrize(
        "doc",
        [
            kraus_document(random_channel(RngStream(3), 3)),
            {"type": "gad", "gamma": -0.5, "p": 0.2},
        ],
    )
    def test_analyze_computes_it_twice(self, capsys, monkeypatch, doc):
        # once when the Kraus set is built, once in the kraus_to_affine guard
        calls = []
        original = KrausChannel.tp_residual

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(KrausChannel, "tp_residual", counting)
        code, out, _ = analyze_text(capsys, monkeypatch, json.dumps(doc))
        assert code == 0
        assert len(calls) == 2
        parsed = parse_channel_document(doc)
        assert json.loads(out)["cptp"]["tp_residual"] == original(parsed.kraus)
