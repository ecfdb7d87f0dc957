import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import quasinv
import quasinv.cli as cli
from quasinv.channels import (
    PAULIS,
    KrausChannel,
    UnitaryParams,
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
from quasinv.numerics import RngStream, sample_sphere4
from quasinv.metrics import MC_MAX_SAMPLES, MC_MIN_SAMPLES
from quasinv.oracle import BRUTE_FORCE_MAX_SAMPLES, BRUTE_FORCE_MIN_SAMPLES, VerificationReport


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

    @pytest.mark.parametrize("command", ["analyze", "mstd"])
    @pytest.mark.parametrize(
        "x,line",
        [([[1], 2], "input.x: [[1], 2]"), ([[1], {"a": 1}], "input.x: [[1], {'a': 1}]")],
        ids=["number-item", "object-item"],
    )
    def test_table_irregular_list(self, capsys, tmp_path, command, x, line):
        # a list is a matrix only when every item is a row: [[1], 2] raised TypeError, and
        # [[1], {"a": 1}] printed the row "a" without its value
        path = write_doc(tmp_path, {"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1], "x": x})
        code, out = run_cli(capsys, command, path, "--format", "table")
        assert code == 0
        assert line in out.splitlines()


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

        spec = zoo.spec_from_values(family, [float(x) for x in params])
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


class _UnreadStdin(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin was read")


class TestSampleMaximums:
    """A sample count past the maximum is a parse error, refused before the document is read."""

    @pytest.mark.parametrize(
        "command,option,low,high",
        [
            ("mstd", "--monte-carlo", MC_MIN_SAMPLES, MC_MAX_SAMPLES),
            ("verify", "--samples", BRUTE_FORCE_MIN_SAMPLES, BRUTE_FORCE_MAX_SAMPLES),
        ],
    )
    @pytest.mark.parametrize("excess", ["one", "huge"])
    def test_too_many_samples_exit_2(self, capsys, monkeypatch, command, option, low, high, excess):
        count = high + 1 if excess == "one" else 10**23
        monkeypatch.setattr(sys, "stdin", _UnreadStdin())
        code, out = run_cli(capsys, command, "-", option, str(count))
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, ERROR_DOCUMENT_SCHEMA)
        assert doc["error"] == {"code": "parse", "message": f"{option} must be in {low}..{high}, got {count}"}


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


class TestPauliOverflow:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["analyze", "-"], '{"type": "pauli", "p": [0.5, 0.5, 1e308, 1e308]}'),
            (["zoo", "pauli", "0.5", "0.5", "1e308", "1e308"], ""),
        ],
        ids=["analyze", "zoo"],
    )
    def test_exits_2_with_only_the_error_line(self, argv, stdin):
        # p.sum() overflowed and printed a RuntimeWarning ahead of the error line
        env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quasinv.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "parse"
        assert error["message"].startswith("pauli probabilities must be nonnegative and sum to 1, got [")
        assert proc.stderr == f"error: {error['message']}\n"


class TestTpResidualCount:
    @pytest.mark.parametrize(
        "doc",
        [
            kraus_document(random_channel(RngStream(3), 3)),
            {"type": "gad", "gamma": -0.5, "p": 0.2},
        ],
    )
    def test_analyze_computes_it_once(self, capsys, monkeypatch, doc):
        # when the Kraus set is built; the read-only operators keep it valid
        calls = []
        original = KrausChannel.tp_residual

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(KrausChannel, "tp_residual", counting)
        code, out, _ = analyze_text(capsys, monkeypatch, json.dumps(doc))
        assert code == 0
        assert len(calls) == 1
        parsed = parse_channel_document(doc)
        assert json.loads(out)["cptp"]["tp_residual"] == original(parsed.kraus)


# Largest singular value just under the 1 + 1e-9 bound: the channel parses
# and passes the CPTP check, while the product with the quasi-inverse rounds
# to 1.0000000010000003, just past the bound.
CONTRACTION_BOUNDARY = {
    "type": "affine",
    "m": [
        [0.5563327137294587, 0.06498002526038026, 0.828415058984068],
        [0.33041950736371023, 0.8974345419388448, -0.29229128294996926],
        [-0.7624413831816446, 0.43633569788888044, 0.47780152569857337],
    ],
    "c": [0, 0, 0],
}


def boundary_rotation(rng):
    """(1 + 1e-9) R for a random rotation R, scaled down by 1 - 2e-16 until AffineChannel accepts it."""
    m = (1.0 + 1e-9) * quasinv.unitary_to_affine(UnitaryParams.from_vector(sample_sphere4(rng))).m
    for _ in range(100):
        try:
            return quasinv.AffineChannel(m, np.zeros(3))
        except ValueError:
            m = m * (1.0 - 2e-16)
    raise AssertionError("no accepted scaling")


class TestContractionBoundary:
    @pytest.mark.parametrize(
        "argv,schema",
        [(["analyze", "-"], RESULT_DOCUMENT_SCHEMA), (["verify", "-"], VERIFICATION_DOCUMENT_SCHEMA)],
    )
    def test_cli_answers(self, argv, schema):
        # a fresh interpreter with default warning filters, so any warning reaches stderr;
        # verify runs at its default 100,000 samples (10,000 miss the 1 % nearness bound here)
        env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quasinv.cli", *argv],
            input=json.dumps(CONTRACTION_BOUNDARY), capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        jsonschema.validate(json.loads(proc.stdout), schema)
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_api_answers(self):
        e = parse_channel_document(CONTRACTION_BOUNDARY).affine
        result = quasinv.quasi_inverse(e)
        u = UnitaryParams.from_vector(result.x)
        assert quasinv.delta_mstd_direct(e, u) == pytest.approx(result.delta_mstd, abs=1e-12)

    def test_seeded_sweep(self, capsys, monkeypatch):
        rng = RngStream(2024)
        for _ in range(200):
            e = boundary_rotation(rng)
            doc = {"type": "affine", "m": e.m.tolist(), "c": [0, 0, 0]}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = analyze_text(capsys, monkeypatch, json.dumps(doc))
            assert code in (0, 3), err
            jsonschema.validate(json.loads(out), RESULT_DOCUMENT_SCHEMA)


class TestKrausTranslationBoundary:
    def test_exits_2(self, capsys, monkeypatch):
        # TP residual 7.07e-11 is within TP_TOL; |c| = 1 + 5e-11 is not within 1 + 1e-12
        a = [1.000000000025, 0]
        doc = {"type": "kraus", "operators": [[[a, [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], a], [[0, 0], [0, 0]]]]}
        code, out, err = analyze_text(capsys, monkeypatch, json.dumps(doc))
        assert_parse_error(code, out, err)
        assert "translation vector outside the ball" in json.loads(out)["error"]["message"]


def test_cli_import_leaves_out_thread_pools():
    env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]))
    code = "import sys, quasinv.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


class TestMonteCarloAndVerifyWorkers:
    """The sampling commands run on every allowed CPU; their output does not depend on the count."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mstd", "--monte-carlo", "65537"],  # batches of 32,768, the last of one sample
            ["mstd", "--monte-carlo", "65537", "--surface"],
            ["verify", "--samples", "65537"],  # batches of 65,536, the last of one sample
        ],
        ids=["ball", "surface", "verify"],
    )
    def test_output_independent_of_cpu_count(self, capsys, tmp_path, monkeypatch, argv):
        path = write_doc(tmp_path, kraus_document(random_channel(RngStream(12), 3)))
        outputs = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            code = cli.main([argv[0], path, *argv[1:], "--seed", "5"])
            captured = capsys.readouterr()
            outputs.add((code, captured.out, captured.err))
        assert len(outputs) == 1
        assert outputs.pop()[0] == 0

    def test_commands_pass_the_cpu_count(self, capsys, tmp_path, monkeypatch):
        seen = []

        def spy(real):
            def call(*args, workers=1, **kwargs):
                seen.append(workers)
                return real(*args, workers=workers, **kwargs)
            return call

        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        monkeypatch.setattr(cli, "mstd_monte_carlo", spy(cli.mstd_monte_carlo))
        monkeypatch.setattr(cli.oracle, "verify", spy(cli.oracle.verify))
        path = write_doc(tmp_path, {"type": "gad", "gamma": -0.4, "p": 0.3})
        assert run_cli(capsys, "mstd", path, "--monte-carlo", "1000")[0] == 0
        assert run_cli(capsys, "verify", path, "--samples", "10000")[0] == 0
        assert seen == [3, 3]

    def test_cpu_count_is_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._cpus() == 1


TRANSPOSE = {"type": "affine", "m": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "c": [0, 0, 0]}


class TestAnalysisDocumentKeys:
    """An analysis document has exactly the keys RESULT_DOCUMENT_SCHEMA declares, in its order."""

    @pytest.mark.parametrize(
        "doc", [*FAMILY_DOCUMENTS, kraus_document(random_channel(RngStream(5), 3)), {"type": "pauli", "p": [1, 0, 0, 0]}]
    )
    def test_answer_has_every_property(self, capsys, monkeypatch, doc):
        code, out, _ = analyze_text(capsys, monkeypatch, json.dumps(doc))
        assert code == 0
        assert list(json.loads(out)) == list(RESULT_DOCUMENT_SCHEMA["properties"])

    def test_cptp_failure_has_the_required_keys(self, capsys, monkeypatch):
        code, out, _ = analyze_text(capsys, monkeypatch, json.dumps(TRANSPOSE))
        assert code == 3
        assert list(json.loads(out)) == RESULT_DOCUMENT_SCHEMA["required"]


COMMANDS = {
    "analyze": ["analyze"],
    "mstd": ["mstd"],
    "verify": ["verify", "--samples", "10000"],
}


class TestNonUtf8File:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"type": "gad", "gamma": 0.3, "p": 0.2, "label": "\xff"}')
        code = cli.main([*COMMANDS[command], str(path)])
        captured = capsys.readouterr()
        assert_parse_error(code, captured.out, captured.err)
        assert "utf-8" in json.loads(captured.out)["error"]["message"]


NON_UTF8_DOCUMENT = b'{"type": "gad", "gamma": 0.3, "p": 0.2, "label": "\xff"}'


class TestNonUtf8Stdin:
    """Stdin follows the file rule: text that is not UTF-8 is a parse error."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2(self, command):
        # UTF-8 mode reads stdin with surrogateescape, so 0xff arrives as a lone surrogate
        env = dict(os.environ, PYTHONPATH=str(Path(quasinv.__file__).resolve().parents[1]), PYTHONUTF8="1")
        proc = subprocess.run(
            [sys.executable, "-m", "quasinv.cli", *COMMANDS[command], "-"],
            input=NON_UTF8_DOCUMENT, capture_output=True, env=env, timeout=60,
        )
        assert_parse_error(proc.returncode, proc.stdout, proc.stderr.decode())
        assert "cannot read '-'" in json.loads(proc.stdout)["error"]["message"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_lone_surrogate_exits_2(self, capsys, monkeypatch, command):
        text = NON_UTF8_DOCUMENT.decode("utf-8", "surrogateescape")
        code, out, err = run_text(capsys, monkeypatch, [*COMMANDS[command], "-"], text)
        assert_parse_error(code, out, err)
        assert "cannot read '-'" in json.loads(out)["error"]["message"]


ZOO_ARGUMENTS = {
    "pauli": ["0.1", "0.6", "0.2", "0.1"],
    "gad": ["-0.5", "0.2"],
    "mixed_unitary": ["0.3", "2.8"],
    "tetrahedron": ["0.25", "0.25"],
    "rotation": ["1.2", "0", "0.6", "0.8"],
}


class TestNoDiscardedExpectation:
    """Family documents and quasinv zoo build the channel only; zoo.make still builds both."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return quasinv.GoldenExpectation(*args, **kwargs)

        monkeypatch.setattr(quasinv.zoo, "GoldenExpectation", counting)
        return built

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("doc", FAMILY_DOCUMENTS, ids=lambda doc: doc["type"])
    def test_commands_build_none(self, capsys, monkeypatch, built, command, doc):
        code, _, err = run_text(capsys, monkeypatch, [*COMMANDS[command], "-"], json.dumps(doc))
        assert code == 0, err
        assert built == []

    @pytest.mark.parametrize("family", sorted(ZOO_ARGUMENTS))
    def test_zoo_builds_none(self, capsys, built, family):
        code, _ = run_cli(capsys, "zoo", family, "--", *ZOO_ARGUMENTS[family])
        assert code == 0
        assert built == []

    def test_arguments_cover_every_family(self):
        assert set(ZOO_ARGUMENTS) == set(quasinv.zoo.FAMILIES)

    @pytest.mark.parametrize("family", sorted(ZOO_ARGUMENTS))
    def test_make_builds_one(self, built, family):
        spec = quasinv.zoo.spec_from_values(family, [float(x) for x in ZOO_ARGUMENTS[family]])
        _, gold = quasinv.zoo.make(spec)
        assert len(built) == 1
        assert isinstance(gold, quasinv.GoldenExpectation)


def nested_list(depth):
    return "[" * depth + "]" * depth


def run_text(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeepNesting:
    """Input too deep to parse or to echo is a parse error, reported once."""

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "command,channel,answered",
        [
            ("analyze", {"type": "gad", "gamma": 0.3, "p": 0.2}, 0),
            ("analyze", TRANSPOSE, 3),
            ("mstd", {"type": "gad", "gamma": 0.3, "p": 0.2}, 0),
            ("verify", {"type": "gad", "gamma": 0.3, "p": 0.2}, 0),
        ],
    )
    def test_echoed_field(self, capsys, monkeypatch, fmt, command, channel, answered):
        # parses, but echoing 600 levels of input recurses past the default limit
        # (on interpreters that render it, the full answer is the one document)
        text = json.dumps(channel)[:-1] + ', "extra": ' + nested_list(600) + "}"
        code, out, err = run_text(capsys, monkeypatch, [*COMMANDS[command], "-", "--format", fmt], text)
        assert "Traceback" not in err
        if code == 2:
            assert_parse_error(code, out, err)
            assert json.loads(out)["error"]["message"] == "document is nested too deeply"
        else:
            assert code == answered
            assert out.count("extra") == 1

    def test_unparseable_depth(self, capsys, monkeypatch):
        text = '{"type": "gad", "gamma": 0.3, "p": 0.2, "extra": ' + nested_list(100_000) + "}"
        code, out, err = run_text(capsys, monkeypatch, ["analyze", "-"], text)
        assert_parse_error(code, out, err)
        assert json.loads(out)["error"]["message"] == "document is nested too deeply"


class TestNonFiniteEchoedField:
    """A NaN or infinity in a field the parser does not read is a parse error before any work."""

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("command", ["analyze", "mstd", "verify"])
    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "[0.5, {\"a\": NaN}]"]
    )
    def test_parse_error(self, capsys, monkeypatch, fmt, command, value):
        monkeypatch.setattr(cli.oracle, "verify", lambda *a, **kw: pytest.fail("verify ran"))
        text = '{"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1], "note": ' + value + "}"
        code, out, err = run_text(capsys, monkeypatch, [*COMMANDS[command], "-", "--format", fmt], text)
        assert_parse_error(code, out, err)
        assert json.loads(out)["error"]["message"] == "field 'note' holds a non-finite number"

    @pytest.mark.parametrize("channel", [TRANSPOSE, {"type": "kraus", "operators": [IDENTITY_OPERATOR]}])
    def test_any_document_type(self, capsys, monkeypatch, channel):
        # the CPTP failure (TRANSPOSE) echoes its input too
        text = json.dumps(channel)[:-1] + ', "note": {"x": [1, Infinity]}}'
        code, out, err = run_text(capsys, monkeypatch, ["analyze", "-"], text)
        assert_parse_error(code, out, err)

    def test_finite_extra_fields_are_echoed(self, capsys, monkeypatch):
        text = '{"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1], "note": [1e308, -0.5, {"a": 2}]}'
        code, out, err = run_text(capsys, monkeypatch, ["analyze", "-"], text)
        assert code == 0 and err == ""
        assert json.loads(out)["input"]["note"] == [1e308, -0.5, {"a": 2}]

    def test_integer_past_the_digit_limit(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("this interpreter converts integer literals of any length")
        text = '{"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1], "note": ' + "1" * (limit + 1) + "}"
        code, out, err = run_text(capsys, monkeypatch, ["analyze", "-"], text)
        assert_parse_error(code, out, err)
        assert json.loads(out)["error"]["message"].startswith("invalid JSON: ")


GAD = {"type": "gad", "gamma": 0.3, "p": 0.2}

# each argv's {path} is a file holding GAD; stdin holds GAD too
ARGV_MATRIX = [
    ["analyze", "{path}"],
    ["analyze", "-"],
    ["analyze", "{path}", "--format", "table"],
    ["analyze", "{path}", "--format=table"],
    ["analyze", "--form", "table", "{path}"],
    ["analyze", "-", "--format", "table", "--format", "json"],
    ["mstd", "{path}", "--surface"],
    ["mstd", "-", "--monte", "1000", "--seed", "3"],
    ["mstd", "{path}", "--monte-carlo=1000", "--surf", "--format", "table"],
    ["zoo", "gad", "0.3", "0.2"],
    ["zoo", "gad", "0.3", "0.2", "--label", "x"],
    ["zoo", "rotation", "--", "2.2", "0.6", "0", "0.8"],
    ["zoo", "gad", "-0.3", "0.2"],
    ["random"],
    ["random", "--count", "2", "--seed", "5", "--kraus", "2"],
    ["verify", "{path}", "--samples", "10000", "--seed", "1"],
    ["verify", "-", "--samp", "10000", "--format", "table"],
    # help
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["analyze", "-h"],
    ["analyze", "{path}", "-h"],
    ["zoo", "--help"],
    ["-h", "analyze"],
    # unknown, abbreviated or missing commands and positionals
    ["ana", "{path}"],
    ["analyse", "{path}"],
    ["nosuch"],
    ["analyze"],
    ["zoo"],
    ["zoo", "nofamily", "1"],
    ["zoo", "gad", "x", "0.2"],
    # bad option values
    ["analyze", "{path}", "--format", "xml"],
    ["analyze", "{path}", "--format"],
    ["random", "--count", "x"],
    ["random", "--count", "0"],
    ["mstd", "{path}", "--monte-carlo", "10"],
    # '--', extra positionals and unknown options
    ["analyze", "--", "-"],
    ["--", "analyze", "-"],
    ["analyze", "{path}", "--", "extra"],
    ["analyze", "{path}", "extra"],
    ["analyze", "{path}", "--bogus"],
    ["analyze", "{path}", "--bogus=1"],
    ["analyze", "-x", "{path}"],
    ["random", "--seed", "1", "extra"],
    ["--format", "table", "analyze", "{path}"],
    ["-x"],
]


class TestOnePassDispatch:
    """main parses a named subcommand with that subcommand's parser alone; argparse's own
    two-pass parse, through the full parser, must give the same stdout, stderr and exit code."""

    @pytest.fixture
    def path(self, tmp_path):
        return write_doc(tmp_path, GAD)

    @staticmethod
    def outcome(capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GAD)))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def two_pass(monkeypatch):
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))

    @pytest.mark.parametrize("argv", ARGV_MATRIX, ids=" ".join)
    def test_same_outcome(self, capsys, monkeypatch, path, argv):
        argv = [arg.replace("{path}", path) for arg in argv]
        one_pass = self.outcome(capsys, monkeypatch, argv)
        with monkeypatch.context() as patch:
            self.two_pass(patch)
            assert self.outcome(capsys, patch, argv) == one_pass

    def test_matrix_reaches_every_exit(self, capsys, monkeypatch, path):
        codes = {self.outcome(capsys, monkeypatch, [arg.replace("{path}", path) for arg in argv])[0]
                 for argv in ARGV_MATRIX}
        assert codes == {0, 2}

    @pytest.mark.parametrize("argv", [["analyze", "{path}", "--format", "table"], ["-h"], ["ana"]],
                             ids=" ".join)
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, path, argv):
        argv = [arg.replace("{path}", path) for arg in argv]
        monkeypatch.setattr(sys, "argv", ["quasinv", *argv])
        expected = self.outcome(capsys, monkeypatch, argv)
        assert self.outcome(capsys, monkeypatch, None) == expected
        with monkeypatch.context() as patch:
            self.two_pass(patch)
            assert self.outcome(capsys, patch, None) == expected

    def test_subcommand_parsed_once(self, capsys, monkeypatch, path):
        parser, commands = cli._build_parser()
        calls = []
        original = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        for name, argv in [("analyze", ["analyze", path]), ("zoo", ["zoo", "gad", "0.3", "0.2"]),
                           ("random", ["random", "--count", "1"]), ("mstd", ["mstd", path, "--surface"])]:
            calls.clear()
            assert self.outcome(capsys, monkeypatch, argv)[0] == 0
            assert calls == [commands[name]], name
        # left-over arguments go to the full parser, which reports them
        calls.clear()
        assert self.outcome(capsys, monkeypatch, ["analyze", path, "extra"])[0] == 2
        assert calls[:2] == [commands["analyze"], parser]
