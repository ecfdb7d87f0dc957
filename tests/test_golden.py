"""Golden outputs and contracts of the channel-family and sampling code.

The digests and literals below were captured before the family table and
the shared batch and normals helpers existed; they pin the bytes those
helpers must reproduce.
"""

import hashlib
import io
import json
import re
from pathlib import Path

import pytest

import quasinv
import quasinv.cli as cli
from quasinv.documents import CHANNEL_DOCUMENT_SCHEMA, CHANNEL_TYPES
from quasinv.numerics import RngStream, ball_samples, sphere4_samples, sphere_samples

README = Path(__file__).resolve().parents[1] / "README.md"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    return code, capsys.readouterr().out


_NUMBER = {"type": "number"}


def _vector(n):
    return {"type": "array", "minItems": n, "maxItems": n, "items": {"type": "number"}}


def _cmatrix2():
    pair = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
    row = {"type": "array", "minItems": 2, "maxItems": 2, "items": pair}
    return {"type": "array", "minItems": 2, "maxItems": 2, "items": row}


EXPECTED_CHANNEL_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "channel document",
    "type": "object",
    "required": ["type"],
    "properties": {"label": {"type": "string"}},
    "oneOf": [
        {
            "properties": {
                "type": {"const": "kraus"},
                "operators": {"type": "array", "minItems": 1, "items": _cmatrix2()},
            },
            "required": ["type", "operators"],
        },
        {
            "properties": {
                "type": {"const": "affine"},
                "m": {"type": "array", "minItems": 3, "maxItems": 3, "items": _vector(3)},
                "c": _vector(3),
            },
            "required": ["type", "m", "c"],
        },
        {
            "properties": {"type": {"const": "pauli"}, "p": _vector(4)},
            "required": ["type", "p"],
        },
        {
            "properties": {"type": {"const": "gad"}, "gamma": _NUMBER, "p": _NUMBER},
            "required": ["type", "gamma", "p"],
        },
        {
            "properties": {"type": {"const": "mixed_unitary"}, "p": _NUMBER, "theta": _NUMBER},
            "required": ["type", "p", "theta"],
        },
        {
            "properties": {"type": {"const": "tetrahedron"}, "p": _NUMBER, "p_prime": _NUMBER},
            "required": ["type", "p", "p_prime"],
        },
        {
            "properties": {"type": {"const": "unitary"}, "theta": _NUMBER, "axis": _vector(3)},
            "required": ["type", "theta", "axis"],
        },
    ],
}


class TestChannelSchema:
    def test_equals_literal(self):
        assert CHANNEL_DOCUMENT_SCHEMA == EXPECTED_CHANNEL_SCHEMA

    def test_key_order(self):
        assert json.dumps(CHANNEL_DOCUMENT_SCHEMA) == json.dumps(EXPECTED_CHANNEL_SCHEMA)


# sha256 of `quasinv zoo FAMILY -- PARAMS...` stdout
ZOO_SHA256 = [
    ("pauli", ["0.1", "0.6", "0.2", "0.1"], "2f5baf21487c4af2afe9ea4f46cd8270f2912b2bc8f5004677278b32a51d681b"),
    ("pauli", ["0.25", "0.25", "0.25", "0.25"], "c1fb8352718d787ffd5b8c7cb8d72ed65763cc1df3011dc4aa6f242b66c373ff"),
    ("pauli", ["0.7", "0.1", "0.1", "0.1"], "b07ee4aee2877b369b6e87c009781787118119c9a195caf9931ef9d0cabba52f"),
    ("gad", ["-0.75", "0.3"], "53f7ca9b06ddfc6d331e0a70260ead7aab01b78bda09546c2555ab53ca7ee051"),
    ("gad", ["-0.25", "1.0"], "f9ab9fdedec0e0251b9752f729174b9dd70031b5af9f5d84a674f3e92864fd9c"),
    ("gad", ["0.5", "0.0"], "2cb5e7d34033c2622483f0cc62f03968854dd2da4f846a98b90ac42bcfed3258"),
    ("mixed_unitary", ["0.3", "2.8"], "692588028f248a751d8cb25b09b0c0a8bb18f2b84ecc82e2e7f3e05cdde1c218"),
    ("mixed_unitary", ["0.32", "2.4"], "7f962b9deb625ca462fc290dd607ddae4cf70f4ee723728f700feab97601aa34"),
    ("tetrahedron", ["0.3", "0.1"], "0706ef8a5bd436ba0e6fb57dacfb7388f9ac90212ed791d6e8b9853340a8c178"),
    ("tetrahedron", ["0.1", "0.3"], "c19a3d3717ef56533abbd53dca8238f91551801975fcb4bd6d3388e47aef8eae"),
    ("tetrahedron", ["0.05", "0.05"], "345978a9da8bc96c94d664a4664e5e868802ec32f0496624ffc685861d547172"),
    ("rotation", ["0.9", "0", "1", "0"], "feafb6becb3e9d17054ad972f029432e21ba7d9fd898fefdb827b1a2cddab6f1"),
    ("rotation", ["2.2", "0.6", "0", "0.8"], "25e23163227f73d7968b168a38e5558af8b0fd22fe9e7161c3ef768dc2f0fa2b"),
]


class TestZooGolden:
    @pytest.mark.parametrize("family,params,digest", ZOO_SHA256)
    def test_document_bytes(self, capsys, monkeypatch, family, params, digest):
        code, out = run_cli(capsys, monkeypatch, ["zoo", family, "--", *params])
        assert code == 0
        assert sha256(out) == digest

    def test_help_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(["zoo", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            "usage: quasinv zoo [-h] [--label LABEL]\n"
            "                   {gad,mixed_unitary,pauli,rotation,tetrahedron} params\n"
            "                   [params ...]\n"
            "\n"
            "positional arguments:\n"
            "  {gad,mixed_unitary,pauli,rotation,tetrahedron}\n"
            "  params                pauli: p0 p1 p2 p3 | gad: gamma p | mixed_unitary: p\n"
            "                        theta | tetrahedron: p p_prime | rotation: theta nx ny\n"
            "                        nz\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --label LABEL         override the document label\n"
        )


PAULI_DOCUMENT = json.dumps({"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]})
# the optimum of this point is off the canonical axes, so the sampled best matters
MIXED_UNITARY_DOCUMENT = json.dumps({"type": "mixed_unitary", "p": 0.3, "theta": 2.8})

SAMPLED_SHA256 = [
    (["mstd", "-", "--monte-carlo", "100000", "--seed", "7"], PAULI_DOCUMENT,
     "44ad7b0cfb36948b3b3ff880922cd38047620e58ec9bd27dc893a4823bd89e94"),
    (["mstd", "-", "--monte-carlo", "100000", "--seed", "7", "--surface"], PAULI_DOCUMENT,
     "48edf28a28b49754062ec656db47e90e5c4dbd787192347c1da707f675874eef"),
    (["verify", "-", "--samples", "100000", "--seed", "3"], PAULI_DOCUMENT,
     "c765a5ade749543766b1a2ab41f8e2139733075b2d4a4312d2f2f0b8a6aed1e4"),
    (["verify", "-", "--samples", "100000", "--seed", "3"], MIXED_UNITARY_DOCUMENT,
     "16064544f0e82a92ed408b196e4dedc2e5677d13bbbe7c85b0db4eca2b0045d1"),
]

SAMPLER_SHA256 = [
    (lambda: ball_samples(RngStream(1), 1001), "af9df6f049cbbe283a0bdb6bf5cc278054343e5d2e987caa14819917cd5f9174"),
    (lambda: sphere_samples(RngStream(2), 1001), "9eb0e80b19c341d515e1f1f05d8571816ead46725d212eac9cb0d17c9c2dfe63"),
    (lambda: sphere4_samples(RngStream(3), 1001), "85ae3f4ecda1b69d9c09aa874f46d3edad9d1c9b4062b93ef3dafe2d7b6dab11"),
    (lambda: RngStream(4).normals(1001), "e374966e2c8295b2750e521d15a5b200f50ec7cf3da40f75acbe1abae767671a"),
]


class TestSampledGolden:
    @pytest.mark.parametrize("argv,document,digest", SAMPLED_SHA256)
    def test_cli_bytes(self, capsys, monkeypatch, argv, document, digest):
        code, out = run_cli(capsys, monkeypatch, argv, stdin=document)
        assert code == 0
        assert sha256(out) == digest

    @pytest.mark.parametrize("draw,digest", SAMPLER_SHA256)
    def test_sampler_bytes(self, draw, digest):
        assert hashlib.sha256(draw().tobytes()).hexdigest() == digest


EXPECTED_ALL = [
    "AffineChannel", "ConvergenceError", "CptpReport", "FamilySpec", "GoldenExpectation",
    "KrausChannel", "MstdReport", "QForm", "QuasiInverseResult", "RngStream", "UnitaryParams",
    "VerificationReport", "apply", "brute_force_best", "build_q", "choi", "compose",
    "delta_mstd_direct", "eig_herm4", "eig_sym4", "identity_channel", "kraus_to_affine", "make",
    "maximize", "mstd_analytic", "mstd_composed", "mstd_monte_carlo", "mstd_surface_analytic",
    "phase_distance", "quasi_inverse", "random_channel", "sample_ball", "sample_sphere4",
    "trace_distance", "unitary_matrix", "unitary_to_affine", "validate_cptp", "verify",
]


class TestContracts:
    def test_public_names(self):
        assert quasinv.__all__ == EXPECTED_ALL
        assert all(hasattr(quasinv, name) for name in EXPECTED_ALL)

    def test_readme_document_types_match(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Channel document formats", 1)[1].split("\n## ", 1)[0]
        types = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert tuple(types) == CHANNEL_TYPES
