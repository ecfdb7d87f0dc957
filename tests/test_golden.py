"""Golden outputs and contracts of the channel-family, sampling and analysis code.

The digests and literals below were captured before the family table, the
shared batch and normals helpers, the rendering of reports from their own
dataclass fields, and the report schemas derived from those fields existed;
they pin the bytes those must reproduce.
"""

import hashlib
import io
import json
import re
from pathlib import Path

import pytest

import quasinv
import quasinv.cli as cli
from quasinv import documents
from quasinv.channels import random_channel
from quasinv.documents import CHANNEL_DOCUMENT_SCHEMA, CHANNEL_TYPES, dumps, kraus_document
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


# sha256 of json.dumps(<NAME>_DOCUMENT_SCHEMA), which keeps key order, from the hand-written schemas
SCHEMA_SHA256 = [
    ("CHANNEL", "d1a2c12370554992bc43604546b4f67f9849a3da319615e13f6d4d359ded7ddd"),
    ("RESULT", "5ca79ed4de7bd97ca7bc824bfec9beec5adec4c4f5c9cb1143df3a8b3311a9ed"),
    ("MSTD", "2c067a2a94850d087551b0b05cae2d0cb12a186280ecf3fd0820ed7f0457985a"),
    ("VERIFICATION", "c8a66adfc3361240d977d820fa46a0e57d4877ac1c424b3369703fdc9e908a97"),
    ("ERROR", "a37953c3ad11c7246c86bce85bf6059ce10a826b5a33cebed279713d3c432634"),
]


class TestPublishedSchemas:
    @pytest.mark.parametrize("name,digest", SCHEMA_SHA256)
    def test_bytes(self, name, digest):
        assert sha256(json.dumps(getattr(documents, f"{name}_DOCUMENT_SCHEMA"))) == digest


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
# the optimum of this point is off the canonical axes, so the sampled best and its refinement matter
MIXED_UNITARY_DOCUMENT = json.dumps({"type": "mixed_unitary", "p": 0.3, "theta": 2.8})

SAMPLED_SHA256 = [
    (["mstd", "-", "--monte-carlo", "100000", "--seed", "7"], PAULI_DOCUMENT,
     "9b55993b1d226529804ebe948c19bd5643efae69f09174cf5af207cf8fa0001e"),
    (["mstd", "-", "--monte-carlo", "100000", "--seed", "7", "--surface"], PAULI_DOCUMENT,
     "4a5a72c32814bc9a40ce4791605fe2a5ccdd30617077ae73e780c38e03e25008"),
    (["verify", "-", "--samples", "100000", "--seed", "3"], PAULI_DOCUMENT,
     "c765a5ade749543766b1a2ab41f8e2139733075b2d4a4312d2f2f0b8a6aed1e4"),
    (["verify", "-", "--samples", "100000", "--seed", "3"], MIXED_UNITARY_DOCUMENT,
     "3f0a9dbb6327a7324f90c25543fe09791e7941ccac2a8a9a29377f40dfb363a3"),
]

SAMPLER_SHA256 = [
    (lambda: ball_samples(RngStream(1), 1001), "4f0c251fb78d4ee0385dc54d772c5d11eecdb1f557d15bcae8f5485cd050212a"),
    (lambda: sphere_samples(RngStream(2), 1001), "a0de72966633aa69efc1bfbcab58ed80583bbab60852165fc1ccd9d832f4df8a"),
    (lambda: sphere4_samples(RngStream(3), 1001), "a5bd869952404a1d9548d70fe33262e828e2d468d246f8ca0bd140950aa09f4a"),
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


# Non-degenerate optima only, so the bytes do not depend on LAPACK's order of tied eigenvectors.
ANALYTIC_DOCUMENTS = {
    "pauli": PAULI_DOCUMENT,
    "gad": json.dumps({"type": "gad", "gamma": -0.5, "p": 0.2}),
    "rotation": json.dumps({"type": "unitary", "theta": 2.2, "axis": [0.6, 0, 0.8]}),
    "kraus": dumps(kraus_document(random_channel(RngStream(11), 3))),
    "non_cp": json.dumps({"type": "affine", "m": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "c": [0, 0, 0]}),
}
ANALYTIC_ARGV = {
    "analyze": ["analyze", "-"],
    "table": ["analyze", "-", "--format", "table"],
    "mstd": ["mstd", "-"],
    "surface": ["mstd", "-", "--surface"],
}
_NON_CP_SHA256 = "703ca36d06c50555c4531492c4fb86b68743c94c3adedb7f675cbe730d726f3a"
# (document, command, exit code, sha256 of stdout)
ANALYTIC_SHA256 = [
    ("pauli", "analyze", 0, "727a200309a64c9a123c64e9e6356e873e7a67b90f75acbef60b2bbc4cfe06ca"),
    ("pauli", "table", 0, "0cfc6071028834b0ad03ae85d94290c9652e916bb65fe1688cd883aedcff4154"),
    ("pauli", "mstd", 0, "49b9e8254ef8b9b4a529542049f069591196b88498030585f181b798dd058e16"),
    ("pauli", "surface", 0, "08e40d7d49c942a7c4801a28683a4c7445a9e4631b482598adbafaa7c83c2bbb"),
    ("gad", "analyze", 0, "bc05f5fcb02f0d6c59b80d492d62523ab426aff76a94837188c419be6c60af74"),
    ("gad", "table", 0, "bc2750a974d761724ee4a228e05bfabf03a4d0c87dda2bdb75a9a2479b27e9a8"),
    ("gad", "mstd", 0, "ad6ef62cecf45fda267bd2d3e826eeb7e9c624aa625fade229f0c6b9c14814e4"),
    ("gad", "surface", 0, "d0998db6f29fe0569a0fb4281fd8851ea01f58dd54c842e638eebf194ba986b3"),
    ("rotation", "analyze", 0, "235a54a60923fce741a17bc341d9e8c178dc99f765dc4fa175f7c6bd98b1a73a"),
    ("rotation", "table", 0, "90bf1b674c7e64e4acea5409ce889e5b67a7d1401325dbd97b8a15487d98400e"),
    ("rotation", "mstd", 0, "b813a727e60a2d73de0476ba23e8b6f8c0a964fd21b1205c2943622e6fbdf708"),
    ("rotation", "surface", 0, "d9fcf16039dfaae7fcc39d12fd9863c7e12f16b4bdd03ddf4814f78d1ecb4854"),
    ("kraus", "analyze", 0, "6e1d0c101af146b2861b9b559b36f5c8b7e5e3adf2fddf545b8e7ea4a7d44af5"),
    ("kraus", "table", 0, "7de126a4309ef3ae54e826979622481bf944a7ce6ead6149eb535bfa3fe1b158"),
    ("kraus", "mstd", 0, "a185dd6cfc07118b4c384f2897ca9674b8d87cbab4356a4e1cf15e3362bfe88b"),
    ("kraus", "surface", 0, "e1739e6247f98775404e77addd5514d639d43c4cf19dc1226fd5f2e372f77603"),
    # a channel that fails the CPTP check prints its input, affine form and report only
    ("non_cp", "analyze", 3, _NON_CP_SHA256),
    ("non_cp", "table", 3, "f5835c9f08e535fda0769cc0b4850a1cd6d6a62b181da9b62e78a8bdae0d54b9"),
    ("non_cp", "mstd", 3, _NON_CP_SHA256),
    ("non_cp", "surface", 3, _NON_CP_SHA256),
]


class TestAnalyticGolden:
    @pytest.mark.parametrize("name,command,exit_code,digest", ANALYTIC_SHA256)
    def test_cli_bytes(self, capsys, monkeypatch, name, command, exit_code, digest):
        code, out = run_cli(capsys, monkeypatch, ANALYTIC_ARGV[command], stdin=ANALYTIC_DOCUMENTS[name])
        assert code == exit_code
        assert sha256(out) == digest


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
