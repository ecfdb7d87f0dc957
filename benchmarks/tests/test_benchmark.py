"""The benchmark at tiny size, so it cannot rot. No test asserts a timing.

    python -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_report_every_metric_and_agree(workload):
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        for line in proc.stdout.splitlines()[:-1]:
            assert "problem:" not in line
        report = json.loads((ROOT / ".bench_out" / f"{workload}-seed1-trace{trace}-tiny.json").read_text())
        results[trace] = report
    # RNG-derived outputs are byte-identical between the timed and the traced run
    assert results[0]["rng_digest"] == results[1]["rng_digest"]
    assert (results[0]["rng_digest"] is None) == (workload == "oneshot")


def test_stream_self_times_add_up_to_the_traced_document_time():
    report = json.loads((ROOT / ".bench_out" / "stream-seed1-trace1-tiny.json").read_text())
    breakdown = report["breakdown"]
    assert breakdown["documents"] > 0
    assert breakdown["sum_us"] == pytest.approx(breakdown["traced_per_doc_us"], rel=1e-9)
    layers = {m["name"] for m in SPEC["per_layer"]}
    assert set(breakdown["per_doc_us"]) <= layers


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_out" / "bare"  # a directory with only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("stream", 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a = [d.text for d in inputs.stream_docs(7, 2)]
    assert a == [d.text for d in inputs.stream_docs(7, 2)]
    assert a != [d.text for d in inputs.stream_docs(8, 2)]
    kinds = sorted(d.kind for d in inputs.stream_docs(7, 2))
    assert kinds.count("kraus") == 24 and kinds.count("affine") == 6
    assert kinds.count("family") == 8 and kinds.count("invalid") == 2


def test_reference_routes():
    rng = np.random.default_rng(0)
    ops = inputs.random_kraus_ops(rng, 3)
    assert reference.tp_residual(ops) < 1e-12
    m, c = reference.affine_of_kraus(ops)
    assert reference.min_choi_eigenvalue(m, c) > -1e-12
    # a rotation is undone exactly: the decrease is its whole MSTD
    rot, _ = reference.affine_of_kraus([inputs._expm_su2(1.2, [0.0, 0.6, 0.8])])
    assert reference.wahba_delta(rot) == pytest.approx(reference.mstd_ball(rot, np.zeros(3)))
    assert reference.min_choi_eigenvalue(np.diag([1.0, -1.0, 1.0]), np.zeros(3)) == pytest.approx(-1.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail(list(range(19)))[0] == 50.0
    assert stats.tail(list(range(40)))[0] == 75.0
    assert stats.tail(list(range(1000)))[0] == 99.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
