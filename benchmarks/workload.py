"""One benchmark workload, run in a fresh interpreter by run.py.

    PYTHONPATH=src python benchmarks/workload.py --workload stream --seed 1 --seconds 30 --trace 0

Prints one JSON object: attempted/failed counts, the first problems
found, the workload's end-to-end metrics (--trace 0) or its per-layer
figures (--trace 1), and the digest of its RNG-derived outputs. Every
operation's output is checked against the independent routes in
reference.py; an operation fails on a wrong exit code, a failed check or
an exception, and counts against the attempts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import inputs
import reference
from calibration import Speed, numpy_kernel, python_kernel, spawn_kernel
import stats
import tracing

import quasinv as qv
import quasinv.cli  # noqa: F401  (loads the cli and documents modules)

ROOT = Path(__file__).resolve().parent.parent


class Sizes:
    """Input sizes; --tiny shrinks them so the benchmark's own tests stay fast."""

    def __init__(self, tiny: bool):
        self.stream_blocks = 1 if tiny else 25
        self.analyze_per_cycle = inputs.BLOCK  # one block per cycle keeps the mix exact
        self.api_per_cycle = 10
        self.random_count = 5 if tiny else 25
        self.mc_samples = 2**12 if tiny else 2**20
        self.verify_samples = 2**16 if tiny else 2**20


class Run:
    """Attempt and failure bookkeeping shared by every workload."""

    def __init__(self, args):
        self.args = args
        self.sizes = Sizes(args.tiny)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.counting: Counting | None = None
        self.digests: dict[str, str] = {}
        self.rng_parts: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def cli(self, argv: list[str], stdin: str = "", kind: str = "cli", label: str = ""):
        """cli.main(argv) with stdin, stdout and stderr in memory; returns (code, out, ns)."""
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
        main = qv.cli.main
        if self.tracer is not None:
            self.tracer.begin_op(kind, label)
        start = perf_counter_ns()
        try:
            if self.tracer is not None:
                code = self.tracer.root("cli.main", main, argv)
            else:
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            ns = perf_counter_ns() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        if self.counting is not None and stdin:
            self.counting.add(code, stdin, out.getvalue())
        return code, out.getvalue(), ns

    def check_rng_output(self, key: str, text: str) -> list[str]:
        """RNG-derived output must repeat byte for byte; the first of each key goes into the digest."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            self.rng_parts.append(digest)
        return [] if self.digests[key] == digest else [f"{key} output changed between repeats"]

    @property
    def rng_digest(self) -> str | None:
        if not self.rng_parts:
            return None
        return hashlib.sha256("".join(self.rng_parts).encode()).hexdigest()


def _guard(run: Run, what: str, fn, *args):
    """Run one operation; an exception is a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
        run.record(what, [f"{type(exc).__name__}: {exc}"])
        return None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def analyze_op(run: Run, doc: inputs.Doc) -> int:
    kind = "analyze" if doc.expect_exit == 0 else "analyze_invalid"
    code, out, ns = run.cli(["analyze", "-"], doc.text, kind, doc.kind)
    if code != doc.expect_exit:
        run.record("analyze", [f"exit {code}, expected {doc.expect_exit} ({doc.kind})"])
        return ns
    result = json.loads(out)
    if doc.expect_exit == 0:
        run.record("analyze", reference.check_analysis(result, doc.m, doc.c))
    else:
        run.record("analyze", reference.check_error(result, doc.expect_exit, doc.m, doc.c))
    return ns


def api_op(run: Run, doc: inputs.Doc) -> int:
    """The README's Python-API path: parse_channel_document, then quasi_inverse."""
    if run.tracer is not None:
        run.tracer.begin_op("api", doc.kind)
    start = perf_counter_ns()
    parsed = qv.documents.parse_channel_document(json.loads(doc.text))
    res = qv.quasi_inverse(parsed.affine)
    ns = perf_counter_ns() - start
    run.record("api", reference.check_solution(
        res.mstd_before, res.delta_mstd, res.mstd_after, res.x, res.unitary, doc.m, doc.c))
    if run.tracer is not None:
        # maximize is the public form of the eigensolve; cmd_analyze does not call it
        lam, x = qv.maximize(qv.build_q(parsed.affine))
        run.record("maximize", [] if abs(0.4 * max(lam, 0.0) - res.delta_mstd) <= reference.SOLVER_TOL
                   else ["maximize disagrees with quasi_inverse"])
    return ns


def random_op(run: Run, seed: int, k: int) -> int:
    count = run.sizes.random_count
    code, out, ns = run.cli(["random", "--count", str(count), "--seed", str(seed), "--kraus", str(k)],
                            kind="random", label=f"kraus={k}")
    problems = [] if code == 0 else [f"exit {code}"]
    lines = out.splitlines()
    if len(lines) != count:
        problems.append(f"{len(lines)} lines, expected {count}")
    for index, line in enumerate(lines):
        doc = json.loads(line)
        ops = np.array([reference.complex_matrix(op) for op in doc["operators"]])
        if doc["label"] != f"random(seed={seed}, index={index}, kraus={k})" or len(ops) != k:
            problems.append("wrong label or operator count")
        if reference.tp_residual(ops) > reference.TP_TOL:
            problems.append("generated channel is not trace preserving")
    problems += run.check_rng_output(f"random:{seed}:{k}", out)
    run.record("random", problems)
    return ns


def mstd_mc_op(run: Run, doc: inputs.Doc, seed: int, surface: bool) -> tuple[int, float]:
    n = run.sizes.mc_samples
    argv = ["mstd", "-", "--monte-carlo", str(n), "--seed", str(seed)] + (["--surface"] if surface else [])
    code, out, ns = run.cli(argv, doc.text, "mstd", doc.kind)
    if code != 0:
        run.record("mstd", [f"exit {code}"])
        return ns, float("nan")
    report = json.loads(out)["mstd"]
    exact = reference.mstd_surface(doc.m, doc.c) if surface else reference.mstd_ball(doc.m, doc.c)
    problems = []
    if report["n_samples"] != n or report["method"] != ("monte-carlo-surface" if surface else "monte-carlo-ball"):
        problems.append("wrong method or sample count")
    if abs(report["value"] - exact) > reference.MC_SIGMAS * report["stderr"] + 1e-12:
        problems.append(f"Monte Carlo {report['value']!r} +- {report['stderr']!r} vs closed form {exact!r}")
    problems += run.check_rng_output(f"mstd:{seed}:{surface}", out)
    run.record("mstd", problems)
    return ns, report["value"]


def verify_op(run: Run, doc: inputs.Doc, seed: int) -> int:
    n = run.sizes.verify_samples
    code, out, ns = run.cli(["verify", "-", "--samples", str(n), "--seed", str(seed)], doc.text, "verify", doc.kind)
    if code not in (0, 4):
        run.record("verify", [f"exit {code}"])
        return ns
    report = json.loads(out)["verification"]
    optimum = reference.wahba_delta(doc.m)
    problems = [] if code == 0 and report["passed"] else ["verify did not pass"]
    if report["best_sampled_delta"] > optimum + reference.SOLVER_TOL:
        problems.append("a sampled unitary beats the SVD optimum")
    if abs(report["solver_delta"] - optimum) > reference.SOLVER_TOL:
        problems.append("solver_delta differs from the SVD optimum")
    run.record("verify", problems)
    return ns


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _deadline(seconds: float) -> float:
    return time.perf_counter() + seconds


def _timings(speed: Speed, specs: dict) -> tuple[dict, dict]:
    """Scaled and raw metrics from the calibrated samples.

    specs maps a sample key to (latency name or None, latency unit scale,
    unit, rate name or None).
    """
    samples = speed.finish()
    scaled, raw = {}, {}
    for key, (lat_name, scale, unit, rate_name) in specs.items():
        s_ns, r_ns, work = samples.get(key, ([], [], 0))
        for out, values in ((scaled, s_ns), (raw, r_ns)):
            if lat_name and values:
                st = stats.summary([v / scale for v in values])
                out[f"{lat_name}_p50_{unit}"] = {"value": st["p50"], "unit": unit, "n": st["n"]}
                out[f"{lat_name}_tail_{unit}"] = {"value": st["tail"], "unit": unit, "n": st["n"],
                                                  "percentile": st["tail_percentile"]}
            if rate_name and values:
                out[rate_name] = {"value": work / (sum(values) / 1e9), "unit": "1/s", "count": work}
    return scaled, raw


def _result(speed: Speed, specs: dict, p50: str, rate: str, scale: float) -> dict:
    scaled, raw = _timings(speed, specs)
    return {"metrics": scaled, "raw_metrics": raw, "calibration": speed.summary(), "generic": {
        "p50_ms": scaled[p50]["value"] * scale,
        "throughput_per_s": scaled[rate]["value"],
    }}


def stream_timed(run: Run) -> dict:
    docs = inputs.stream_docs(run.args.seed, run.sizes.stream_blocks)
    valid = [d for d in docs if d.expect_exit == 0]
    gen_seeds = inputs.command_seeds(run.args.seed, 4)
    # warm-up, untimed: one of each operation, and every random command once
    _guard(run, "analyze", analyze_op, run, docs[0])
    _guard(run, "api", api_op, run, valid[0])
    for k in (1, 2, 3, 4):
        _guard(run, "random", random_op, run, gen_seeds[k - 1], k)

    speed = Speed(python_kernel)
    ia = ip = cycle = 0
    deadline = _deadline(run.args.seconds)
    while time.perf_counter() < deadline:
        for i in range(run.sizes.analyze_per_cycle):
            if i % 10 == 0:
                speed.tick()
            ns = _guard(run, "analyze", analyze_op, run, docs[ia % len(docs)])
            ia += 1
            if ns is not None:
                speed.add("analyze", ns)
        speed.tick()
        for _ in range(run.sizes.api_per_cycle):
            ns = _guard(run, "api", api_op, run, valid[ip % len(valid)])
            ip += 1
            if ns is not None:
                speed.add("api", ns)
        speed.tick()
        k = cycle % 4 + 1
        ns = _guard(run, "random", random_op, run, gen_seeds[k - 1], k)
        if ns is not None:
            speed.add("random", ns, run.sizes.random_count)
        cycle += 1
    return _result(speed, {
        "analyze": ("analyze", 1e3, "us", "analyze_channels_per_s"),
        "api": (None, 1, "", "api_channels_per_s"),
        "random": (None, 1, "", "generate_channels_per_s"),
    }, "analyze_p50_us", "analyze_channels_per_s", 1e-3)


def _analyze_child(cmd, doc: inputs.Doc, env) -> tuple[int, int, str]:
    start = perf_counter_ns()
    proc = subprocess.run(cmd, input=doc.text.encode(), capture_output=True, env=env, timeout=60)
    return proc.returncode, perf_counter_ns() - start, proc.stdout.decode()


def oneshot_timed(run: Run) -> dict:
    docs = inputs.oneshot_docs(run.args.seed)
    cmd = [sys.executable, "-m", "quasinv.cli", "analyze", "-"]
    env = dict(os.environ)

    def one(doc):
        code, ns, out = _analyze_child(cmd, doc, env)
        problems = [f"exit {code}"] if code != 0 else reference.check_analysis(json.loads(out), doc.m, doc.c)
        run.record("oneshot", problems)
        return ns

    _guard(run, "oneshot", one, docs[0])  # warm-up, untimed
    speed = Speed(spawn_kernel)
    deadline = _deadline(run.args.seconds)
    while time.perf_counter() < deadline:
        for doc in docs:
            speed.tick()
            ns = _guard(run, "oneshot", one, doc)
            if ns is not None:
                speed.add("oneshot", ns)
    result = _result(speed, {"oneshot": ("oneshot", 1e6, "ms", "oneshot_docs_per_s")},
                     "oneshot_p50_ms", "oneshot_docs_per_s", 1.0)
    # children: the analyze processes and the kernel's bare interpreters, which are smaller
    result["children_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


def _sampling_cycle(run: Run, docs, seeds, speed: Speed | None = None, cmd_ns=None, mc_values=None):
    """One pass over the sampling commands; with a Speed, the kernel runs before each command.

    Every command's latency also goes under "command", one distribution for both kinds.
    """
    for j, doc in enumerate(docs):
        for surface in (False, True):
            if speed:
                speed.tick()
            r = _guard(run, "mstd", mstd_mc_op, run, doc, seeds[3 * j + surface], surface)
            if r is not None:
                if speed:
                    speed.add("mstd", r[0], run.sizes.mc_samples)
                    speed.add("command", r[0])
                if cmd_ns is not None:
                    cmd_ns.append(r[0])
                if mc_values is not None and not surface:
                    mc_values[j] = r[1]
        if speed:
            speed.tick()
        ns = _guard(run, "verify", verify_op, run, doc, seeds[3 * j + 2])
        if ns is not None:
            if speed:
                speed.add("verify", ns, run.sizes.verify_samples)
                speed.add("command", ns)
            if cmd_ns is not None:
                cmd_ns.append(ns)


def sampling_timed(run: Run) -> dict:
    docs = inputs.sampling_docs(run.args.seed)
    seeds = inputs.command_seeds(run.args.seed, 3 * len(docs))
    _guard(run, "mstd", mstd_mc_op, run, docs[0], seeds[0], False)  # warm-up, untimed
    speed = Speed(numpy_kernel)
    deadline = _deadline(run.args.seconds)
    while time.perf_counter() < deadline:
        _sampling_cycle(run, docs, seeds, speed)
    return _result(speed, {
        "command": ("sampling_command", 1e6, "ms", None),
        "mstd": (None, 1, "", "mc_samples_per_s"),
        "verify": (None, 1, "", "verify_samples_per_s"),
    }, "sampling_command_p50_ms", "mc_samples_per_s", 1.0)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

COUNTS = ("channels.cptp_failed", "inverter.degenerate_count", "inverter.trivial_count",
          "numerics.warnings", "oracle.verify_failed")


class Counting:
    """Counts from one fixed pass: they depend only on the seed."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bytes_in: list[int] = []
        self.bytes_out: list[int] = []

    def add(self, code: int, text: str, out: str) -> None:
        """Account for one answered channel document."""
        self.counts["channels.cptp_failed"] += code == 3
        self.counts["oracle.verify_failed"] += code == 4
        if code != 0:
            return
        doc = json.loads(out)
        self.bytes_in.append(len(text.encode()))
        self.bytes_out.append(len(out.encode()))
        self.counts["inverter.degenerate_count"] += bool(doc.get("degenerate"))
        self.counts["inverter.trivial_count"] += bool(doc.get("trivial"))


def _traced_passes(run: Run, one_pass, reference_pass) -> dict:
    """An untraced reference pass, then traced passes until the deadline.

    Counts come from the first traced pass only, with every warning
    recorded; span timings come from all traced passes. Returns the
    tracing overhead (median traced / untraced latency on the same inputs)
    and checks that the RNG-derived outputs of both passes are identical.
    """
    untraced_ns = reference_pass()
    untraced_digest = run.rng_digest
    run.digests.clear()
    run.rng_parts.clear()

    run.tracer = tracing.Tracer()
    undo = tracing.instrument(run.tracer, qv)
    counting = Counting()
    try:
        deadline = _deadline(run.args.seconds)
        run.counting = counting
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced_ns = one_pass()
        counting.counts["numerics.warnings"] = len(caught)
        run.counting = None
        while time.perf_counter() < deadline:
            one_pass()
    finally:
        run.counting = None
        tracing.restore(undo)
    run.record("determinism", [] if untraced_digest == run.rng_digest else
               ["RNG-derived outputs differ between the untraced and traced passes"])
    return {
        "overhead": statistics.median(traced_ns) / statistics.median(untraced_ns),
        "counting": counting,
        "rng_digest": untraced_digest,
    }


def stream_traced(run: Run) -> dict:
    docs = inputs.stream_docs(run.args.seed, run.sizes.stream_blocks)
    valid = [d for d in docs if d.expect_exit == 0]
    gen_seeds = inputs.command_seeds(run.args.seed, 4)

    def analyze_pass():
        lat = [_guard(run, "analyze", analyze_op, run, d) for d in docs]
        for k in (1, 2, 3, 4):
            _guard(run, "random", random_op, run, gen_seeds[k - 1], k)
        return [ns for ns in lat if ns is not None]

    def full_pass():
        lat = analyze_pass()
        for d in valid:
            _guard(run, "api", api_op, run, d)
        return lat

    for d in docs[:5]:  # warm-up
        _guard(run, "analyze", analyze_op, run, d)
    return _traced_passes(run, full_pass, analyze_pass)


ONESHOT_REPEATS = 5  # in-process passes over the six oneshot documents


def oneshot_traced(run: Run) -> dict:
    """The oneshot documents analyzed in process: the work one CLI process does after start-up."""
    docs = inputs.oneshot_docs(run.args.seed)

    def one_pass():
        lat = [_guard(run, "analyze", analyze_op, run, d) for d in docs * ONESHOT_REPEATS]
        return [ns for ns in lat if ns is not None]

    one_pass()  # warm-up
    return _traced_passes(run, one_pass, one_pass)


def sampling_traced(run: Run) -> dict:
    docs = inputs.sampling_docs(run.args.seed)
    seeds = inputs.command_seeds(run.args.seed, 3 * len(docs))
    parsed = [qv.documents.parse_channel_document(json.loads(d.text)) for d in docs]

    def reference_pass():
        cmd_ns = []
        _sampling_cycle(run, docs, seeds, cmd_ns=cmd_ns)
        return cmd_ns

    def one_pass():
        cmd_ns, values = [], {}
        _sampling_cycle(run, docs, seeds, cmd_ns=cmd_ns, mc_values=values)
        for j, p in enumerate(parsed):
            # the thread pool splits the same fixed batches: the value must not change
            run.tracer.begin_op("workers2", docs[j].kind)
            rep = qv.mstd_monte_carlo(p.affine, run.sizes.mc_samples, qv.RngStream(seeds[3 * j]), "ball", workers=2)
            run.record("workers2", [] if rep.value == values.get(j) else ["workers=2 changed the estimate"])
        return cmd_ns

    _guard(run, "mstd", mstd_mc_op, run, docs[0], seeds[0], False)  # warm-up
    return _traced_passes(run, one_pass, reference_pass)


PER_CALL_US = (
    "documents.json_loads", "documents.parse_kraus", "documents.parse_affine", "documents.parse_family",
    "documents.dumps_result", "zoo.make", "documents.dumps_kraus", "channels.random_channel",
    "numerics.normals_small", "channels.kraus_to_affine", "channels.affine_channel", "channels.choi",
    "channels.validate_cptp_kraus", "channels.validate_cptp_affine", "numerics.eig_herm4",
    "numerics.eig_sym4", "inverter.build_q", "inverter.maximize", "inverter.quasi_inverse",
    "metrics.mstd_analytic", "metrics.mstd_composed",
)
PER_SAMPLE_NS = (
    "numerics.ball_samples", "numerics.sphere_samples", "numerics.sphere4_samples",
    "metrics.mstd_monte_carlo", "oracle.brute_force_best",
)


def layer_metrics(run: Run, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the per-document breakdown for stream."""
    tracer = run.tracer
    times = tracing.layer_times(tracer, skip_kinds=("analyze_invalid",))
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "items": 0}
    out = {}
    for name in PER_CALL_US:
        rec = times.get(name, empty)
        out[f"{name}_us"] = {"value": rec["self_ns"] / 1e3 / max(rec["calls"], 1), "unit": "us",
                             "calls": rec["calls"]}
    for name in PER_SAMPLE_NS:
        rec = times.get(name, empty)
        out[f"{name}_ns"] = {"value": rec["self_ns"] / max(rec["items"], 1), "unit": "ns",
                             "calls": rec["calls"], "samples": rec["items"]}
    # with two threads the samplers run off the main thread: inclusive time
    rec = times.get("metrics.mstd_monte_carlo_workers2", empty)
    out["metrics.mstd_monte_carlo_workers2_ns"] = {"value": rec["total_ns"] / max(rec["items"], 1),
                                                   "unit": "ns", "calls": rec["calls"], "samples": rec["items"]}
    glue = times.get("cli.main", empty)
    out["cli.glue_us"] = {"value": glue["self_ns"] / 1e3 / max(glue["calls"], 1), "unit": "us",
                          "calls": glue["calls"]}
    # invalid documents: the whole cli.main call per document
    err_n, _, err_root = tracing.per_op_breakdown(tracer, "analyze_invalid")
    out["cli.error_doc_us"] = {"value": err_root / 1e3 / max(err_n, 1), "unit": "us", "calls": err_n}
    counting = traced["counting"]
    out["documents.bytes_in_per_doc"] = {"value": statistics.fmean(counting.bytes_in or [0]), "unit": "bytes"}
    out["documents.bytes_out_per_doc"] = {"value": statistics.fmean(counting.bytes_out or [0]), "unit": "bytes"}
    for name, value in counting.counts.items():
        out[name] = {"value": value, "unit": "count"}
    out["bench.trace_overhead_ratio"] = {"value": traced["overhead"], "unit": "ratio"}

    # stream: the reported self times plus cli.glue_us add up to the traced analyze time
    n_docs, self_ns, root_ns = tracing.per_op_breakdown(tracer, "analyze")
    breakdown = {}
    if n_docs:
        reported = set(PER_CALL_US) | {"cli.main"}
        breakdown = {("cli.glue" if k == "cli.main" else k) + "_us": v / 1e3 / n_docs
                     for k, v in sorted(self_ns.items())}
        unreported = sorted(set(self_ns) - reported)
        total = sum(breakdown.values())
        per_doc = root_ns / 1e3 / n_docs
        run.record("additivity", [] if not unreported and abs(total - per_doc) <= 1e-6 * per_doc else
                   [f"self times {total} us vs traced {per_doc} us per document; unreported {unreported}"])
        breakdown = {"per_doc_us": breakdown, "sum_us": total, "traced_per_doc_us": per_doc,
                     "documents": n_docs}
    return out, breakdown


def numpy_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


TIMED = {"oneshot": oneshot_timed, "stream": stream_timed, "sampling": sampling_timed}
TRACED = {"oneshot": oneshot_traced, "stream": stream_traced, "sampling": sampling_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TIMED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args(argv)

    package = Path(qv.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"quasinv imported from {package}, not from this checkout", file=sys.stderr)
        return 2
    run = Run(args)
    result: dict = {}
    if args.trace:
        traced = TRACED[args.workload](run)
        result["layers"], result["breakdown"] = layer_metrics(run, traced)
        result["rng_digest"] = traced["rng_digest"]
        if args.spans:
            run.tracer.dump(args.spans)
    else:
        result.update(TIMED[args.workload](run))
        result["rng_digest"] = run.rng_digest
    result["machine"] = numpy_info()
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
