"""quasinv benchmark: end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 benchmarks/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository. The workload runs in its own fresh
interpreter (benchmarks/workload.py) with the checkout's ``src`` first on
PYTHONPATH; this process only starts it, measures start-up in further
fresh interpreters, and reports. It prints every metric by name with its
unit, writes a full report (machine, percentiles, sample counts, RNG
digest) under .bench_out/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Workloads (see README.md for why each was chosen):
  oneshot   one `python -m quasinv.cli analyze -` process per document
  stream    analyze, the Python API and `random`, in one warm process
  sampling  `mstd --monte-carlo N` (ball, surface) and `verify --samples N`
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from calibration import Speed, spawn_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("oneshot", "stream", "sampling")
STARTUP_RUNS = 7
CHILD_TIMEOUT_S = 150

# End-to-end metrics gated in BENCHMARK.json. Every workload reports all of
# them; p50_ms and throughput_per_s are its own main operation:
#   oneshot   p50 of one CLI process, documents per second
#   stream    p50 of one in-process analyze call, analyze channels per second
#   sampling  p50 of one sampling command, Monte Carlo samples per second
# Timings are scaled to the calibration kernel's nominal speed (calibration.py).
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms", "throughput_per_s": "1/s"}
STARTUP_UNITS = {"startup.python_s": "s", "startup.import_numpy_s": "s",
                 "startup.import_quasinv_s": "s", "cli.first_call_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(env: dict, runs: int) -> dict:
    """Set-up time: fresh interpreters that import quasinv.cli and exit, median scaled and raw."""
    speed = Speed(spawn_kernel)
    for _ in range(runs):
        speed.tick()
        start = perf_counter_ns()
        run_child([sys.executable, "-c", "import quasinv.cli"], env)
        speed.add("setup", perf_counter_ns() - start)
    scaled, raw, _ = speed.finish()["setup"]
    return {"setup_s": {"value": statistics.median(scaled) / 1e9, "unit": "s", "n": runs},
            "setup_raw_s": {"value": statistics.median(raw) / 1e9, "unit": "s", "n": runs}}


def fresh_interpreter_s(code: str, env: dict, runs: int) -> float:
    """Median wall time of `python -c code` in fresh interpreters."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        run_child([sys.executable, "-c", code], env)
        times.append(perf_counter() - start)
    return statistics.median(times)


def startup_layers(env: dict, runs: int) -> tuple[dict, int, int]:
    """startup.* and cli.first_call_ms, medians over fresh interpreters."""
    probes = [json.loads(run_child([sys.executable, str(HERE / "startup_probe.py")], env).splitlines()[-1])
              for _ in range(runs)]
    values = {
        "startup.python_s": fresh_interpreter_s("pass", env, runs),
        "startup.import_numpy_s": statistics.median(p["import_numpy_s"] for p in probes),
        "startup.import_quasinv_s": statistics.median(p["import_quasinv_s"] for p in probes),
        "cli.first_call_ms": statistics.median(p["first_call_ms"] for p in probes),
    }
    # the README's Pauli example: the best correction removes 0.4 * (0.6 - 0.1)
    failed = sum(p["exit"] != 0 or abs(p["delta_mstd"] - 0.2) > 1e-9 for p in probes)
    return {k: {"value": v, "unit": STARTUP_UNITS[k]} for k, v in values.items()}, len(probes), failed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(extra: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        **extra,
    }


def format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasinv" / "__init__.py").is_file():
        print(f"error: no quasinv sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    env = child_env()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(OUT_DIR / f"{stem}-spans.jsonl")]

    runs = 3 if args.tiny else STARTUP_RUNS
    try:
        child = json.loads(run_child(cmd, env).splitlines()[-1])
        # the workload process has been reaped and no other child has run yet
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        attempted, failed = child["attempted"], child["failed"]
        if args.trace:
            startup, n, bad = startup_layers(env, runs)
            attempted, failed = attempted + n, failed + bad
            metrics = {**startup, **child["layers"]}
            workload_metrics = {}
        else:
            setup = setup_seconds(env, runs)
            workload_metrics = {**child["metrics"], **setup}
            generic = dict(child["generic"], setup_s=setup["setup_s"]["value"],
                           peak_rss_mb=child.get("children_peak_rss_mb", rss_mb))
            metrics = {k: {"value": generic[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workload_metrics["failed_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "machine": machine(child.get("machine", {})),
        "attempted": attempted, "failed": failed, "problems": child["problems"],
        "rng_digest": child["rng_digest"], "metrics": metrics, "workload_metrics": workload_metrics,
        "raw_workload_metrics": child.get("raw_metrics"), "calibration": child.get("calibration"),
        "breakdown": child.get("breakdown"),
    }
    report_path = OUT_DIR / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"quasinv benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    m = report["machine"]
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, numpy {m.get('numpy')}")
    for name, rec in {**workload_metrics, **metrics}.items():
        extra = {k: v for k, v in rec.items() if k not in ("value", "unit")}
        note = "  " + " ".join(f"{k}={format_value(v)}" for k, v in extra.items()) if extra else ""
        print(f"  {name:40s} {format_value(rec['value']):>14s} {rec['unit']}{note}")
    for problem in child["problems"]:
        print(f"  problem: {problem}")
    if child.get("calibration"):
        c = child["calibration"]
        print(f"calibration: {c['kernel']} median {c['kernel_ms_p50']:.4g} ms over {c['ticks']} ticks, "
              f"timings scaled to {c['nominal_ms']} ms; raw values in the report")
    print(f"rng digest: {child['rng_digest']}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
