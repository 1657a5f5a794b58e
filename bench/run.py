"""drawrating benchmark: fit, rate, predict and validate workloads.

Usage, from the repository root:

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` runs the same workload with spans around calls into each
drawrating module and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs every workload
at tiny sizes in both modes and checks that each metric named in
``BENCHMARK.json`` is emitted with its unit.  See ``bench/README.md``.

drawrating and the modules that import it are imported inside functions,
after ``main`` has put the checkout's ``src/`` first on the path.
"""

import os

# Pin BLAS threads before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-ups per untraced run: at least the first, until they add up to the
#: second, at most the third; ``setup_s`` is their median.
SETUP_REPEATS = (3, 3.0, 25)
#: Fewest timed passes per untraced run.
MIN_PASSES = 2

#: ``calibration_ms()`` at the full speed of the host the baseline was
#: measured on; unit times are scaled to that speed.
CAL_REFERENCE_MS = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "unit_ms_scaled": "ms",
    "ops_per_s_scaled": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith((".ns_per_term", ".ns_per_pair")):
        return "ns"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_units(passes: list) -> tuple[list, list]:
    """Each unit's time at the reference speed, and its operations per second.

    The host's shared cores run up to 2x slower for seconds to minutes while
    neighbours are busy.  A unit is scaled by the mean of the calibrations
    timed just before and just after it, which ran at the same speed.
    """
    scaled, rates = [], []
    for p in passes:
        for ms, ops, before, after in zip(p.latencies_ms, p.unit_ops,
                                          p.calib_ms, p.calib_ms[1:]):
            scaled.append(ms * CAL_REFERENCE_MS / ((before + after) / 2))
            rates.append(ops / scaled[-1] * 1e3)
    return scaled, rates


def untraced_run(workload, seconds: float) -> tuple[dict, list]:
    fewest, enough_s, most = SETUP_REPEATS
    setups = []
    while len(setups) < fewest or (sum(setups) < enough_s and len(setups) < most):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    workload.prepare_checks()

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    scaled, rates = scaled_units(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "unit_ms_scaled": statistics.median(scaled),
        "ops_per_s_scaled": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, passes


def traced_run(workload, seconds: float, spans_path: Path) -> tuple[dict, list]:
    import layers
    from tracing import Tracer
    from workloads import import_cli_ms

    tracer = Tracer()
    layers.install(tracer)
    tracer.begin_pass()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_layers = layers.metrics(tracer.end_pass())
    workload.prepare_checks()
    imports = [import_cli_ms(workload.env, workload.path("import.err")) for _ in range(3)]

    untraced, traced, per_pass, spans_per_pass = [], [], [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(workload.run_pass())
        layers.install(tracer)
        tracer.begin_pass()
        try:
            traced.append(workload.run_pass())
        finally:
            tracer.uninstall()
        traced_pass = tracer.end_pass()
        per_pass.append(layers.metrics(traced_pass))
        spans_per_pass.append(sum(s["calls"] for s in traced_pass["spans"].values()))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    tracer.write(spans_path)

    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["simulate.simulate_league.ms"] = setup_layers["simulate.simulate_league.ms"]
    metrics["cli.import_ms"] = statistics.median(imports)
    traced_s = min(p.seconds for p in traced)
    untraced_s = min(p.seconds for p in untraced)
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.spans"] = statistics.median(spans_per_pass)
    return metrics, untraced + traced


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "drawrating").glob("*.py"))),
    }


def measure(name: str, seed: int, seconds: float, trace: int, sizes: str) -> dict:
    from workloads import SIZES, WORKLOADS

    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{sizes}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](SIZES[sizes], seed, str(workdir), str(SRC))
    if trace:
        metrics, passes = traced_run(workload, seconds, workdir / "spans.jsonl")
    else:
        metrics, passes = untraced_run(workload, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = sorted({problem for p in passes for problem in p.problems})
    if trace:
        metrics["failed_share"] = failed / attempted
    units = END_TO_END_UNITS if not trace else {n: per_layer_unit(n) for n in metrics}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "pass_seconds": [p.seconds for p in passes],
        "unit_ms": [ms for p in passes for ms in p.latencies_ms],
        "calib_ms": [ms for p in passes for ms in p.calib_ms], "problems": problems,
        "environment": environment(), "result": result,
    }
    if name == "fit":
        detail["recovery_error"] = dict(zip(("beta0", "beta1", "tau"),
                                            workload.recovery_error))
    (workdir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({k: v for k, v in detail.items() if k != "result"}))
    return result


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced; check metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = measure(workload, seed, 0.0, trace, "smoke")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {sorted(n for n in got if got[n] != wanted[trace].get(n, got[n]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: output checks failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["fit", "rate", "predict", "validate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the metric names")
    args = parser.parse_args(argv)
    if not (SRC / "drawrating" / "cli.py").is_file():
        print(f"error: no drawrating sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, args.trace, "full")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
