#!/usr/bin/env python3
"""FED-Net benchmark: training, two-stage inference and gradient checking.

One workload per process:

    python3 benchmark/run.py --workload train_lesion --seed 1 --seconds 25 --trace 0

prints ``name<TAB>value<TAB>unit`` lines and, last, one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  A full report (environment, per-operation rows, accounting)
goes to ``.bench_out/<workload>-seed<n>-trace<t>.json`` and the traced run's
spans to ``.bench_out/trace-<workload>.npz``.

Every workload, untraced and traced, in one command:

    python3 benchmark/run.py --all --seed 1 [--seconds 25]

prints every metric with its unit and the tracing overhead, writes
``BENCHMARK.json`` from ``definition.py`` and a summary to
``.bench_out/summary-seed<n>.json``.

Run it from the repository root; it needs ``src/fednet`` and numpy only.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.  A second thread on a
    2-vCPU shared host made conv2d times vary more (10-s window means: 11%
    against 7%), and the single-threaded reference kernels of ``pace.py``
    track a single-threaded program best."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def blas_threads_in_effect() -> str:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import workloads as wl

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {"phantom_dims_xyz": list(wl.DIMS), "batch": wl.BATCH,
                  "train_phantoms": wl.TRAIN_PHANTOMS,
                  "train_iterations": wl.TRAIN_ITERATIONS,
                  "ckpt_iterations": {"liver": wl.LIVER_ITERATIONS,
                                      "lesion": wl.LESION_ITERATIONS}},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result line, report)."""
    import numpy as np

    import layers
    import workloads as wl
    from definition import END_TO_END, PER_LAYER
    from pace import SCALES, Pacer
    from tracer import Tracer

    setup, measure, scale = wl.WORKLOADS[workload]
    env = environment(workload, seed, seconds, trace)
    env["host_speed_scale"] = scale
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    tracer = Tracer() if trace else None
    pacer = Pacer(enabled=not trace)
    setup_windows: list[tuple[float, float]] = []
    try:
        if tracer is not None:
            tracer.install()
        # untraced: at least SETUP_REPEATS set-ups and SETUP_SECONDS of them
        while len(setup_windows) < (1 if trace else SETUP_REPEATS) or (
                not trace and len(setup_windows) < SETUP_MAX_REPEATS
                and sum(hi - lo for lo, hi in setup_windows) < SETUP_SECONDS):
            wl.clean(work)
            pacer.burst()
            t0 = time.perf_counter()
            ctx = setup(work / f"setup{len(setup_windows)}", seed, pacer)
            setup_windows.append((t0, time.perf_counter()))
            pacer.burst()
        setup_window = setup_windows[-1]
        env["sizes"]["setup_repeats"] = len(setup_windows)
        outcome = measure(ctx, seconds, pacer, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.clean(work)

    units = len(outcome.op_windows)
    if not units:
        raise RuntimeError(f"{workload}: no operation completed; problems: {outcome.problems}")
    # raw: wall time less the reference samples; paced: at nominal host speed
    raw_ms = pacer.program_seconds(outcome.op_windows) * 1e3
    setup_seconds = pacer.program_seconds(setup_windows).tolist()
    unit_ms = float(raw_ms.mean())
    report = {"env": env, "setup_seconds": setup_seconds, "attempted": outcome.attempted,
              "failed": outcome.failed, "problems": outcome.problems,
              "quality": outcome.quality, "details": outcome.details,
              "units": units, "unit_ms": unit_ms}
    if trace:
        spans = layers.Spans(tracer.names, tracer.arrays())
        check_names = [c["name"] for c in outcome.details.get("checks", [])]
        values = layers.per_layer(spans, outcome.window, units, setup_window, check_names)
        report["accounting_ms_per_unit"] = layers.accounting(spans, outcome.window, units)
        report["spans"] = int(spans.start.size)
        tracer.write(OUT / f"trace-{workload}.npz")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timing = {"raw": (raw_ms, setup_seconds)}
        for name in SCALES:
            timing[name] = (pacer.program_seconds(outcome.op_windows, name) * 1e3,
                            pacer.program_seconds(setup_windows, name).tolist())
        figures = {key: timing_figures(op, setup) for key, (op, setup) in timing.items()}
        values = {**figures[scale], "peak_rss_mb": rss_mb}
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        report["aliases"] = aliases(workload, values, outcome, float(timing[scale][0].mean()))
        # raw figures, what each kernel would have given, the run's mean host speed
        report["paced"] = figures
        report["host_speed"] = {name: pacer.mean_speed(name) for name in SCALES}
        report["pace_samples"] = len(pacer.starts)
    bad = [k for k, v in metrics.items() if not np.isfinite(v["value"])]
    problems = outcome.problems + [f"metric {k} is not finite" for k in bad]
    report["problems"] = problems
    report["metrics"] = metrics
    line = {"correct": not problems, "attempted": int(outcome.attempted),
            "failed": int(outcome.failed), "metrics": metrics}
    report["lines"] = [[k, v] for k, v in outcome.lines]
    return line, report


def timing_figures(op_ms, setup_seconds) -> dict:
    op_ms = list(op_ms)
    return {"setup_s": statistics.median(setup_seconds),
            "op_ms.p50": percentile(op_ms, 50), "op_ms.p90": percentile(op_ms, 90),
            "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3)}


def aliases(workload: str, values: dict, outcome, unit_ms: float) -> dict:
    """The end-to-end metrics under their workload-specific names."""
    import workloads as wl

    n = len(outcome.op_windows)
    if workload == "train_lesion":
        out = {"train.step_ms.p50": (values["op_ms.p50"], "ms"),
               "train.step_ms.p90": (values["op_ms.p90"], "ms"),
               "train.slices_per_s": (values["ops_per_s"] * wl.BATCH, "slices/s")}
    elif workload == "infer_two_stage":
        out = {"infer.volume_ms.p50": (values["op_ms.p50"], "ms"),
               "infer.volume_ms.p90": (values["op_ms.p90"], "ms")}
    else:
        out = {"gradcheck.suite_s": (unit_ms / 1e3, "s")}
    for name, value in outcome.quality.items():
        out[name] = (value, "dice")
    out["samples"] = (n, "count")
    return out


def print_result(line: dict, report: dict) -> None:
    env = report["env"]
    for key in ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads",
                "git_commit", "workload", "seed"):
        print(f"env.{key}\t{env[key]}")
    print(f"env.sizes\t{json.dumps(env['sizes'], sort_keys=True)}")
    for key, value in report["lines"]:
        print(f"{key}\t{value}")
    for name, (value, unit) in report.get("aliases", {}).items():
        print(f"{name}\t{value:.6g}\t{unit}")
    for key, figures in report.get("paced", {}).items():
        print(f"{key}\t" + "\t".join(f"{k}={v:.6g}" for k, v in figures.items()))
    for name, speed in report.get("host_speed", {}).items():
        print(f"host_speed.{name}\t{speed:.4f}\tnominal=1")
    for name, metric in line["metrics"].items():
        print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(f"attempted\t{line['attempted']}")
    print(f"failed\t{line['failed']}")
    for problem in report["problems"]:
        print(f"problem\t{problem}")
    print(json.dumps(line))


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, one process each; print every
    metric and the tracing overhead, and write BENCHMARK.json."""
    from definition import WORKLOADS, benchmark_json

    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload, _ in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
                continue
            report = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
            entry["traced" if trace else "untraced"] = report
        if len(entry) == 2:
            untraced, traced = entry["untraced"], entry["traced"]
            entry["tracing_overhead"] = traced["unit_ms"] / untraced["unit_ms"] - 1.0
            _print_workload(workload, untraced, traced, entry["tracing_overhead"])
        summary["workloads"][workload] = entry
        if not all(r.get("problems") == [] for r in entry.values() if isinstance(r, dict)):
            status = 1
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


def _print_workload(workload: str, untraced: dict, traced: dict, overhead: float) -> None:
    print(f"== {workload} (seed {untraced['env']['seed']})")
    for name, (value, unit) in untraced["aliases"].items():
        print(f"{name}\t{value:.6g}\t{unit}")
    for name, metric in untraced["metrics"].items():
        print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(f"attempted\t{untraced['attempted']}\tfailed\t{untraced['failed']}")
    print(f"unit_ms.untraced\t{untraced['unit_ms']:.3f}\tms")
    print(f"unit_ms.traced\t{traced['unit_ms']:.3f}\tms")
    print(f"tracing_overhead\t{overhead:.4f}\tratio")
    for name, metric in traced["metrics"].items():
        if metric["value"]:
            print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print("accounting (self ms per unit; top 12 of the partition)")
    acct = traced["accounting_ms_per_unit"]
    for key in list(acct)[:12]:
        print(f"  {key}\t{acct[key]:.3f}")
    print(f"  sum\t{sum(acct.values()):.3f}\t(traced unit {traced['unit_ms']:.3f}, "
          f"untraced {untraced['unit_ms']:.3f})")


def main(argv=None) -> int:
    from definition import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fednet" / "__init__.py").is_file():
        print(f"error: no fednet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    from definition import RUN_SECONDS

    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        parser.error("--workload is required without --all")
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    line, report = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_result(line, report)
    # the printed lines repeat the report's details
    stored = {key: value for key, value in report.items() if key != "lines"}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(stored, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
