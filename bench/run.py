"""Benchmark of the full expandforge loop: toygen -> expand -> traineval -> report.

    python3 bench/run.py --workload guided --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process. It times set-up in fresh child processes,
generates its inputs from --seed, runs one warm-up pass and then measured
passes until --seconds have gone by, checks every output of every pass, and
prints a summary followed by one JSON line: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 passes alternate traced and untraced and the metrics are the
per-layer ones. `--workload all` runs each workload in its own child process
and prints every end-to-end metric of each. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("guided", "augment", "bulk")
SETUP_RUNS = 5
MIN_PASSES = 3  # measured passes per run, whatever --seconds says; traced runs take 2 + 2
WORKLOAD_TIMEOUT_S = 200


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import expandforge
    except ImportError as err:
        sys.exit(f"error: cannot import expandforge from {SRC}: {err}")
    if not Path(expandforge.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: expandforge was imported from {expandforge.__file__}, not {SRC}")


def _toygen(workload, seed: int, directory: str):
    """Generate the workload's train and test files through the CLI."""
    import expandforge.cli as cli
    from workloads import TEST_SEED_OFFSET

    paths = []
    for tag, per_class, file_seed in (("train", workload.per_class, seed),
                                      ("test", workload.test_per_class, seed + TEST_SEED_OFFSET)):
        path = os.path.join(directory, f"{tag}.gifx")
        argv = ["toygen", "--classes", str(workload.classes), "--per-class", str(per_class),
                "--size", str(workload.side), "--seed", str(file_seed), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"toygen {' '.join(argv)} failed")
        paths.append(path)
    return paths


def _measure_setup(args, work: str) -> tuple:
    """Time of fresh processes that import the package and run toygen.

    Returns (reference-host seconds, wall seconds, digests of the files written).
    """
    speed = HostSpeed()
    samples, walls, digests = [], [], set()
    for i in range(SETUP_RUNS):
        directory = os.path.join(work, f"setup-{i}")
        os.mkdir(directory)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", directory,
               "--workload", args.workload, "--seed", str(args.seed)]
        before = speed.kernel_s()
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        samples.append(walls[-1] * speed.scale(before, speed.kernel_s()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        digests.add(tuple(checks.sha256_file(os.path.join(directory, f)) for f in ("train.gifx", "test.gifx")))
    return samples, walls, digests


def environment() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        if found:
            info["cpu_model"] = found.group(1).strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({m for m in re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _median(values: list, unit: str) -> tuple:
    """(unit, median, sample count); counts stay whole numbers."""
    pick = statistics.median if unit in ("s", "variants/s") else statistics.median_low
    return unit, pick(values), len(values)


def run_workload(args) -> dict:
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work")
    try:
        setup, setup_walls, setup_digests = ([], [], set()) if args.trace else _measure_setup(args, work)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            train_path, test_path = _toygen(workload, args.seed, work)
        finally:
            if tracer:
                tracer.uninstall()
        setup_layers = layer_metrics(*tracer.take()) if tracer else {}
        if setup_digests - {(checks.sha256_file(train_path), checks.sha256_file(test_path))}:
            raise RuntimeError("toygen wrote different bytes in different processes")

        runner = Runner(workload, args.seed, work, train_path, test_path)
        passes = [runner.run_pass()]  # warm-up: checked and counted, not timed
        measured = []  # (PassResult, layer metrics or None)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(measured) % 2 == 0
            result = runner.run_pass(tracer if traced else None)
            passes.append(result)
            measured.append((result, layer_metrics(*tracer.take()) if traced else None))
            wanted = 4 if tracer else MIN_PASSES
            if len(measured) >= wanted and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()  # left alone while another run uses it

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    plain = [r for r, layers in measured if layers is None]
    if tracer:
        traced_runs = [(r, layers) for r, layers in measured if layers is not None]
        metrics = {name: _median([layers[name] for _, layers in traced_runs], unit)
                   for name, (unit, _, _) in LAYER_METRICS.items()}
        metrics["backends.toygen_s"] = _median([setup_layers["backends.toygen_s"]], "s")
        metrics["guidance.retries"] = _median([r.retries for r, _ in traced_runs], "count")
        metrics["guidance.fallbacks"] = _median([r.fallbacks for r, _ in traced_runs], "count")
        overhead = (statistics.median(r.seconds() for r, _ in traced_runs)
                    - statistics.median(r.seconds() for r in plain))
        metrics["trace.overhead_s"] = ("s", overhead, min(len(plain), len(traced_runs)))
    else:
        metrics = {
            "setup_s": _median(setup, "s"),
            "expand_variants_per_s": _median([r.variants / r.seconds("expand") for r in plain], "variants/s"),
            "traineval_s": _median([r.seconds("traineval") for r in plain], "s"),
            "loop_s": _median([r.seconds() for r in plain], "s"),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes (1 warm-up), {len(ops)} operations, {len(failed)} failed")
    if setup:
        print(f"  setup_s wall samples, first is cold: {' '.join(f'{s:.4f}' for s in setup_walls)}")
    kinds = ", traced and untraced in turn" if tracer else ""
    print(f"  loop_s wall samples, warm-up first{kinds}: {' '.join(f'{p.loop_s:.4f}' for p in passes)}")
    if not tracer:
        print(f"  wall-clock medians: setup_s {statistics.median(setup_walls):.4f} s, "
              f"traineval_s {statistics.median(r.seconds('traineval', False) for r in plain):.4f} s, "
              f"loop_s {statistics.median(r.loop_s for r in plain):.4f} s, expand_variants_per_s "
              f"{statistics.median(r.variants / r.seconds('expand', False) for r in plain):.2f}")
    scales = [op.scale for r in plain for op in r.ops if op.seconds > 0]
    if scales:
        print(f"  host-speed factor (reference over measured kernel time), median {statistics.median(scales):.4f}")
    print(f"  untimed check time per pass: {statistics.median(p.wall_s - p.loop_s for p in passes):.4f} s")
    for name, (unit, value, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (median of {samples})")
    for op in {op.name: op for op in failed}.values():
        kind = "known fault" if op.probe else "FAILED"
        print(f"  {kind}: {op.name}: {'; '.join(op.problems)}")
    return {
        "correct": all(op.probe for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric of each."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(f"{'workload':<9} {'metric':<28} {'value':>14} unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<9} {metric:<28} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<9} {'operations attempted/failed':<28} {result['attempted']:>7}/{result['failed']:<6}"
              f" correct={str(result['correct']).lower()}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    from workloads import WORKLOADS

    if args.setup_only:
        _toygen(WORKLOADS[args.workload], args.seed, args.setup_only)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
