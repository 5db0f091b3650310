#!/usr/bin/env python3
"""Layered benchmark of the adinkra library, run from a source checkout.

Usage (from the checkout root):

    python3 perfbench/run.py --workload {ladder,codec,quotient16,cli,all}
                             --seed N --seconds S --trace {0,1}

One run: set up five fresh interpreters that import the library and run
one warm-up pass, warm up this process, then send requests in a closed
loop for S seconds (ladder: exactly three passes), checking every
output.  With --trace 0 it prints the end-to-end metrics named in
BENCHMARK.json; with --trace 1 every other request is traced and it
prints the per-layer metrics instead, plus the tracing overhead measured
against the untraced requests of the same run.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  Results,
environment and spans are also written under perfbench/out/.

The end-to-end times `op_p50_norm` (median request; for ladder the sum
of each rung's median) and `setup_s` (median set-up) are normalised:
each step's wall time is divided by the wall time of a fixed pure-Python
loop run next to it, and counted in units where that loop takes 1 ms
(workloads.REFERENCE_S).  So `op_p50_norm` is in reference milliseconds
(unit `ref-ms`) and `setup_s` in reference seconds, not in seconds of
the program.  On a shared 2-CPU virtual machine whose CPU speed drifted
by up to 1.75x within minutes, the 10th-percentile raw codec pass time
of ten runs spread by 51% (interquartile range over median); the
normalised median spread by 3%.  The raw wall figures are printed
beside them (`*_wall_*`), and the per-layer times of the traced run are
raw wall times.

`peak_rss_mb` is the median peak resident set of the five set-up
interpreters, so it comes from a fixed amount of work (import and one
warm-up pass) and does not grow with the number of requests a run fits
into S seconds.

The library measured is the one under this checkout's src/; the run
stops with exit code 2 if `adinkra` is missing there or resolves
anywhere else.  `--workload all` runs the four workloads one after
another, each in its own process.
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


sys.path.insert(0, str(SRC))
try:
    import adinkra  # noqa: E402
except ImportError as exc:
    fail(f"cannot import adinkra from {SRC}: {exc}")
if not under_src(adinkra.__file__):
    fail(f"adinkra resolves to {adinkra.__file__}, not under {SRC}")

import numpy  # noqa: E402
from adinkra import _kernels  # noqa: E402

from tracer import LayerTimes, Tracer, median  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_S,
    WORKLOADS,
    cli_env,
    json_digest,
    reference_time,
)


def git_commit() -> str:
    """HEAD of the checkout; git does not look above ROOT."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.active_backend(),
        "numba_importable": _kernels.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "adinkra": str(Path(adinkra.__file__).resolve().relative_to(ROOT)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_command(name: str, seed: int) -> list[str]:
    if name == "cli":
        return [sys.executable, "-c",
                "import resource, adinkra.cli; print(adinkra.cli.__file__); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]


def setup_probes(name: str, seed: int) -> list[tuple[float, float, float]]:
    """(wall time, reference time just before, peak RSS in MB) of fresh
    interpreters that import the library and warm up."""
    probes = []
    for _ in range(SETUP_PROBES):
        ref = reference_time()
        start = time.perf_counter()
        proc = subprocess.run(
            probe_command(name, seed), capture_output=True, text=True,
            cwd=ROOT, env=cli_env(ROOT), timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"setup probe exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
        path, rss_kib = proc.stdout.split()
        if not under_src(path):
            fail(f"setup probe imported {path!r}, not {SRC}")
        probes.append((wall, ref, int(rss_kib) / 1024.0))  # ru_maxrss: KiB
    return probes


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(args) -> int:
    spec = declared()
    kind = WORKLOADS[args.workload]
    setup = setup_probes(args.workload, args.seed)
    warm = kind(ROOT, args.seed, Tracer())
    warm.warm_up()

    tracer = Tracer()
    w = kind(ROOT, args.seed, tracer)
    w.setup_times = [wall for wall, _ref, _rss in setup]
    digest = json_digest(w.input_prefix())
    # Traced runs alternate traced and untraced requests, starting traced,
    # and run at least one of each so the overhead can be measured.
    least = 2 if args.trace else 1

    def more(i: int) -> bool:
        if w.fixed_requests:
            return i < w.fixed_requests
        return i < least or time.perf_counter() - start < args.seconds

    norm_by_traced = {False: [], True: []}
    i = 0
    start = time.perf_counter()
    while more(i):
        traced = bool(args.trace) and i % 2 == 0
        tracer.begin(f"{w.request_kind}{i}", traced)
        done = w.request(i)
        tracer.end()
        if done == w.request_kind:
            norm_by_traced[traced].append(w.samples[done + "_norm"][-1])
        i += 1
    elapsed = time.perf_counter() - start
    w.close()

    attempted = warm.attempted + w.attempted
    failed = warm.failed + w.failed
    requests = w.samples.get(w.request_kind, [])
    op_norm, op_count = w.op_norm()
    figures = {
        "setup_s": (statistics.median(
            wall / ref * REFERENCE_S for wall, ref, _rss in setup),
            "s", len(setup)),
        "setup_wall_s": (statistics.median(
            wall for wall, _ref, _rss in setup), "s", len(setup)),
        "op_p50_norm": (op_norm * 1e3, "ref-ms", op_count),
        "op_p50_wall_ms": (median(requests) * 1e3, "ms", len(requests)),
        "reference_ms": (median(w.reference) * 1e3, "ms", len(w.reference)),
        "peak_rss_mb": (statistics.median(
            rss for _wall, _ref, rss in setup), "MB", len(setup)),
    }
    figures.update(w.figures())
    figures["failed_ratio"] = (failed / max(attempted, 1), "ratio", attempted)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256={digest} (first 16 requests)")
    print(f"requests={i} elapsed_s={elapsed:.3f} "
          f"attempted={attempted} failed={failed}")
    for line in warm.failures + w.failures:
        print(f"failure: {line}")

    if args.trace:
        lt = LayerTimes(tracer.self_times())
        layers = w.layers(lt)
        unknown = set(layers) - set(spec["per_layer"])
        if unknown:
            fail(f"undeclared per-layer metrics: {sorted(unknown)}")
        plain, traced = norm_by_traced[False], norm_by_traced[True]
        layers["trace.overhead_pct"] = (
            (median(traced) / median(plain) - 1) * 100
            if plain and traced else 0.0)
        layers["trace.spans"] = len(tracer.spans)
        # A layer this workload never calls reports zero: it is absent.
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in spec["per_layer"].items()}
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']} {m['unit']}")
        print(f"trace: {len(traced)} traced and {len(plain)} untraced "
              f"{w.request_kind} requests")
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    else:
        metrics = {}
        for name, unit in spec["end_to_end"].items():
            value, got_unit, _n = figures[name]
            if got_unit != unit:
                fail(f"{name}: unit {got_unit} but BENCHMARK.json says {unit}")
            metrics[name] = {"value": value, "unit": unit}
    for name, (value, unit, n) in figures.items():
        print(f"metric {name} = {value} {unit} (n={n})")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "inputs_sha256": digest,
                   "figures": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in figures.items()},
                   "failures": warm.failures + w.failures,
                   "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        # One setup probe: this interpreter's imports and one warm-up pass.
        WORKLOADS[args.workload](ROOT, args.seed, Tracer()).warm_up()
        print(adinkra.__file__)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
