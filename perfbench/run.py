#!/usr/bin/env python3
"""Closed-loop benchmark of cuboidpose, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One caller in one process runs frames back to back, each started after the
previous one returned. A frame is one unchanged call of `bench.run_trial` or
`bench.run_pipeline`; its returned pose is checked against ground truth. With
`--trace 0` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` the run times half its frames untraced, runs
the same frames again with layer spans, and the last line holds the per-layer
metrics. Everything else the run measured is printed above that line and
written under `.perfbench_out/`. `--workload all` runs every workload of
BENCHMARK.json, one child process each, one after the other.

Exit codes: 0 after a result line, 2 when the package source or
BENCHMARK.json is missing or an argument is bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # frames the tail percentile must leave above it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# units of the printed metrics that BENCHMARK.json does not list, by suffix
_REPORT_UNITS = (
    ("ms_p50", "ms"),
    ("_deg_mean", "deg"),
    ("_mm_mean", "mm"),
    ("_frac", "frac"),
    (".share", "frac"),
)


def report_unit(name: str, spec_units: dict) -> str:
    if name in spec_units:
        return spec_units[name]
    for suffix, unit in _REPORT_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def cap_blas_threads() -> int:
    """One caller, and no more BLAS threads than usable cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (env " + os.environ["OPENBLAS_NUM_THREADS"] + ")"


def machine_context(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "callers": 1,
        "loop": "closed",
    }


# ------------------------------------------------------------ frame loops


def closed_loop(wl, state, seconds, min_frames, tracer=None):
    """Frames 0, 1, ... back to back until `seconds` have passed and at least
    `min_frames` ran. Returns (frames, loop seconds) with frames as
    (ms, Outcome)."""
    from workloads import failure_outcome

    frames = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_frames or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.frame = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.frame(state, i)
            else:
                with tracer.span("bench.frame"):
                    out = wl.frame(state, i)
        except Exception as exc:  # a failed frame is counted, never fatal
            ms = 1000.0 * (time.perf_counter() - t0)
            outcome = failure_outcome(exc)
        else:
            ms = 1000.0 * (time.perf_counter() - t0)
            outcome = wl.check(state, i, out)
        frames.append((ms, outcome))
        i += 1
    return frames, time.perf_counter() - start


def digest(frames, n: int) -> str:
    text = "\n".join(o.digest_line for _, o in frames[:n])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND frames above it."""
    import numpy as np

    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), f"max of {n} frames"
    p = 100.0 * (1.0 - TAIL_BEYOND / n)
    return float(np.percentile(values, p)), f"p{p:.1f} of {n} frames"


def end_to_end(frames, loop_s, setup_s, notes) -> dict:
    ok = [(ms, o) for ms, o in frames if o.ok]
    ok_ms = [ms for ms, _ in ok]
    m = {"setup_s": setup_s}
    if ok_ms:
        m["frame_ms_p50"] = statistics.median(ok_ms)
        m["frame_ms_tail"], notes["frame_ms_tail"] = tail(ok_ms)
        notes["frame_ms_p50"] = f"{len(ok_ms)} frames"
    m["frames_per_s"] = len(ok) / loop_s
    m["fail_frac"] = (len(frames) - len(ok)) / len(frames)
    notes["fail_frac"] = f"{len(frames) - len(ok)}/{len(frames)}"
    for key in ("rot_err_deg", "trans_err_mm", "icp_rot_err_deg", "icp_trans_err_mm"):
        vals = [getattr(o, key) for _, o in ok if not math.isnan(getattr(o, key))]
        if vals:
            m[f"{key}_mean"] = statistics.fmean(vals)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


# the traced run reports accuracy and failures under the layer that made them
_LAYER_NAMES = {
    "rot_err_deg_mean": "correction.rot_err_deg_mean",
    "trans_err_mm_mean": "correction.trans_err_mm_mean",
    "icp_rot_err_deg_mean": "registration.icp_refine.rot_err_deg_mean",
    "icp_trans_err_mm_mean": "registration.icp_refine.trans_err_mm_mean",
    "fail_frac": "bench.fail_frac",
}

# kabsch calls are rigid fits inside the coarse search and iterations in ICP
_COUNT_NAMES = {
    "registration.coarse_register.kabsch_calls": "registration.coarse_register.rigid_fits",
    "registration.icp_refine.kabsch_calls": "registration.icp_refine.iterations",
}


def per_layer(tracer, frames, untraced, count_frames) -> tuple[dict, dict]:
    """Layer metrics of the traced frames, and the subset that are counts."""
    from tracing import frame_table, median_of

    frame_spans = [i for i, sp in enumerate(tracer.spans) if sp.name == "bench.frame"]
    rows = frame_table(tracer, frame_spans)
    total = sum(r["frame_ms"] for r in rows)
    m = {}
    timed = sorted({k[:-3] for r in rows for k in r if k.endswith(".ms")})
    for name in timed:
        m[f"{name}.ms_p50"] = median_of(rows, f"{name}.ms")
        m[f"{name}.share"] = sum(r.get(f"{name}.ms", 0.0) for r in rows) / total
    m["bench.self_ms_p50"] = median_of(rows, "bench.self_ms")
    m["bench.self.share"] = sum(r["bench.self_ms"] for r in rows) / total
    m["trace.frame_ms_p50"] = median_of(rows, "frame_ms")
    for key in sorted({k for r in rows for k in r if k.endswith("_us")}):
        m[key] = median_of(rows, key)

    # counts come from a fixed prefix of frames so they repeat exactly
    head = rows[:count_frames]
    counts = {}
    for key in sorted({k for r in head for k in r if not k.endswith(("ms", "_us"))}):
        counts[_COUNT_NAMES.get(key, key)] = median_of(head, key, 0)
    sor = "filters.statistical_outlier_removal"
    kept = [r[f"{sor}.points_out"] / r[f"{sor}.points_in"] for r in head if f"{sor}.points_in" in r]
    if kept:
        counts[f"{sor}.kept_frac"] = statistics.median(kept)
    m.update(counts)

    ratios = [o.icp_over_correction for _, o in untraced if o.ok]
    ratios = [r for r in ratios if not math.isnan(r)]
    if ratios:
        m["correction.icp_over_correction"] = statistics.median(ratios)
    diffs = [t[0] - u[0] for u, t in zip(untraced, frames)]
    m["trace.overhead_ms"] = statistics.median(diffs)
    m["trace.overhead_frac"] = m["trace.overhead_ms"] / statistics.median(
        u[0] for u in untraced
    )
    return m, counts


# ------------------------------------------------------------ one workload


def run_one(args, spec, nproc) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    context = machine_context(nproc)
    work_dir = WORK / f"{wl.name}-{os.getpid()}"
    setups = []
    try:
        for _ in range(SETUP_ROUNDS):
            t1 = time.perf_counter()
            state = wl.setup(args.seed, str(work_dir))
            setups.append(time.perf_counter() - t1)
        setup_s = import_s + statistics.median(setups)
        notes = {
            "setup_s": f"import {import_s:.3f} s + median of "
            + ", ".join(f"{s:.3f}" for s in setups)
            + " s"
        }
        n_min = wl.digest_frames
        if args.trace:
            untraced, loop_s = closed_loop(wl, state, args.seconds / 2, n_min)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                # the same frames again: none are added once the time is up
                frames, _ = closed_loop(wl, state, 0, len(untraced), tracer=tracer)
        else:
            frames, loop_s = closed_loop(wl, state, args.seconds, n_min)
            untraced = frames
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = end_to_end(untraced, loop_s, setup_s, notes)
    metrics = dict(e2e)
    digests = {"outputs": digest(untraced, n_min)}
    problems = []
    if args.trace:
        layer, counts = per_layer(tracer, frames, untraced, n_min)
        metrics.update(layer)
        for old, new in _LAYER_NAMES.items():
            if old in metrics:
                metrics[new] = metrics.pop(old)
        shares = metrics["bench.self.share"] + sum(
            v for k, v in layer.items() if k.count(".") == 1 and k.endswith(".share")
        )
        if abs(shares - 1.0) > 1e-9:
            problems.append(f"layer shares sum to {shares!r}, not 1")
        digests["traced_outputs"] = digest(frames, n_min)
        if digests["traced_outputs"] != digests["outputs"]:
            problems.append("traced outputs differ from untraced outputs")
        digests["counts"] = hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()
        ).hexdigest()[:16]
        failed_frames = [o for _, o in untraced + frames if not o.ok]
        attempted = len(untraced) + len(frames)
    else:
        failed_frames = [o for _, o in frames if not o.ok]
        attempted = len(frames)
    failures: dict[str, int] = {}
    for o in failed_frames:
        failures[o.failure] = failures.get(o.failure, 0) + 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    spec_units = {w["name"]: w["unit"] for w in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failed_frames and not problems and "frame_ms_p50" in e2e,
        "attempted": attempted,
        "failed": len(failed_frames),
        "metrics": {
            w["name"]: {"value": metrics.get(w["name"], 0.0), "unit": w["unit"]}
            for w in wanted
        },
    }

    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": context,
        "failures": failures,
        "problems": problems,
        "digests": digests,
        "metrics": {
            k: {"value": v, "unit": report_unit(k, spec_units)} for k, v in metrics.items()
        },
        "notes": notes,
        "frame_ms": [round(ms, 3) for ms, _ in untraced],
    }
    _print_report(report)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for sp in tracer.spans:
                f.write(json.dumps(vars(sp)) + "\n")
    print(json.dumps(result))
    return 0


def _print_report(report: dict) -> None:
    ctx = report["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(
        f"workload {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']}: {report['why']}"
    )
    for name, m in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']:6s} {note}")
    failures = report["failures"]
    print(
        "  failures by stage: "
        + (", ".join(f"{k}={v}" for k, v in sorted(failures.items())) or "none")
    )
    for p in report["problems"]:
        print(f"  problem: {p}")
    for k, v in report["digests"].items():
        print(f"  digest {k}: {v}")


# ------------------------------------------------------------ all workloads


def run_all(args, spec) -> int:
    """Each workload in its own child process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", w["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuboidpose" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"missing {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    nproc = cap_blas_threads()  # before numpy loads
    return run_one(args, spec, nproc)


if __name__ == "__main__":
    sys.exit(main())
