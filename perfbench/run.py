"""Benchmark of siefring-kit: one command, five seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.perfbench_out/``.

Each measured pass runs in a fresh worker process (``worker.py``), closed
loop, one operation at a time, and every answer is checked afterwards.  A
run times a fixed number of operations, whole input blocks sized to last
about ``--seconds`` (``op_count``), so one seed always gives the same
inputs, answers and failures.
Ops that run in the worker are timed on its CPU clock; CLI processes and
set-up on the wall clock.  Times in the end-to-end metrics are scaled to a
reference machine speed by a calibration kernel run between operations on
the same clock, CLI processes by a reference process (``calib.py``),
because a core of a shared 2-core machine can slow down 2x within a
minute; the raw figures are in the result file.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
set-up is repeated ``SETUP_SAMPLES`` times in fresh processes and its
median reported.  With ``--trace 1`` a traced pass of half the run gives
the per-layer metrics, and an untraced replay of exactly the same
operations gives the tracing overhead; the traced run also times every
subcommand as a fresh process and in-process (the CLI layer), on every
workload.  Human-readable lines, the environment record and the
failure breakdown go before the last line and into a result file.

``failed``/``attempted`` on the last line is the failure ratio (the
statuses are listed in ``workloads.py``).  Only a wrong answer to a
well-formed input makes ``correct`` false, and then the command exits 1.
Per-layer figures are raw times: function counts, busy and self time from
the traced pass; ``cli.*`` process and in-process times and the jsonio and
closed layers from the CLI-layer pass that follows it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from spans import LAYERS
from workloads import CLI_GROUPS, WORKLOADS

TAIL_PCT = {"germ-exact": 90, "germ-oracle": 80, "spectrum": 75, "scenes": 95, "cli": 75}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
# a threaded BLAS call stalls many times over when a neighbour holds the
# other core of a 2-core machine; workers and the CLI processes they start
# run their numerical libraries on one thread
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

COUNTED = (
    "germs.local_intersection",
    "germs.delta_local",
    "germs.numeric_intersection_oracle",
    "germs.numeric_double_point_oracle",
    "spectrum.assemble",
    "spectrum.eigen_window",
    "spectrum.alphas_from_spectrum",
    "spectrum.orbit_from_loop",
    "spectrum.spectrum_report",
    "spectrum.covering_multiplicity",
    "spectrum.integrate_linear_ode",
    "spectrum.fit_decay",
    "core.scene_from_dict",
    "core.shift_scene",
    "intersection.star",
    "intersection.curve_report",
    "audit.audit_scene",
)
BUSY_ONLY = ("germs.branched_cover", "jsonio.canonical_dumps", "closed.cp2_degree_table")
FROM_CLI_PASS = ("jsonio.canonical_dumps", "closed.cp2_degree_table")

PER_LAYER = (
    [(f"{f}.{m}", u) for f in COUNTED for m, u in (("count", "count"), ("busy_s", "s"), ("rejects", "count"))]
    + [(f"{f}.busy_s", "s") for f in BUSY_ONLY]
    + [
        ("germs.oracle.cells_per_answer", "cells"),
        ("germs.oracle.stabilized_ratio", "ratio"),
        ("germs.oracle.disagreements", "count"),
        ("spectrum.matrix_dim_max", "count"),
        ("spectrum.eigen_window.pairs", "count"),
        ("spectrum.residual_max", "ratio"),
        ("intersection.inconsistent", "count"),
        ("audit.breaches", "count"),
        ("cli.interpreter_start_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    + [(f"cli.{g}_ms", "ms") for g in CLI_GROUPS]
    + [(f"cli.main.{g}_ms", "ms") for g in CLI_GROUPS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.covered_share", "ratio"),
        ("trace.spans", "count"),
    ]
)


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_count(workload, seconds):
    """Timed ops of a run: whole blocks, about ``seconds`` at the workload's
    nominal rate.  A count, not a time limit, so that one seed always gives
    the same inputs, answers and failures however busy the machine is."""
    wl = WORKLOADS[workload]
    return max(1, round(seconds * wl.OPS_PER_S / wl.BLOCK_OPS)) * wl.BLOCK_OPS


def spawn_worker(root, workdir, args, mode, ops=0):
    """Run one worker; returns (seconds from start to READY, result)."""
    cmd = [
        sys.executable,
        os.path.join(root, "perfbench", "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--ops", str(ops),
        "--root", root,
        "--workdir", workdir,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREADED)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker ({mode}) exited with code {code}")
    return ready, json.loads(last)


def end_to_end(res, setups, workload, scaled=True):
    """End-to-end metrics; ``scaled`` divides every time by the slowdown
    the calibration measured around it (see ``calib.py``)."""
    durations = res["durations"]
    if scaled:
        durations = [dt / s for dt, s in zip(durations, res["slowdowns"])]
        setups = [t / s for t, s in setups]
    else:
        setups = [t for t, _ in setups]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1000,
        "op_tail_ms": percentile(durations, TAIL_PCT[workload]) * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def scaled_busy(res):
    return sum(dt / s for dt, s in zip(res["durations"], res["slowdowns"]))


def per_layer(res, replay):
    timed = res["trace"]
    cli_pass = res["cli_layer"]["summary"]
    counts, maxima = res["counts"], res["maxima"]
    metrics = {}
    for fn in COUNTED + BUSY_ONLY:
        entry = (cli_pass if fn in FROM_CLI_PASS else timed)["functions"].get(fn, {})
        for m in ("count", "busy_s", "rejects"):
            metrics[f"{fn}.{m}"] = entry.get(m, 0)
    answers = counts.get("germs.oracle.answers", 0)
    items = counts.get("germs.oracle.items", 0)
    metrics.update(
        {
            "germs.oracle.cells_per_answer": counts.get("germs.oracle.cells", 0) / answers if answers else 0,
            "germs.oracle.stabilized_ratio": answers / items if items else 0,
            "germs.oracle.disagreements": counts.get("germs.oracle.disagreements", 0),
            "spectrum.matrix_dim_max": maxima.get("spectrum.matrix_dim_max", 0),
            "spectrum.eigen_window.pairs": counts.get("spectrum.eigen_window.pairs", 0),
            "spectrum.residual_max": maxima.get("spectrum.residual_max", 0),
            "intersection.inconsistent": counts.get("intersection.inconsistent", 0),
            "audit.breaches": counts.get("audit.breaches", 0),
            "cli.interpreter_start_ms": res["cli_layer"]["interpreter_start_ms"],
            "cli.import_ms": res["cli_layer"]["import_ms"],
        }
    )
    for group in CLI_GROUPS:
        metrics[f"cli.{group}_ms"] = res["cli_ms"][group]
        metrics[f"cli.main.{group}_ms"] = res["cli_layer"]["main_ms"][group]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = timed["layer_self_s"][layer]
    traced, untraced = scaled_busy(res), scaled_busy(replay)
    metrics.update(
        {
            "trace.overhead_s": traced - untraced,
            "trace.overhead_ratio": (traced - untraced) / untraced,
            "trace.covered_share": timed["covered_share"],
            "trace.spans": timed["spans"],
        }
    )
    return metrics


def git_commit(root):
    """Commit of a git checkout, or None.  The ceiling keeps git from
    taking the commit of a repository that merely contains ``root``."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def versions():
    out = {"python": platform.python_version()}
    for name in ("numpy", "sympy", "scipy"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/siefring_kit/cli.py", "perfbench/worker.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a siefring-kit checkout", file=sys.stderr)
            return 2

    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = os.getloadavg()
    try:
        raw = None
        if args.trace:
            _, res = spawn_worker(root, workdir, args, "trace", op_count(args.workload, args.seconds / 2))
            _, replay = spawn_worker(root, workdir, args, "replay", ops=res["ops"])
            metrics = per_layer(res, replay)
            names = PER_LAYER
        else:
            # set-up samples before and after the run, so a slow spell of the
            # machine does not fall on all of them
            before = [spawn_worker(root, workdir, args, "setup") for _ in range(SETUP_SAMPLES // 2)]
            ready, res = spawn_worker(root, workdir, args, "run", op_count(args.workload, args.seconds))
            after = [spawn_worker(root, workdir, args, "setup") for _ in range(SETUP_SAMPLES // 2)]
            setups = [(t, r["setup_slowdown"]) for t, r in before + [(ready, res)] + after]
            metrics = end_to_end(res, setups, args.workload)
            raw = end_to_end(res, setups, args.workload, scaled=False)
            names = END_TO_END
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "versions": versions(),
            "sympy_ground_types": res["ground_types"],
            "SYMPY_USE_CACHE": os.environ.get("SYMPY_USE_CACHE", "yes (default)"),
            "threads": SINGLE_THREADED,
            "git_commit": git_commit(root),
        },
        "ops": res["ops"],
        "busy_s": res["busy_s"],
        "tail": {"percentile": TAIL_PCT[args.workload], "samples": len(res["durations"])},
        "fail_ratio": res["failed"] / res["attempted"],
        "statuses": res["statuses"],
        "failures": res["failures"],
        "metrics": metrics,
        "raw_metrics": raw,
        "slowdown": statistics.median(res["slowdowns"]),
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {res['ops']} timed ops in {res['busy_s']:.2f} s")
    print(f"# env nproc={env['nproc']} load {load_before[0]:.2f}->{load_after[0]:.2f} {env['versions']} "
          f"ground_types={env['sympy_ground_types']} cache={env['SYMPY_USE_CACHE']} commit={env['git_commit']}")
    print(f"# op_tail_ms is p{TAIL_PCT[args.workload]} of {len(res['durations'])} samples; "
          f"fail_ratio {res['failed']}/{res['attempted']}; statuses {res['statuses']}")
    if res["cli_ms"]:
        print("# process wall ms per subcommand: " + ", ".join(f"{g} {v:.0f}" for g, v in res["cli_ms"].items()))
    for failure in res["failures"]:
        print(f"# failure {failure['kind']} {failure['status']}: {failure['detail']}")
    for name, unit in names:
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = res["wrong"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
