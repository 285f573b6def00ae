"""One benchmark process; ``run.py`` starts a fresh one per measured pass.

Modes:
  setup   set up (imports, first input block, warm-up) and exit
  run     set up, time --ops ops, check every answer
  trace   the same with spans and counters on, then time the CLI layer
  replay  set up and time --ops ops untraced (tracing overhead)

The worker prints ``READY`` when set-up is done and one JSON object as its
last line.  Timed inputs are drawn from one seeded stream and the warm-up
from a disjoint one, and no input repeats within the process, because
sympy's cache would otherwise speed up the repeats.  An op's inputs are
dropped once it has run and drawn again from the seed for the check, so
the process's peak memory does not grow with the number of ops done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np

import calib
import workloads as W
from spans import Tracer

STREAM_TIMED, STREAM_WARM, STREAM_PROBE = 0, 1, 2
NOT_FAILED = {"ok", "rejected", "unstabilized"}
CLI_LAYER_REPEATS = 3
SETUP_CALIBRATIONS = 5


class Stream:
    """Ops from one seeded stream, generated a block at a time, each
    distinct from every op drawn before it into ``seen``."""

    def __init__(self, wl, rng, seen):
        self.wl, self.rng, self.seen = wl, rng, seen
        self.ops = []

    def get(self, i):
        while i >= len(self.ops):
            for op in self.wl.block(self.rng):
                key = hashlib.blake2b(self.wl.key(op).encode(), digest_size=16).digest()
                if key in self.seen:
                    continue
                self.seen.add(key)
                op["index"] = len(self.ops)
                self.wl.prepare(op)
                self.ops.append(op)
        return self.ops[i]

    def release(self, i):
        self.ops[i] = None


def streams(wl, seed, index):
    """The timed and warm-up streams, drawn in a fixed order so that a
    second call yields the same ops."""
    seen: set = set()
    timed = Stream(wl, np.random.default_rng([seed, STREAM_TIMED, index]), seen)
    warm = Stream(wl, np.random.default_rng([seed, STREAM_WARM, index]), seen)
    timed.get(0)
    warm.get(0)
    return timed, warm


def execute(wl, op, errors):
    start = wl.CLOCK()
    try:
        outcome = ("value", wl.run(op))
    except errors.SiefringKitError as exc:
        outcome = ("reject", f"{type(exc).__name__}: {exc}")
    except Exception:  # a crash is a counted failure, the run goes on
        outcome = ("error", traceback.format_exc(limit=-2))
    return outcome, wl.CLOCK() - start


def wall(cmd, env):
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def calibrate(at, calibration, wl):
    calibration.extend((at, t) for t in wl.calibration_samples())


def op_spans(durations):
    """(start, end) of each op on the clock of summed op time."""
    out, pos = [], 0.0
    for dt in durations:
        out.append((pos, pos + dt))
        pos += dt
    return out


def cli_layer(args, index, errors, tracer, checked, cli_ms):
    """Each subcommand once in-process (traced) and once as a fresh process,
    bare interpreter start and package import; run on every workload.  The
    in-process pass comes first, so its inputs are cold, and its output is
    the reference the processes are checked against."""
    inputs = W.CliInputs(args.workdir, "probe")
    rng = np.random.default_rng([args.seed, STREAM_PROBE, index])
    probe = []
    for name in W.PROBE_ORDER:
        group, argv, expect = inputs.wellformed(rng, name)
        probe.append({"kind": group, "group": group, "argv": argv, "expect": expect})
    tracer.spans = []
    tracer.enabled = True
    main_ms = {g: [] for g in W.CLI_GROUPS}
    refs, busy = [], 0.0
    for op in probe:
        tracer.op_id = -1
        begin = time.perf_counter()
        code, out, _ = W.main_in_process(op["argv"])
        dt = time.perf_counter() - begin
        refs.append((code, out))
        busy += dt
        main_ms[op["group"]].append(dt * 1000)
    tracer.enabled = False
    summary = tracer.summary(busy)
    runner = W.Cli(tracer, args.root)
    for op, ref in zip(probe, refs):
        outcome, dt = execute(runner, op, errors)
        checked.append((op, W.check_cli(op, outcome, ref)))
        cli_ms[op["group"]].append(dt * 1000)
    env = dict(os.environ, PYTHONPATH=os.path.join(args.root, "src"))
    start = [wall([sys.executable, "-c", "pass"], env) for _ in range(CLI_LAYER_REPEATS)]
    imp = [wall([sys.executable, "-c", "import siefring_kit.cli"], env) for _ in range(CLI_LAYER_REPEATS)]
    return {
        "interpreter_start_ms": statistics.median(start) * 1000,
        "import_ms": (statistics.median(imp) - statistics.median(start)) * 1000,
        "main_ms": {g: statistics.median(v) for g, v in main_ms.items()},
        "summary": summary,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "replay"), required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    tracer = Tracer(args.mode == "trace")
    wl = W.WORKLOADS[args.workload](tracer, args.root)
    wl.workdir = args.workdir
    wl.setup()
    errors = W.pkg("errors")
    index = sorted(W.WORKLOADS).index(args.workload)
    timed, warm = streams(wl, args.seed, index)
    tracer.install()
    for op in wl.warm_ops(warm.ops):
        execute(wl, op, errors)
    tracer.spans.clear()
    tracer.counts.clear()
    tracer.maxima.clear()
    print("READY", flush=True)
    setup_samples = [calib.sample() for _ in range(SETUP_CALIBRATIONS)]
    setup_slowdown = statistics.median(setup_samples) / calib.REFERENCE_S
    if args.mode == "setup":
        print(json.dumps({"setup_slowdown": setup_slowdown}))
        return 0

    # calibration samples are placed on the clock of summed op time, so each
    # op is scaled by the machine speed measured right around it
    outcomes, durations, busy, wall_busy = [], [], 0.0, 0.0
    calibration = []
    calibrate(0.0, calibration, wl)
    while len(durations) < args.ops:
        i = len(durations)
        tracer.op_id = i
        op = timed.get(i)
        start = time.perf_counter()
        outcome, dt = execute(wl, op, errors)
        wall_busy += time.perf_counter() - start  # spans are on the wall clock
        timed.release(i)
        busy += dt
        outcomes.append(outcome)
        durations.append(dt)
        if busy - calibration[-1][0] >= wl.CALIBRATE_EVERY_S:
            calibrate(busy, calibration, wl)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = {
        "mode": args.mode,
        "ops": len(durations),
        "busy_s": busy,
        "durations": durations,
        "slowdowns": calib.slowdowns(op_spans(durations), calibration, wl.REFERENCE_S),
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": usage_children if args.workload == "cli" else usage_self,
    }
    if args.mode == "replay":
        print(json.dumps(result))
        return 0

    tracing = tracer.enabled
    if tracing:
        result["trace"] = tracer.summary(wall_busy)
        result["counts"] = dict(tracer.counts)
        result["maxima"] = dict(tracer.maxima)
        timed_spans = tracer.spans
        tracer.enabled = False

    checked = []
    cli_ms = {g: [] for g in W.CLI_GROUPS}
    again, _ = streams(wl, args.seed, index)
    for i, (outcome, dt) in enumerate(zip(outcomes, durations)):
        op = again.get(i)
        checked.append((op, wl.check(op, outcome)))
        if op.get("group") in cli_ms:
            cli_ms[op["group"]].append(dt * 1000)
        again.release(i)

    if tracing:
        result["cli_layer"] = cli_layer(args, index, errors, tracer, checked, cli_ms)
        offset = len(timed_spans)
        tracer.spans = timed_spans + [
            [name, op_id, parent + offset if parent >= 0 else -1, *rest]
            for name, op_id, parent, *rest in tracer.spans
        ]
        tracer.write(os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-{args.seed}.jsonl.gz"))

    statuses = Counter(status for _, (status, _) in checked)
    result.update(
        {
            "cli_ms": {g: statistics.median(v) for g, v in cli_ms.items() if v},
            "attempted": len(checked),
            "failed": sum(n for s, n in statuses.items() if s not in NOT_FAILED),
            "wrong": statuses.get("wrong", 0),
            "statuses": dict(statuses),
            "failures": [
                {
                    "kind": op["kind"],
                    "status": status,
                    "detail": str(detail)[:300],
                    "input": W.op_inputs(op)[:600],
                }
                for op, (status, detail) in checked
                if status not in NOT_FAILED
            ][:20],
            "ground_types": _ground_types(),
        }
    )
    print(json.dumps(result))
    return 0


def _ground_types():
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        return "unknown"
    return GROUND_TYPES


if __name__ == "__main__":
    sys.exit(main())
