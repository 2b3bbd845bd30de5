"""Benchmark for tfpsolve: four workloads through ``tfpsolve.cli.main``.

    python3 tfpbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1] [--seconds 20]

Run from the repository root.  The program is imported from ``src/`` next to
this directory, never from an installed copy.  One workload runs in one
single-threaded process: it generates its own inputs from ``--seed``, runs one
small warm-up op in-process, times ``--seed``-derived ops in whole rounds until
20 s have passed, and checks every answer against the benchmark's own
reader and simulator (``inputs.py``).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median over
fresh interpreters, started between rounds, each starting Python, importing
tfpsolve and replaying the warm-up op.  ``--trace 1`` runs every op twice, untraced and then traced
(``tracing.py``), and reports the per-layer metrics per op.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

``--workload all`` (the default) runs every workload, one process after
another, and prints each one's metrics.  The exit code is 1 when an answer
was wrong or an op failed, after the result line is printed.

The run length is fixed at ``RUN_SECONDS``, the ``run_seconds`` of
``BENCHMARK.json``: the bounds there were set from runs of that length.
``--seconds`` may name that length on the command line; any other value
is refused.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from inputs import CheckError
from tracing import Tracer
from workloads import WORKLOADS, ProgramError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_SECONDS = 20
SETUP_SAMPLES = 11
MODULES = ("cli", "core", "indeg", "embed", "instances", "oracles", "arborescence", "outdeg")
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "indeg.draws": "count",
    "indeg.hit_index": "index",
    "embed.batch_calls": "count",
    "embed.batch_hit_rate": "ratio",
    "embed.batch_bytes": "B",
}


def load_program():
    """Import tfpsolve from this checkout's ``src/``; exit 1 when it is not there."""
    if not (SRC / "tfpsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no tfpsolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"tfpsolve.{name}")
        except ImportError:
            if name == "cli":
                raise
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: tfpsolve was imported from outside {SRC}")
    return modules


def run_op(cli_main, work: Path, make, rng_key: list[int]) -> tuple[float, str, list]:
    """One op: (seconds inside CLI calls, 'ok'|'failed'|'wrong', [(argv, exit code)])."""
    op = make(work, np.random.default_rng(rng_key))
    elapsed, steps = 0.0, []
    try:
        argv = next(op)
        while True:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli_main(argv)
            finally:
                elapsed += time.perf_counter() - start
            steps.append((argv, rc))
            argv = op.send((rc, buf.getvalue()))
    except StopIteration:
        return elapsed, "ok", steps
    except CheckError as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return elapsed, "wrong", steps
    except ProgramError as exc:
        print(f"failed op: {exc}", file=sys.stderr)
    except (Exception, SystemExit):
        traceback.print_exc()
    return elapsed, "failed", steps


def setup_sample(steps: list) -> float:
    """Wall time of a fresh interpreter that imports tfpsolve and replays ``steps``."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT), json.dumps(steps)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("error: set-up probe failed")
    return time.perf_counter() - start


def run_workload(name: str, seed: int, trace: bool) -> dict:
    modules = load_program()
    wl = WORKLOADS[name]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli_main = modules["cli"].main
        # The set-up samples replay the warm-up's files, so the ops must not overwrite them.
        (work / "warmup").mkdir()
        _, warm_outcome, warm_steps = run_op(cli_main, work / "warmup", wl.warmup, [seed, 0])
        if warm_outcome == "failed":
            raise SystemExit("error: the warm-up op failed")
        tracer = Tracer(modules) if trace else None
        untraced, traced, outcomes, setup = [], [], [], []
        start, r, probing = time.perf_counter(), 0, 0.0
        while (busy := time.perf_counter() - start - probing) < RUN_SECONDS:
            # Set-up samples are spread over the run, between rounds, so they
            # meet the same machine speed as the ops; their time is not in RUN_SECONDS.
            while not trace and len(setup) < SETUP_SAMPLES * busy / RUN_SECONDS:
                setup.append(setup_sample(warm_steps))
                probing += setup[-1]
            for pos, make in enumerate(wl.round):
                key = [seed, 1, r, pos]
                elapsed, outcome, _ = run_op(cli_main, work, make, key)
                untraced.append(elapsed)
                outcomes.append(outcome)
                if tracer is not None:
                    tracer.install()
                    tracer.begin_op()
                    try:
                        elapsed, outcome, _ = run_op(cli_main, work, make, key)
                    finally:
                        tracer.uninstall()
                    tracer.op_time[-1] = elapsed
                    traced.append(elapsed)
                    outcomes.append(outcome)
            r += 1
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(warm_steps))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        if tracer.absent:
            print("absent (layer reads 0): " + ", ".join(tracer.absent))
    else:
        metrics = {
            "ops_per_s": outcomes.count("ok") / sum(untraced),
            "latency_p50_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    result = {
        "correct": "wrong" not in outcomes and warm_outcome != "wrong",
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=RUN_SECONDS, rounds=r)
    if trace:
        record["spans"] = tracer.spans
    else:
        record["setup_samples"] = setup
        record["op_times"] = untraced
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    load_program()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 and not proc.stdout.strip():
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}/{metric}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
